"""The analyzer pipeline shared by the index, rankers, and explainers.

An :class:`Analyzer` turns raw text into index terms the way Lucene's
analyzer chain does: tokenize → normalise → stopword-filter → stem. The
same instance must be shared by every component of an engine, because the
counterfactual algorithms reason about *terms* ("which query terms does
this sentence contain?"), and that question only has a consistent answer
if everyone analyses text identically.

Token analysis is context-free, so each analyzer memoizes it per
distinct surface token (:attr:`Analyzer.memo`): every path — explain,
rank, serve and ingest — normalizes and stems a surface form once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import ENGLISH_STOPWORDS
from repro.text.tokenizer import Token, token_texts, tokenize
from repro.text.unicode import normalize_text
from repro.utils.memo import Memo

#: Distinct surface tokens one analyzer memoizes (read when an analyzer
#: is built).
MEMO_CAPACITY = 1 << 16

_ABSENT = object()


@dataclass(frozen=True)
class AnalyzedToken:
    """An index term plus the source token it came from."""

    term: str
    token: Token

    @property
    def start(self) -> int:
        return self.token.start

    @property
    def end(self) -> int:
        return self.token.end


@dataclass(frozen=True)
class Analyzer:
    """Configurable text-analysis pipeline.

    Parameters mirror Anserini's defaults: lowercase + fold, English
    stopwords, Porter stemming. Disable stemming/stopwords for components
    that need surface forms (e.g. the query-augmentation explainer shows
    users real document terms, not stems).

    :attr:`memo` maps a raw token to its term (None if filtered). The
    configuration is immutable, so the memo can never outlive the
    settings its terms were computed under; ``dataclasses.replace``
    builds an analyzer with a fresh memo.
    """

    lowercase: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    stopwords: frozenset[str] = ENGLISH_STOPWORDS
    min_token_length: int = 1
    _stemmer: PorterStemmer = field(default_factory=PorterStemmer, repr=False)
    memo: Memo = field(
        default_factory=lambda: Memo(MEMO_CAPACITY),
        init=False,
        compare=False,
        repr=False,
    )

    def analyze_token(self, text: str) -> str | None:
        """Analyse one raw token; None if the pipeline filters it out.

        The uncached kernel behind :attr:`memo`. Token analysis is
        independent of surrounding text, which is what lets every other
        method memoize it per distinct surface form with byte-identical
        results.
        """
        # NFKC can expand a single word character into a sequence
        # containing a space (e.g. U+037A → " ι"); an index term with
        # embedded whitespace could never match a tokenized query, so
        # every whitespace character goes (``split`` and ``isspace``
        # share one definition of whitespace).
        term = "".join(normalize_text(text, casefold=self.lowercase).split())
        if len(term) < self.min_token_length:
            return None
        if self.remove_stopwords and term in self.stopwords:
            return None
        if self.stem:
            term = self._stemmer.stem(term)
        return term or None

    def _terms(self, raws: list[str]) -> list[str | None]:
        """The memoized term (or None) of every raw token, in order."""
        memo = self.memo
        known = memo.entries
        fresh: dict[str, str | None] = {}
        terms: list[str | None] = []
        append = terms.append
        for raw in raws:
            term = known.get(raw, _ABSENT)
            if term is _ABSENT:
                term = fresh.get(raw, _ABSENT)
                if term is _ABSENT:
                    term = fresh[raw] = self.analyze_token(raw)
            append(term)
        memo.record(len(raws), fresh)
        return terms

    def analyze_tokens(self, text: str) -> list[AnalyzedToken]:
        """Analyse ``text``, keeping each term's source token and offsets."""
        tokens = tokenize(text)
        terms = self._terms([token.text for token in tokens])
        return [
            AnalyzedToken(term, token)
            for term, token in zip(terms, tokens)
            if term is not None
        ]

    def analyze(self, text: str) -> list[str]:
        """Analyse ``text`` and return the term sequence.

        >>> Analyzer().analyze("The outbreaks were spreading!")
        ['outbreak', 'spread']
        """
        terms = self._terms(token_texts(text))
        return [term for term in terms if term is not None]

    def analyze_unique(self, text: str) -> set[str]:
        """Analyse ``text`` and return the set of distinct terms."""
        return set(self.analyze(text))

    def term_of(self, word: str) -> str | None:
        """Analyse a single word; None if it is filtered out entirely."""
        terms = self.analyze(word)
        return terms[0] if terms else None

    # -- persistence -----------------------------------------------------------

    #: Fields excluded from :meth:`to_config`: runtime-only state and the
    #: stopword set (persisting the full list would bloat every index
    #: file; deployments customising stopwords persist them separately).
    _NON_CONFIG_FIELDS = ("stopwords", "_stemmer", "memo")

    def to_config(self) -> dict:
        """This analyzer's persistable configuration.

        Enumerated from the dataclass fields, so a newly added analyzer
        option is saved automatically — the save and load sides can no
        longer silently desync (the bug the hard-coded four-field dict
        in ``index/storage.py`` used to invite).
        """
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in self._NON_CONFIG_FIELDS
        }

    @classmethod
    def from_config(cls, config: dict) -> "Analyzer":
        """Rebuild an analyzer from :meth:`to_config` output.

        Unknown keys raise (a config written by a *newer* analyzer must
        not load lossily); missing keys fall back to the field defaults,
        so a config written before a field existed still loads.
        """
        known = {
            spec.name
            for spec in fields(cls)
            if spec.name not in cls._NON_CONFIG_FIELDS
        }
        unknown = set(config) - known
        if unknown:
            raise ValueError(
                f"unknown analyzer config key(s): {', '.join(sorted(unknown))}"
            )
        return cls(**dict(config))


def default_analyzer() -> Analyzer:
    """The library-default analyzer (lowercase, stopwords, Porter)."""
    return Analyzer()


def surface_analyzer() -> Analyzer:
    """An analyzer that keeps surface forms (no stemming, keep stopwords).

    Used where explanations must display user-recognisable terms.
    """
    return Analyzer(remove_stopwords=False, stem=False)
