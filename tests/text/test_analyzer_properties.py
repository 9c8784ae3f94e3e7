"""Property-based invariants for the tokenizer and analyzer pipeline.

The example-based text suites pin behaviour on curated sentences; these
throw arbitrary unicode (hypothesis when installed, seeded random
otherwise) at the pipeline and assert the structural invariants the
index and the counterfactual explainers rely on: spans are exact and
ordered, token analysis is context-free (the token-memo contract),
and analysis distributes over whitespace concatenation.
"""

from unittest import mock

from property_support import given, text
from repro.text import analyzer as analyzer_module
from repro.text.analyzer import default_analyzer, surface_analyzer
from repro.text.tokenizer import token_texts, tokenize

ANALYZER = default_analyzer()
SURFACE = surface_analyzer()

#: Twenty distinct tokens: enough to force evictions from a tiny memo.
WARMUP = " ".join(f"filler{i}" for i in range(20))


class TestTokenizerProperties:
    @given(sample=text(max_size=200))
    def test_spans_cover_their_text(self, sample):
        for token in tokenize(sample):
            assert sample[token.start:token.end] == token.text

    @given(sample=text(max_size=200))
    def test_spans_are_ordered_and_disjoint(self, sample):
        cursor = 0
        for token in tokenize(sample):
            assert token.start >= cursor
            assert token.end > token.start
            cursor = token.end

    @given(sample=text(max_size=120))
    def test_retokenizing_a_token_is_identity(self, sample):
        # A matched token is itself a single token — the property that
        # lets the builder treat token texts as atomic edit units.
        for token in tokenize(sample):
            assert token_texts(token.text) == [token.text]

    @given(sample=text(max_size=120))
    def test_tokens_contain_no_whitespace(self, sample):
        for token in tokenize(sample):
            assert not any(ch.isspace() for ch in token.text)
            assert "_" not in token.text


class TestAnalyzerProperties:
    @given(sample=text(max_size=200))
    def test_analysis_is_deterministic(self, sample):
        assert ANALYZER.analyze(sample) == ANALYZER.analyze(sample)

    @given(sample=text(max_size=200))
    def test_terms_are_nonempty_and_spaceless(self, sample):
        for term in ANALYZER.analyze(sample):
            assert term
            assert not any(ch.isspace() for ch in term)

    @given(sample=text(max_size=200))
    def test_token_analysis_is_context_free(self, sample):
        # The analyzer memoizes analyze_token per surface form; that is
        # only sound if a token's analysis never depends on surrounding
        # text.
        expected = [
            term
            for term in (
                ANALYZER.analyze_token(token.text) for token in tokenize(sample)
            )
            if term is not None
        ]
        assert ANALYZER.analyze(sample) == expected

    @given(left=text(max_size=100), right=text(max_size=100))
    def test_analysis_distributes_over_concatenation(self, left, right):
        # A space is never token-internal, so analysing two texts joined
        # by one must equal the concatenated analyses — the property that
        # makes chunked streaming ingest equivalent to whole-corpus
        # ingest.
        joined = ANALYZER.analyze(f"{left} {right}")
        assert joined == ANALYZER.analyze(left) + ANALYZER.analyze(right)

    @given(sample=text(max_size=200))
    def test_unique_terms_match_sequence(self, sample):
        assert ANALYZER.analyze_unique(sample) == set(ANALYZER.analyze(sample))

    @given(sample=text(max_size=200))
    def test_surface_analysis_is_a_superset(self, sample):
        # The surface analyzer only skips filters; it can never produce
        # *fewer* terms than tokenization, and the default analyzer can
        # never produce more than the surface one.
        assert len(SURFACE.analyze(sample)) <= len(tokenize(sample))
        assert len(ANALYZER.analyze(sample)) <= len(SURFACE.analyze(sample))

    @given(sample=text(max_size=200))
    def test_analyzed_offsets_point_at_source_tokens(self, sample):
        for analyzed in ANALYZER.analyze_tokens(sample):
            assert sample[analyzed.start:analyzed.end] == analyzed.token.text

    @given(warmup=text(max_size=200), sample=text(max_size=200))
    def test_evicting_memo_matches_a_fresh_analyzer(self, warmup, sample):
        # A warm memo that has evicted entries must analyze exactly like
        # an analyzer that never saw a token before.
        with mock.patch.object(analyzer_module, "MEMO_CAPACITY", 4):
            warm = default_analyzer()
        for seen in (sample, WARMUP, warmup, sample):
            warm.analyze(seen)
        assert warm.memo.stats()["evictions"] > 0
        assert warm.analyze(sample) == default_analyzer().analyze(sample)
        assert warm.analyze_tokens(sample) == (
            default_analyzer().analyze_tokens(sample)
        )
