"""Tests for the Porter stemmer: classic reference pairs and a golden pin."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets.stream import ZipfianVocabulary, stream_corpus
from repro.text.stemmer import PorterStemmer
from repro.text.tokenizer import token_texts
from repro.text.unicode import normalize_text

STEMMER = PorterStemmer()

# Reference pairs from Porter's original paper and the canonical test set.
REFERENCE = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


@pytest.mark.parametrize("word,expected", REFERENCE)
def test_reference_pairs(word, expected):
    assert STEMMER.stem(word) == expected


class TestStemmerBehaviour:
    def test_short_words_untouched(self):
        assert STEMMER.stem("is") == "is"
        assert STEMMER.stem("be") == "be"

    def test_idempotent_on_reference_set(self):
        # Stemming a stem should usually be stable; check the reference set.
        for _, stem in REFERENCE:
            twice = STEMMER.stem(STEMMER.stem(stem))
            assert twice == STEMMER.stem(stem)

    def test_domain_terms_conflate(self):
        assert STEMMER.stem("outbreaks") == STEMMER.stem("outbreak")
        assert STEMMER.stem("vaccines") == STEMMER.stem("vaccine")
        assert STEMMER.stem("spreading") == STEMMER.stem("spread")

    @given(st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"), max_size=20))
    def test_never_crashes_or_grows(self, word):
        result = STEMMER.stem(word)
        assert isinstance(result, str)
        assert len(result) <= len(word) + 1  # only +e restorations grow


# -- golden pin ---------------------------------------------------------------

# Stems chosen to cover Porter's m = 0..3, *v*, *d and *o conditions and
# the consonant/vowel reading of "y" (at the start, after a vowel, after
# a consonant).
GOLDEN_STEMS = (
    "", "a", "ee", "y", "s", "r", "bl", "sk", "sy", "cr", "ab", "agr",
    "rel", "hop", "tan", "fil", "siz", "mot", "vil", "oper", "form", "good",
    "fall", "hiss", "fizz", "happ", "toy", "pray", "sky", "troub", "plast",
    "condit", "ration", "valen", "hesit", "digit", "conform", "radic",
    "differ", "analog", "vietnam", "predic", "feud", "decis", "callous",
    "sensit", "sensib", "triplic", "electr", "reviv", "allow", "infer",
    "airlin", "gyroscop", "adjust", "defens", "irrit", "replac", "depend",
    "adopt", "homolog", "commun", "activ", "angular", "effect", "bowdler",
    "contr", "syzyg", "bakodi", "zipf",
)

# Porter's suffixes, step by step (1a-c, 2, 3, 4 and 5).
GOLDEN_SUFFIXES = (
    "", "s", "sses", "ies", "ss", "eed", "ed", "ing", "at", "bl", "iz", "y",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
    "eli", "ousli", "ization", "ation", "ator", "alism", "iveness", "fulness",
    "ousness", "aliti", "iviti", "biliti",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize", "ion", "sion",
    "tion", "e", "l", "ll",
)

GOLDEN_INFLECTIONS = ("", "s", "es", "ed", "ing", "ly", "er")

# What an analyzer built with ``lowercase=False`` hands the stemmer:
# mixed case, digits, the tokenizer's inner "-", "'" and ".", non-ASCII.
GOLDEN_SURFACE = (
    "Running", "RUNNING", "Caresses", "SkY", "Yield", "YYYY", "yummy",
    "COVID-19", "covid-19", "u.s.", "U.S.A.", "don't", "o'neill", "sky's",
    "rock'n'roll", "e-mail", "co-op", "x86", "mp3", "2020", "1990's",
    "3.14", "café", "naïve", "résumé", "Ärzte", "straße", "İstanbul",
    "Σίσυφος", "москва", "東京", "ﬁnal", "ǅemal",
)

GOLDEN_WORD_COUNT = 55221
GOLDEN_DIGEST = "409b7920a35a1aa1b417d1756df76e85c603960b4a9f2b2f04d5bfa3ea4a1606"


def golden_words() -> list[str]:
    """The pinned word list: corpus tokens, suffix combinations, surfaces."""
    words = set()
    vocabulary = ZipfianVocabulary.build(30_000)
    for seed in (1, 2, 3):
        for document in stream_corpus(4000, seed=seed, vocabulary=vocabulary):
            words.update(normalize_text(raw) for raw in token_texts(document.body))
    for stem in GOLDEN_STEMS:
        for suffix in GOLDEN_SUFFIXES:
            for inflection in GOLDEN_INFLECTIONS:
                words.add(stem + suffix + inflection)
    for surface in GOLDEN_SURFACE:
        for suffix in ("", "s", "ing", "ed", "ational", "ness", "ement", "e"):
            words.add(surface + suffix)
            words.add(surface + suffix.upper())
    return sorted(words)


def test_golden_stems():
    """Every word's stem is pinned: a digest over ``word<TAB>stem`` lines.

    Any change to the stemmer that moves one stem of the list fails
    here, so a rewrite for speed must reproduce the algorithm exactly.
    """
    words = golden_words()
    lines = "\n".join(f"{word}\t{STEMMER.stem(word)}" for word in words)
    assert len(words) == GOLDEN_WORD_COUNT
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == GOLDEN_DIGEST
