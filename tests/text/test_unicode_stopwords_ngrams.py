"""Tests for unicode folding, stopwords, and n-grams."""

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.text.ngrams import ngrams
from repro.text.stopwords import ENGLISH_STOPWORDS, is_stopword
from repro.text.unicode import _PUNCT_MAP, normalize_text, strip_accents


class TestNormalizeText:
    def test_casefolds(self):
        assert normalize_text("COVID") == "covid"

    def test_keeps_case_when_disabled(self):
        assert normalize_text("COVID", casefold=False) == "COVID"

    def test_curly_quotes_folded(self):
        assert normalize_text("don’t") == "don't"

    def test_dashes_folded(self):
        assert normalize_text("covid–19") == "covid-19"

    def test_accents_stripped(self):
        assert normalize_text("Café Zürich") == "cafe zurich"

    def test_strip_accents_only(self):
        assert strip_accents("naïve") == "naive"

    @given(st.text(alphabet=st.characters(max_codepoint=127)), st.booleans())
    def test_ascii_shortcut_equals_the_full_pipeline(self, text, casefold):
        full = strip_accents(
            unicodedata.normalize("NFKC", text).translate(_PUNCT_MAP)
        )
        assert normalize_text(text, casefold=casefold) == (
            full.casefold() if casefold else full
        )


class TestStopwords:
    @pytest.mark.parametrize("word", ["the", "and", "of", "is", "was"])
    def test_common_stopwords(self, word):
        assert is_stopword(word)

    @pytest.mark.parametrize("word", ["covid", "outbreak", "5g", "microchip"])
    def test_content_terms_survive(self, word):
        assert not is_stopword(word)

    def test_frozen(self):
        assert isinstance(ENGLISH_STOPWORDS, frozenset)


class TestNgrams:
    def test_bigrams(self):
        assert list(ngrams(["a", "b", "c"], 2)) == [("a", "b"), ("b", "c")]

    def test_unigrams(self):
        assert list(ngrams(["a", "b"], 1)) == [("a",), ("b",)]

    def test_n_longer_than_sequence(self):
        assert list(ngrams(["a"], 2)) == []

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            list(ngrams(["a"], 0))
