"""Tests for the plausibility (perplexity) metric."""

import math

import pytest

from repro.eval.plausibility import CorpusLanguageModel


@pytest.fixture()
def lm(tiny_index):
    return CorpusLanguageModel(tiny_index)


class TestLanguageModel:
    def test_frequent_terms_more_probable(self, lm):
        assert lm.log_probability("covid") > lm.log_probability("microchip")

    def test_unseen_terms_get_smoothed_mass(self, lm):
        assert lm.log_probability("zzzunknown") > -math.inf

    def test_perplexity_positive(self, lm):
        assert lm.perplexity("the covid outbreak spread") > 1.0

    def test_empty_text_infinite(self, lm):
        assert lm.perplexity("") == float("inf")
        assert lm.perplexity("the of and") == float("inf")  # all stopwords

    def test_in_domain_text_less_perplexing(self, lm):
        in_domain = lm.perplexity("covid outbreak city hospitals")
        out_of_domain = lm.perplexity("zebra quantum accordion xylophone")
        assert in_domain < out_of_domain


class TestPlausibilityRatio:
    def test_sentence_removal_is_plausibility_preserving(self, lm, tiny_docs):
        """The paper's design claim: removing whole sentences keeps the
        text on-distribution (ratio near 1), while injecting junk does not."""
        original = tiny_docs[0].body
        sentence_removed = "Hospitals filled quickly. Officials promised more tests."
        junk_injected = original + " zebra quantum accordion xylophone glockenspiel"
        removal_ratio = lm.plausibility_ratio(original, sentence_removed)
        junk_ratio = lm.plausibility_ratio(original, junk_injected)
        assert removal_ratio < junk_ratio
        assert removal_ratio == pytest.approx(1.0, rel=0.5)

    def test_identical_text_ratio_one(self, lm, tiny_docs):
        body = tiny_docs[0].body
        assert lm.plausibility_ratio(body, body) == pytest.approx(1.0)

    def test_empty_original_infinite(self, lm):
        assert lm.plausibility_ratio("", "some text") == float("inf")

    def test_real_explanation_plausibility(self, bm25_engine):
        """End to end: the Fig. 2 perturbation stays near ratio 1."""
        from repro.core.explain import ExplainRequest
        from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID

        lm = CorpusLanguageModel(bm25_engine.index)
        explanation = bm25_engine.explain(
            ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)
        )[0]
        original = bm25_engine.document(FAKE_NEWS_DOC_ID).body
        ratio = lm.plausibility_ratio(original, explanation.perturbed_body)
        assert 0.5 < ratio < 2.0
