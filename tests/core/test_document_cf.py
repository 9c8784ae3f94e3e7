"""Tests for counterfactual document explanations (§II-C)."""

import itertools

import pytest

from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.core.importance import sentence_importance_scores
from repro.core.search import candidates
from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID
from repro.errors import ExplanationBudgetExceeded, RankingError
from repro.ranking.bm25 import Bm25Ranker
from repro.text.sentences import split_sentences
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def explainer(covid_bm25_ranker):
    return CounterfactualDocumentExplainer(covid_bm25_ranker)


@pytest.fixture(scope="module")
def covid_bm25_ranker():
    from repro.datasets.covid import covid_corpus
    from repro.index.inverted import InvertedIndex

    index = InvertedIndex.from_documents(covid_corpus())
    return Bm25Ranker(index)


QUERY = "covid outbreak"


class TestValidityOfResults:
    def test_explanation_is_valid_counterfactual(self, explainer):
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)
        assert len(result) == 1
        explanation = result[0]
        assert explanation.new_rank > explanation.k
        assert explainer.is_valid(
            QUERY, FAKE_NEWS_DOC_ID, set(explanation.removed_indices), k=10
        )

    def test_explanation_records_provenance(self, explainer):
        explanation = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)[0]
        assert explanation.doc_id == FAKE_NEWS_DOC_ID
        assert explanation.query == QUERY
        assert 1 <= explanation.original_rank <= 10
        assert explanation.size == len(explanation.removed_sentences)

    def test_perturbed_body_lacks_removed_sentences(self, explainer):
        explanation = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)[0]
        for sentence in explanation.removed_sentences:
            assert sentence.text not in explanation.perturbed_body

    def test_removed_sentences_sorted_by_index(self, explainer):
        explanation = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)[0]
        indices = list(explanation.removed_indices)
        assert indices == sorted(indices)


class TestMinimality:
    def test_first_explanation_is_minimal(self, explainer):
        """No strict subset of the first explanation may itself be valid —
        the guarantee the paper derives from size-major enumeration."""
        explanation = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)[0]
        removed = set(explanation.removed_indices)
        for size in range(1, len(removed)):
            for subset in itertools.combinations(removed, size):
                assert not explainer.is_valid(
                    QUERY, FAKE_NEWS_DOC_ID, set(subset), k=10
                ), f"strict subset {subset} is valid: not minimal"

    def test_paper_scenario_removes_first_and_last_sentences(self, explainer):
        explanation = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)[0]
        body = explainer.ranker.index.document(FAKE_NEWS_DOC_ID).body
        last_index = len(split_sentences(body)) - 1
        assert explanation.removed_indices == (0, last_index)
        assert explanation.importance == 4.0  # two sentences scoring 2 each


class TestImportanceOrdering:
    """Ablation A1 (§II-C): ordering candidates by query-term importance
    within each size reaches the first counterfactual in fewer
    evaluations than random or reversed order. Size-major order, and so
    the explanation's size, is the same in every arm."""

    def test_importance_order_evaluates_the_fewest_candidates(
        self, bm25_engine, monkeypatch
    ):
        sentences = split_sentences(bm25_engine.document(FAKE_NEWS_DOC_ID).body)
        guided = sentence_importance_scores(
            bm25_engine.index.analyzer, DEMO_QUERY, sentences
        )
        arms = {
            "importance": guided,
            "random": [float(score) for score in default_rng(99).permutation(guided)],
            "anti": [-score for score in guided],
        }
        evaluated = {}
        for arm, scores in arms.items():
            # The name the candidate generator calls, not the explainer's.
            monkeypatch.setattr(
                candidates,
                "sentence_importance_scores",
                lambda analyzer, query, sentences, scores=scores: list(scores),
            )
            result = CounterfactualDocumentExplainer(bm25_engine.ranker).explain(
                DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=10
            )
            assert len(result) == 1 and result[0].size == 2, arm
            evaluated[arm] = result.candidates_evaluated
        assert evaluated["importance"] < evaluated["random"], evaluated
        assert evaluated["importance"] < evaluated["anti"], evaluated


class TestSearchControls:
    def test_multiple_explanations_in_order(self, explainer):
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=3, k=10)
        sizes = [e.size for e in result]
        assert sizes == sorted(sizes)  # size-major emission order

    def test_budget_returns_partial(self, covid_bm25_ranker):
        tight = CounterfactualDocumentExplainer(
            covid_bm25_ranker, max_evaluations=2
        )
        result = tight.explain(QUERY, FAKE_NEWS_DOC_ID, n=5, k=10)
        assert result.budget_exhausted
        assert result.candidates_evaluated == 2

    def test_budget_raise_mode(self, covid_bm25_ranker):
        tight = CounterfactualDocumentExplainer(
            covid_bm25_ranker, max_evaluations=1, raise_on_budget=True
        )
        with pytest.raises(ExplanationBudgetExceeded):
            tight.explain(QUERY, FAKE_NEWS_DOC_ID, n=5, k=10)

    def test_max_removals_bounds_size(self, covid_bm25_ranker):
        capped = CounterfactualDocumentExplainer(covid_bm25_ranker, max_removals=1)
        result = capped.explain(QUERY, FAKE_NEWS_DOC_ID, n=2, k=10)
        assert all(e.size <= 1 for e in result)

    def test_cost_accounting(self, explainer):
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)
        assert result.candidates_evaluated >= 1
        assert result.ranker_calls == result.candidates_evaluated * 11  # k+1 pool


class TestErrorCases:
    def test_unranked_document_rejected(self, explainer):
        with pytest.raises(RankingError):
            explainer.explain(QUERY, "markets-0002", n=1, k=10)

    def test_unknown_document_rejected(self, explainer):
        with pytest.raises(RankingError):
            explainer.explain(QUERY, "ghost", n=1, k=10)

    def test_single_sentence_document_returns_empty(self, covid_bm25_ranker):
        # Build a tiny index where the target doc has one sentence.
        from repro.index.document import Document
        from repro.index.inverted import InvertedIndex

        index = InvertedIndex.from_documents(
            [
                Document("short", "covid outbreak here."),
                Document("other", "covid outbreak elsewhere today."),
                Document("third", "unrelated filler text entirely."),
            ]
        )
        explainer = CounterfactualDocumentExplainer(Bm25Ranker(index))
        result = explainer.explain("covid outbreak", "short", n=1, k=2)
        assert len(result) == 0
        assert result.search_exhausted

    def test_invalid_parameters(self, explainer):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=0)
        with pytest.raises(ConfigurationError):
            explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=0)
