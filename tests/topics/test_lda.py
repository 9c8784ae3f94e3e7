"""Tests for collapsed-Gibbs LDA."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DocumentNotFoundError
from repro.topics.lda import LdaModel, train_lda
from repro.topics.summaries import summarize_topics

DOCS = {
    "covid-a": "covid outbreak hospital cases covid outbreak hospital".split(),
    "covid-b": "covid outbreak spread doctors covid hospital".split(),
    "fin-a": "market stocks investors shares market stocks earnings".split(),
    "fin-b": "market stocks trading investors bonds earnings".split(),
    "covid-c": "covid vaccine hospital doctors outbreak".split(),
    "fin-c": "stocks rally market earnings investors".split(),
}


@pytest.fixture(scope="module")
def model():
    return train_lda(DOCS, num_topics=2, iterations=150, seed=11)


class TestTraining:
    def test_requires_documents(self):
        with pytest.raises(ConfigurationError):
            train_lda({}, num_topics=2)

    def test_invalid_topic_count(self):
        with pytest.raises(ConfigurationError):
            train_lda(DOCS, num_topics=0)

    def test_deterministic(self):
        a = train_lda(DOCS, num_topics=2, iterations=20, seed=3)
        b = train_lda(DOCS, num_topics=2, iterations=20, seed=3)
        assert np.array_equal(a.topic_word_counts, b.topic_word_counts)

    def test_counts_conserved(self, model):
        total_words = sum(len(terms) for terms in DOCS.values())
        assert model.topic_word_counts.sum() == total_words
        assert model.doc_topic_counts.sum() == total_words


class TestDistributions:
    def test_topic_word_distribution_sums_to_one(self, model):
        for topic in range(model.num_topics):
            assert model.topic_word_distribution(topic).sum() == pytest.approx(1.0)

    def test_document_topic_distribution_sums_to_one(self, model):
        for doc_id in DOCS:
            assert model.document_topic_distribution(doc_id).sum() == pytest.approx(1.0)

    def test_topics_separate_domains(self, model):
        # Each corpus theme should dominate a distinct topic.
        covid_topic = int(
            np.argmax(model.document_topic_distribution("covid-a"))
        )
        finance_topic = int(
            np.argmax(model.document_topic_distribution("fin-a"))
        )
        assert covid_topic != finance_topic

    def test_top_terms_reflect_topic(self, model):
        covid_topic = int(np.argmax(model.document_topic_distribution("covid-a")))
        top = [term for term, _ in model.top_terms(covid_topic, n=4)]
        assert "covid" in top or "outbreak" in top or "hospital" in top

    def test_unknown_document_raises(self, model):
        with pytest.raises(DocumentNotFoundError):
            model.document_topic_distribution("missing")


class _CountingIds(list):
    """A ``doc_ids`` list that counts linear ``index`` lookups."""

    index_calls = 0

    def index(self, *args):
        type(self).index_calls += 1
        return super().index(*args)


class TestRowLookup:
    def test_document_rows_never_scan_doc_ids(self, model):
        doc_ids = _CountingIds(model.doc_ids)
        counted = LdaModel(
            vocabulary=model.vocabulary,
            doc_ids=doc_ids,
            topic_word_counts=model.topic_word_counts,
            doc_topic_counts=model.doc_topic_counts,
            alpha=model.alpha,
            beta=model.beta,
        )
        for doc_id in DOCS:
            assert np.array_equal(
                counted.document_topic_distribution(doc_id),
                model.document_topic_distribution(doc_id),
            )
        assert _CountingIds.index_calls == 0


class TestSummaries:
    def test_summary_shape(self, model):
        summary = summarize_topics(model, terms_per_topic=5)
        assert len(summary) == model.num_topics == 2  # as trained
        for topic in summary:
            assert len(topic.terms) == 5

    def test_label_from_top_terms(self, model):
        summary = summarize_topics(model, terms_per_topic=5)
        for topic in summary:
            assert topic.label == " / ".join(t for t, _ in topic.terms[:3])

    def test_to_dicts_serialisable(self, model):
        import json

        payload = summarize_topics(model).to_dicts()
        assert json.loads(json.dumps(payload)) == payload
