"""Tests for PV-DBOW Doc2Vec."""

import numpy as np
import pytest

from repro.datasets.stream import stream_corpus
from repro.embeddings import doc2vec
from repro.embeddings.doc2vec import train_doc2vec
from repro.embeddings.sampling import UnigramTable, sigmoid
from repro.errors import ConfigurationError, DocumentNotFoundError
from repro.text.analyzer import Analyzer

DOCS = {
    "covid-a": "covid outbreak city hospital cases covid outbreak".split(),
    "covid-b": "covid outbreak spread hospital doctors covid".split(),
    "covid-c": "covid vaccine trial doctors results".split(),
    "fin-a": "market stocks rally investors shares earnings".split(),
    "fin-b": "market stocks earnings investors trading bonds".split(),
    "weather-a": "storm rainfall flooding forecast winds drought".split(),
}


@pytest.fixture(scope="module")
def model():
    return train_doc2vec(DOCS, dimension=24, epochs=120, seed=5)


class TestTraining:
    def test_empty_documents_rejected(self):
        with pytest.raises(ConfigurationError):
            train_doc2vec({})

    def test_deterministic(self):
        a = train_doc2vec(DOCS, dimension=8, epochs=5, seed=2)
        b = train_doc2vec(DOCS, dimension=8, epochs=5, seed=2)
        assert np.array_equal(a.doc_vectors, b.doc_vectors)
        assert np.array_equal(a.word_out, b.word_out)

    def test_one_matrix_step_per_document_and_epoch(self, monkeypatch):
        calls = []

        def counting_sigmoid(x):
            calls.append(np.shape(x))
            return sigmoid(x)

        monkeypatch.setattr(doc2vec, "sigmoid", counting_sigmoid)
        train_doc2vec(DOCS, dimension=8, epochs=5, seed=2)
        # One step per kept word made one call per word (135 here).
        assert 0 < len(calls) <= len(DOCS) * 5

    def test_step_sums_gradients_of_repeated_targets(self):
        # Reference: every (target, label) pair scored against the vector
        # and rows from before the step, gradients added one by one.
        rng = np.random.default_rng(0)
        word_out = rng.normal(0.0, 0.1, size=(4, 3))
        vector = rng.normal(0.0, 0.1, size=3)
        table = UnigramTable(np.array([5.0, 3.0, 1.0, 1.0]))
        word_ids = np.array([0, 2, 0, 3])  # word 0 twice; negatives collide
        negatives = table.sample(np.random.default_rng(7), 4 * 2).reshape(4, 2)
        expected_out, expected_vector = word_out.copy(), vector.copy()
        for word_id, noise in zip(word_ids, negatives):
            for target, label in [(word_id, 1.0), *((n, 0.0) for n in noise)]:
                gradient = 0.05 * (sigmoid(word_out[target] @ vector) - label)
                expected_out[target] -= gradient * vector
                expected_vector -= gradient * word_out[target]
        doc2vec._pv_dbow_step(
            vector, word_ids, word_out, table, 2, 0.05, np.random.default_rng(7)
        )
        assert np.allclose(word_out, expected_out, rtol=0.0, atol=1e-15)
        assert np.allclose(vector, expected_vector, rtol=0.0, atol=1e-15)

    def test_contains_and_vector(self, model):
        assert "covid-a" in model
        assert model.vector("covid-a").shape == (24,)

    def test_unknown_doc_raises(self, model):
        with pytest.raises(DocumentNotFoundError):
            model.vector("ghost")


class TestSimilarityStructure:
    def test_same_topic_more_similar_than_cross_topic(self, model):
        same = model.similarity("covid-a", "covid-b")
        cross = model.similarity("covid-a", "weather-a")
        assert same > cross

    def test_similarity_symmetric(self, model):
        assert model.similarity("covid-a", "fin-a") == pytest.approx(
            model.similarity("fin-a", "covid-a")
        )

    def test_most_similar_excludes_self(self, model):
        neighbours = [doc for doc, _ in model.most_similar("covid-a", n=5)]
        assert "covid-a" not in neighbours

    def test_most_similar_respects_exclusions(self, model):
        neighbours = [
            doc
            for doc, _ in model.most_similar(
                "covid-a", n=5, exclude={"covid-b", "covid-c"}
            )
        ]
        assert "covid-b" not in neighbours
        assert "covid-c" not in neighbours

    def test_most_similar_sorted(self, model):
        scores = [s for _, s in model.most_similar("covid-a", n=5)]
        assert scores == sorted(scores, reverse=True)


class TestInference:
    def test_infer_vector_near_topic(self, model):
        inferred = model.infer_vector(
            "covid outbreak hospital cases".split(), epochs=40, seed=3
        )
        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        covid_sim = cosine(inferred, model.vector("covid-a"))
        weather_sim = cosine(inferred, model.vector("weather-a"))
        assert covid_sim > weather_sim

    def test_infer_empty_terms_gives_small_vector(self, model):
        vector = model.infer_vector([], seed=1)
        assert vector.shape == (model.dimension,)

    def test_infer_deterministic(self, model):
        a = model.infer_vector(["covid", "outbreak"], epochs=5, seed=7)
        b = model.infer_vector(["covid", "outbreak"], epochs=5, seed=7)
        assert np.allclose(a, b)


class TestNearCopiesAtBenchmarkScale:
    def test_each_planted_copy_is_its_originals_nearest_neighbour(self):
        # The Fig. 4 situation at the size of the instance-doc2vec
        # benchmark: 300 streamed documents, default dimension and epochs.
        analyzer = Analyzer()
        documents = {
            document.doc_id: analyzer.analyze(document.body)
            for document in stream_corpus(300, seed=1)
        }
        rng = np.random.default_rng(1)
        originals = list(documents)[::37][:8]
        for doc_id in originals:
            terms = documents[doc_id]
            dropped = set(rng.choice(sorted(set(terms)), size=3, replace=False))
            documents[f"{doc_id}-copy"] = [t for t in terms if t not in dropped]
        model = train_doc2vec(documents, seed=1)
        nearest = {
            doc_id: model.most_similar(f"{doc_id}-copy", n=1)[0][0]
            for doc_id in originals
        }
        assert nearest == {doc_id: doc_id for doc_id in originals}
