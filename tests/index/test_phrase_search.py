"""Tests for positional phrase search."""

import pytest

from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher


@pytest.fixture()
def searcher():
    documents = [
        Document("d1", "the covid outbreak spread across the city"),
        Document("d2", "the outbreak of covid spread fear"),  # reversed order
        Document("d3", "covid cases rose while the outbreak continued"),
        Document("d4", "covid outbreak covid outbreak repeated phrase"),
        Document("d5", "completely unrelated text"),
    ]
    return IndexSearcher(InvertedIndex.from_documents(documents))


class TestPhraseSearch:
    def test_matches_consecutive_terms_only(self, searcher):
        assert searcher.search_phrase("covid outbreak") == ["d1", "d4"]

    def test_order_matters(self, searcher):
        # d2 contains both terms but as "outbreak ... covid".
        assert "d2" not in searcher.search_phrase("covid outbreak")

    def test_stopwords_skipped_in_analysis(self, searcher):
        # "outbreak of covid" analyses to [outbreak, covid]; in d2 these are
        # consecutive once the stopword 'of' is dropped at indexing time,
        # and d4's "...outbreak covid..." interior also matches.
        assert searcher.search_phrase("outbreak of covid") == ["d2", "d4"]

    def test_single_term_phrase(self, searcher):
        assert set(searcher.search_phrase("covid")) == {"d1", "d2", "d3", "d4"}

    def test_unknown_term(self, searcher):
        assert searcher.search_phrase("zebra quantum") == []

    def test_empty_phrase(self, searcher):
        assert searcher.search_phrase("the of and") == []

    def test_three_term_phrase(self, searcher):
        assert searcher.search_phrase("covid outbreak spread") == ["d1"]

    def test_results_in_corpus_order(self, searcher):
        results = searcher.search_phrase("covid outbreak")
        assert results == sorted(results, key=lambda d: int(d[1:]))


class TestPersistence:
    def test_word2vec_roundtrip(self, tmp_path):
        import numpy as np

        from repro.embeddings.persistence import load_word2vec, save_word2vec
        from repro.embeddings.word2vec import train_word2vec

        model = train_word2vec(
            [["covid", "outbreak", "city"], ["covid", "vaccine", "trial"]] * 3,
            dimension=8,
            epochs=2,
            seed=1,
        )
        path = tmp_path / "w2v.npz"
        save_word2vec(model, path)
        loaded = load_word2vec(path)
        assert np.allclose(loaded.w_in, model.w_in)
        assert loaded.vocabulary.id_of("covid") == model.vocabulary.id_of("covid")

    def test_doc2vec_roundtrip(self, tmp_path):
        import numpy as np

        from repro.embeddings.doc2vec import train_doc2vec
        from repro.embeddings.persistence import load_doc2vec, save_doc2vec

        model = train_doc2vec(
            {"a": ["covid", "outbreak"], "b": ["market", "stocks"]},
            dimension=8,
            epochs=3,
            seed=1,
        )
        path = tmp_path / "d2v.npz"
        save_doc2vec(model, path)
        loaded = load_doc2vec(path)
        assert np.allclose(loaded.doc_vectors, model.doc_vectors)
        assert loaded.similarity("a", "b") == pytest.approx(model.similarity("a", "b"))

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.embeddings.doc2vec import train_doc2vec
        from repro.embeddings.persistence import load_word2vec, save_doc2vec

        model = train_doc2vec(
            {"a": ["covid", "outbreak"], "b": ["market", "stocks"]},
            dimension=8,
            epochs=1,
            seed=1,
        )
        path = tmp_path / "d2v.npz"
        save_doc2vec(model, path)
        with pytest.raises(ValueError, match="expected a word2vec"):
            load_word2vec(path)
