"""The semantic-similarity channel for the neural reranker.

monoT5 matches *meaning*, not just surface terms. To give the MLP
cross-scorer a comparable signal, this module trains word2vec on the
corpus and scores (query, document) pairs by cosine similarity of their
mean term vectors — the classic dense-retrieval baseline. Plugged into
:class:`repro.ranking.features.FeatureExtractor` as the ``semantic``
feature.
"""

from __future__ import annotations

from repro.embeddings.similarity import cosine_similarity
from repro.embeddings.word2vec import Word2Vec, train_word2vec
from repro.index.inverted import InvertedIndex
from repro.utils.memo import Memo

#: Query vectors one scorer memoizes.
QUERY_CAPACITY = 1 << 12


class Word2VecSemanticScorer:
    """Callable ``(query, body) -> cosine`` over mean word vectors.

    Query vectors are memoized per query (text vectors are cheap, so
    bodies are not); analysis uses the index's analyzer so the embedding
    vocabulary matches indexed terms. The model is trained once, so the
    memo is not keyed on the index version.
    """

    def __init__(self, index: InvertedIndex, model: Word2Vec):
        self.index = index
        self.model = model
        self._query_cache = Memo(QUERY_CAPACITY)

    @classmethod
    def train(
        cls,
        index: InvertedIndex,
        dimension: int = 48,
        epochs: int = 5,
        seed: int | None = None,
    ) -> "Word2VecSemanticScorer":
        """Train word2vec on the indexed corpus and wrap it as a scorer."""
        analyzed = [index.analyzer.analyze(document.body) for document in index]
        model = train_word2vec(
            analyzed, dimension=dimension, epochs=epochs, seed=seed
        )
        return cls(index, model)

    def _query_vector(self, query: str):
        return self.model.text_vector(self.index.analyzer.analyze(query))

    def __call__(self, query: str, body: str) -> float:
        query_vector = self._query_cache.get(query, self._query_vector)
        body_vector = self.model.text_vector(self.index.analyzer.analyze(body))
        return cosine_similarity(query_vector, body_vector)
