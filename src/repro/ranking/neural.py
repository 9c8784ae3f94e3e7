"""A trained neural cross-scorer: the offline stand-in for monoT5.

The paper reranks with monoT5 (PyGaggle), a sequence-to-sequence
cross-encoder that cannot run in this offline environment. The
counterfactual algorithms, however, only require a *black-box* scorer
whose output responds to document/query perturbations the way a neural
relevance model does. :class:`NeuralReranker` provides that: a multilayer
perceptron over joint query–document features, trained pairwise
(RankNet-style) on weak supervision distilled from lexical evidence, with
optional human-free noise injection so it is *not* a monotone function of
any single lexical statistic.

Why this substitution preserves the paper's behaviour: CREDENCE never
inspects ranker internals — every explanation is derived from rank
changes under perturbation. Any scorer that (a) rewards query-term
evidence non-linearly and (b) mixes multiple evidence channels exercises
identical code paths and produces the same *kinds* of explanations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.ranking.base import Ranker, Ranking
from repro.ranking.bm25 import Bm25Ranker
from repro.ranking.features import (
    AnalyzedDocument,
    FeatureExtractor,
    SemanticScorer,
)
from repro.ranking.session import IncrementalScoringSession
from repro.utils.rng import default_rng
from repro.utils.validation import require, require_positive


@dataclass
class MlpWeights:
    """Parameters of a two-hidden-layer MLP scorer."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray

    def copy(self) -> "MlpWeights":
        return MlpWeights(
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
            self.w3.copy(), float(self.b3),
            self.feature_mean.copy(), self.feature_scale.copy(),
        )


def _forward(weights: MlpWeights, features: np.ndarray) -> tuple[float, tuple]:
    """Score one standardized feature vector; returns (score, cache)."""
    h1_pre = weights.w1 @ features + weights.b1
    h1 = np.tanh(h1_pre)
    h2_pre = weights.w2 @ h1 + weights.b2
    h2 = np.tanh(h2_pre)
    score = float(weights.w3 @ h2 + weights.b3)
    return score, (features, h1, h2)


def _backward(weights: MlpWeights, cache: tuple, upstream: float) -> dict:
    """Gradients of ``upstream * score`` w.r.t. all parameters."""
    features, h1, h2 = cache
    grad_w3 = upstream * h2
    grad_b3 = upstream
    delta2 = upstream * weights.w3 * (1.0 - h2**2)
    grad_w2 = np.outer(delta2, h1)
    grad_b2 = delta2
    delta1 = (weights.w2.T @ delta2) * (1.0 - h1**2)
    grad_w1 = np.outer(delta1, features)
    grad_b1 = delta1
    return {
        "w1": grad_w1, "b1": grad_b1, "w2": grad_w2,
        "b2": grad_b2, "w3": grad_w3, "b3": grad_b3,
    }


class NeuralReranker(Ranker):
    """An MLP cross-scorer over query–document features.

    Use :func:`train_neural_ranker` to construct a trained instance.
    ``rank`` scores the entire corpus (suitable for the small demo
    corpora); production use composes it with
    :class:`repro.ranking.pipeline.RetrieveRerankPipeline`.
    """

    def __init__(
        self,
        index: InvertedIndex,
        weights: MlpWeights,
        semantic_scorer: SemanticScorer | None = None,
    ):
        super().__init__(index)
        self.weights = weights
        self.features = FeatureExtractor(index, semantic_scorer)

    @property
    def name(self) -> str:
        hidden = f"{self.weights.w1.shape[0]}x{self.weights.w2.shape[0]}"
        return f"NeuralReranker(mlp={hidden})"

    def _standardize(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.weights.feature_mean) / self.weights.feature_scale

    def score_features(self, features) -> float:
        """Score one extracted :class:`QueryDocumentFeatures`."""
        score, _ = _forward(self.weights, self._standardize(features.as_array()))
        return score

    def score_text(self, query: str, body: str) -> float:
        return self.score_features(self.features.extract(query, body))

    def rank(self, query: str, k: int) -> Ranking:
        require_positive(k, "k")
        scored = [
            (document.doc_id, self.score_text(query, document.body))
            for document in self.index
        ]
        return Ranking.from_scores(scored).top(min(k, len(scored)))

    def scoring_session(
        self, query: str, pool: Sequence[Document]
    ) -> "NeuralScoringSession":
        return NeuralScoringSession(self, query, pool)


class NeuralScoringSession(IncrementalScoringSession):
    """Incremental pool re-ranking for the neural cross-scorer.

    The query is prepared once (analysis + statistics snapshot), fixed
    pool documents are featurized from memoized analyses, and a
    sentence-removal candidate rebuilds the perturbed document's feature
    inputs from precomputed per-sentence term lists — no tokenization or
    stemming on the hot path.
    """

    def __init__(self, ranker: NeuralReranker, query: str, pool: Sequence[Document]):
        super().__init__(ranker, query, pool)
        self.ranker: NeuralReranker
        self._prepared = ranker.features.prepare(query)
        self._sentence_terms: dict[str, list[tuple[str, ...]]] = {}

    def _score_analyzed(self, doc: AnalyzedDocument, body: str) -> float:
        features = self.ranker.features.extract_prepared(
            self._prepared, doc, body
        )
        return self.ranker.score_features(features)

    def _score_document(self, document: Document) -> float:
        return self._score_analyzed(
            self.ranker.features.document_data(document), document.body
        )

    def _score_substituted(self, doc_id: str, body: str) -> float:
        return self._score_analyzed(
            self.ranker.features.analyze_document(body), body
        )

    def _sentence_term_lists(self, doc_id: str) -> list[tuple[str, ...]]:
        cached = self._sentence_terms.get(doc_id)
        if cached is None:
            analyzer = self.ranker.index.analyzer
            cached = [
                tuple(analyzer.analyze(sentence.text))
                for sentence in self.sentences(doc_id)
            ]
            self._sentence_terms[doc_id] = cached
        return cached

    def _score_without_sentences(
        self, doc_id: str, removed: Collection[int]
    ) -> float:
        term_lists = self._sentence_term_lists(doc_id)
        survivors: list[str] = []
        for index, terms in enumerate(term_lists):
            if index not in removed:
                survivors.extend(terms)
        doc = AnalyzedDocument.from_terms(survivors)
        # The raw surviving text is only needed by the optional semantic
        # channel; skip the join when that channel is off.
        body = (
            self.body_without_sentences(doc_id, removed)
            if self.ranker.features.semantic_scorer
            else ""
        )
        return self._score_analyzed(doc, body)


def train_neural_ranker(
    index: InvertedIndex,
    training_queries: list[str],
    hidden: tuple[int, int] = (16, 8),
    epochs: int = 30,
    learning_rate: float = 0.02,
    pair_count_per_query: int = 64,
    candidate_depth: int = 20,
    label_noise: float = 0.05,
    semantic_scorer: SemanticScorer | None = None,
    seed: int | None = None,
) -> NeuralReranker:
    """Train a :class:`NeuralReranker` by pairwise distillation.

    For each training query we retrieve ``candidate_depth`` candidates
    with BM25, add random corpus documents as hard-negative padding, and
    form preference pairs ordered by a blend of lexical evidence with a
    dash of label noise. The MLP is trained with the RankNet logistic
    pairwise loss. Everything is deterministic under ``seed``.
    """
    require(len(index) >= 4, "need at least 4 documents to train")
    require(bool(training_queries), "need at least one training query")
    rng = default_rng(seed)
    extractor = FeatureExtractor(index, semantic_scorer)
    bm25 = Bm25Ranker(index)
    all_ids = index.doc_ids

    # -- assemble pairwise training data -----------------------------------
    features_by_key: dict[tuple[str, str], np.ndarray] = {}
    pairs: list[tuple[tuple[str, str], tuple[str, str]]] = []

    def features_of(query: str, doc_id: str) -> np.ndarray:
        key = (query, doc_id)
        if key not in features_by_key:
            body = index.document(doc_id).body
            features_by_key[key] = extractor.extract_array(query, body)
        return features_by_key[key]

    for query in training_queries:
        ranking = bm25.rank(query, min(candidate_depth, len(index)))
        candidates = list(ranking.doc_ids)
        # Pad with random unranked documents so the model sees true negatives.
        ranked = set(candidates)
        pool = [doc_id for doc_id in all_ids if doc_id not in ranked]
        if pool:
            padding = rng.choice(
                len(pool), size=min(len(pool), candidate_depth // 2), replace=False
            )
            candidates.extend(pool[i] for i in padding)
        teacher = {}
        for doc_id in candidates:
            features_of(query, doc_id)  # warm the feature table for training
            teacher[doc_id] = bm25.score_text(
                query, index.document(doc_id).body
            ) + float(rng.normal(0.0, label_noise))
        for _ in range(pair_count_per_query):
            first, second = rng.choice(len(candidates), size=2, replace=False)
            a, b = candidates[int(first)], candidates[int(second)]
            if abs(teacher[a] - teacher[b]) < 1e-9:
                continue
            winner, loser = (a, b) if teacher[a] > teacher[b] else (b, a)
            pairs.append(((query, winner), (query, loser)))

    if not pairs:
        raise TrainingError("no training pairs could be formed")

    # -- feature standardization --------------------------------------------
    matrix = np.stack(list(features_by_key.values()))
    feature_mean = matrix.mean(axis=0)
    feature_scale = matrix.std(axis=0)
    feature_scale[feature_scale < 1e-12] = 1.0

    dimension = extractor.dimension
    h1, h2 = hidden
    weights = MlpWeights(
        w1=rng.normal(0.0, 0.3, size=(h1, dimension)),
        b1=np.zeros(h1),
        w2=rng.normal(0.0, 0.3, size=(h2, h1)),
        b2=np.zeros(h2),
        w3=rng.normal(0.0, 0.3, size=h2),
        b3=0.0,
        feature_mean=feature_mean,
        feature_scale=feature_scale,
    )

    def standardize(raw: np.ndarray) -> np.ndarray:
        return (raw - feature_mean) / feature_scale

    # -- RankNet training loop ----------------------------------------------
    order = np.arange(len(pairs))
    for _ in range(epochs):
        rng.shuffle(order)
        for pair_index in order:
            winner_key, loser_key = pairs[int(pair_index)]
            x_w = standardize(features_by_key[winner_key])
            x_l = standardize(features_by_key[loser_key])
            s_w, cache_w = _forward(weights, x_w)
            s_l, cache_l = _forward(weights, x_l)
            margin = s_w - s_l
            # d(loss)/d(margin) for loss = log(1 + exp(-margin))
            upstream = -1.0 / (1.0 + np.exp(margin))
            grads_w = _backward(weights, cache_w, upstream)
            grads_l = _backward(weights, cache_l, -upstream)
            for key in ("w1", "b1", "w2", "b2", "w3"):
                update = grads_w[key] + grads_l[key]
                setattr(
                    weights, key, getattr(weights, key) - learning_rate * update
                )
            weights.b3 -= learning_rate * (grads_w["b3"] + grads_l["b3"])

    return NeuralReranker(index, weights, semantic_scorer)
