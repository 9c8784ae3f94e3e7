"""Ranking substrate: black-box rankers over the index.

``Ranker`` is the paper's model ``M``, and ``Ranking.rank_of`` gives the
paper's ``R(q, d, D, M)``. The counterfactual explainers depend only on
the ``Ranker`` interface and the ``ScoringSession`` it opens, which is
what makes them model-agnostic: any object that can (1) produce a top-k
ranking and (2) score arbitrary text against a query can be explained.
"""

from repro.ranking.base import RankedDocument, Ranker, Ranking
from repro.ranking.bm25 import Bm25Ranker
from repro.ranking.cache import CountingRanker, ScoreCache
from repro.ranking.features import FeatureExtractor, QueryDocumentFeatures
from repro.ranking.lexical import LexicalRanker
from repro.ranking.lm import DirichletLmRanker
from repro.ranking.neural import NeuralReranker, train_neural_ranker
from repro.ranking.pipeline import RetrieveRerankPipeline
from repro.ranking.rerank import rank_with_substitution
from repro.ranking.session import (
    IncrementalScoringSession,
    NaiveScoringSession,
    ScoringSession,
)
from repro.ranking.tfidf import TfIdfRanker

__all__ = [
    "IncrementalScoringSession",
    "NaiveScoringSession",
    "ScoringSession",
    "RankedDocument",
    "Ranker",
    "Ranking",
    "Bm25Ranker",
    "CountingRanker",
    "ScoreCache",
    "FeatureExtractor",
    "QueryDocumentFeatures",
    "LexicalRanker",
    "DirichletLmRanker",
    "NeuralReranker",
    "train_neural_ranker",
    "RetrieveRerankPipeline",
    "rank_with_substitution",
    "TfIdfRanker",
]
