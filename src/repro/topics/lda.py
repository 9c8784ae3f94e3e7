"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

Blei, Ng & Jordan (2003); sampler follows Griffiths & Steyvers (2004).
Deterministic under a seed; sized for the demo's interactive use (a few
dozen documents, a handful of topics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DocumentNotFoundError, TrainingError
from repro.text.vocabulary import Vocabulary
from repro.utils.rng import default_rng
from repro.utils.validation import require, require_positive


@dataclass
class LdaModel:
    """A fitted LDA model."""

    vocabulary: Vocabulary
    doc_ids: list[str]
    topic_word_counts: np.ndarray  # (topics, vocab)
    doc_topic_counts: np.ndarray  # (docs, topics)
    alpha: float
    beta: float
    #: doc_id -> row of ``doc_topic_counts``, built once.
    _rows: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rows = {doc_id: row for row, doc_id in enumerate(self.doc_ids)}

    @property
    def num_topics(self) -> int:
        return self.topic_word_counts.shape[0]

    def topic_word_distribution(self, topic: int) -> np.ndarray:
        """phi_topic: smoothed P(term | topic)."""
        counts = self.topic_word_counts[topic] + self.beta
        return counts / counts.sum()

    def document_topic_distribution(self, doc_id: str) -> np.ndarray:
        """theta_doc: smoothed P(topic | document)."""
        row = self._rows.get(doc_id)
        if row is None:
            raise DocumentNotFoundError(doc_id)
        counts = self.doc_topic_counts[row] + self.alpha
        return counts / counts.sum()

    def top_terms(self, topic: int, n: int = 10) -> list[tuple[str, float]]:
        """The ``n`` highest-probability terms of ``topic``."""
        phi = self.topic_word_distribution(topic)
        order = np.argsort(-phi)[:n]
        return [(self.vocabulary.term_of(int(i)), float(phi[int(i)])) for i in order]


def train_lda(
    documents: dict[str, list[str]],
    num_topics: int = 5,
    iterations: int = 200,
    alpha: float | None = None,
    beta: float = 0.01,
    seed: int | None = None,
) -> LdaModel:
    """Fit LDA on ``doc_id → analyzed terms`` with collapsed Gibbs sampling."""
    require_positive(num_topics, "num_topics")
    require_positive(iterations, "iterations")
    require(bool(documents), "documents must be non-empty")
    if alpha is None:
        # 1/T (sklearn's default). Griffiths & Steyvers' 50/T assumes long
        # documents; with news-snippet-length texts it washes out θ.
        alpha = 1.0 / num_topics
    rng = default_rng(seed)

    doc_ids = list(documents)
    vocabulary = Vocabulary.from_documents(documents.values())
    if len(vocabulary) == 0:
        raise TrainingError("empty vocabulary: no trainable terms")
    encoded = [vocabulary.encode(documents[doc_id]) for doc_id in doc_ids]

    vocab_size = len(vocabulary)
    topic_word = np.zeros((num_topics, vocab_size), dtype=np.int64)
    doc_topic = np.zeros((len(doc_ids), num_topics), dtype=np.int64)
    topic_totals = np.zeros(num_topics, dtype=np.int64)
    assignments: list[np.ndarray] = []

    # -- random initialisation ----------------------------------------------
    for row, words in enumerate(encoded):
        topics = rng.integers(0, num_topics, size=len(words))
        assignments.append(topics)
        for word, topic in zip(words, topics):
            topic_word[topic, word] += 1
            doc_topic[row, topic] += 1
            topic_totals[topic] += 1

    beta_sum = beta * vocab_size

    # -- collapsed Gibbs sweeps ----------------------------------------------
    for _ in range(iterations):
        for row, words in enumerate(encoded):
            topics = assignments[row]
            for position, word in enumerate(words):
                old_topic = topics[position]
                topic_word[old_topic, word] -= 1
                doc_topic[row, old_topic] -= 1
                topic_totals[old_topic] -= 1

                weights = (
                    (topic_word[:, word] + beta)
                    / (topic_totals + beta_sum)
                    * (doc_topic[row] + alpha)
                )
                weights = weights / weights.sum()
                new_topic = int(rng.choice(num_topics, p=weights))

                topics[position] = new_topic
                topic_word[new_topic, word] += 1
                doc_topic[row, new_topic] += 1
                topic_totals[new_topic] += 1

    return LdaModel(
        vocabulary=vocabulary,
        doc_ids=doc_ids,
        topic_word_counts=topic_word,
        doc_topic_counts=doc_topic,
        alpha=alpha,
        beta=beta,
    )
