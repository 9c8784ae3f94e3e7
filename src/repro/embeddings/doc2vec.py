"""Doc2Vec (Paragraph Vectors) — the PV-DBOW variant of Le & Mikolov 2014.

Method 1 of the paper's instance-based counterfactuals trains "a Doc2Vec
embedding model" and returns the most cosine-similar non-relevant
documents. PV-DBOW learns one vector per document by training it to
predict the document's words against negative samples; it is the variant
gensim defaults to for similarity work and the cheapest to train, which
matches the demo's interactive setting.

Training takes one matrix step per (document, epoch), not one SGD step
per word. A step draws the document's subsampling mask and all its
(word × negative) noise ids at once, scores every target against the
document vector in one mat-vec, and applies the summed gradients: once
to the document vector, and once to each distinct output-word row. All
predictions in a step see the document vector and word rows as they were
before it, so a word repeated in a document (or drawn twice as noise)
gets its gradients summed rather than applied one after another. That is
a mini-batch of one document instead of word2vec's sequential updates;
with a small learning rate the two follow the same gradient to first
order, and the per-document form costs a handful of numpy calls whose
size is the document's length instead of about ten Python-level calls
per word. :meth:`Doc2Vec.infer_vector` runs the same step with the word
rows frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings.sampling import UnigramTable, sigmoid
from repro.errors import DocumentNotFoundError, TrainingError
from repro.text.vocabulary import Vocabulary
from repro.utils.rng import default_rng
from repro.utils.validation import require, require_positive


@dataclass
class Doc2Vec:
    """Trained PV-DBOW model: one embedding per training document."""

    vocabulary: Vocabulary
    doc_ids: list[str]
    doc_vectors: np.ndarray  # (num_docs, dimension)
    word_out: np.ndarray  # (vocab, dimension)
    negatives: int
    _unigram_table: UnigramTable

    @property
    def dimension(self) -> int:
        return self.doc_vectors.shape[1]

    def vector(self, doc_id: str) -> np.ndarray:
        try:
            row = self.doc_ids.index(doc_id)
        except ValueError:
            raise DocumentNotFoundError(doc_id) from None
        return self.doc_vectors[row]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.doc_ids

    def similarity(self, first: str, second: str) -> float:
        """Cosine similarity between two trained documents."""
        a, b = self.vector(first), self.vector(second)
        denominator = (np.linalg.norm(a) * np.linalg.norm(b)) or 1.0
        return float(a @ b / denominator)

    def most_similar(
        self, doc_id: str, n: int = 10, exclude: set[str] | None = None
    ) -> list[tuple[str, float]]:
        """The ``n`` most cosine-similar documents to ``doc_id``."""
        query = self.vector(doc_id)
        norms = np.linalg.norm(self.doc_vectors, axis=1) * (
            np.linalg.norm(query) or 1.0
        )
        norms[norms == 0] = 1.0
        scores = (self.doc_vectors @ query) / norms
        excluded = set(exclude or ()) | {doc_id}
        ranked = [
            (self.doc_ids[i], float(scores[i]))
            for i in np.argsort(-scores)
            if self.doc_ids[i] not in excluded
        ]
        return ranked[:n]

    def infer_vector(
        self,
        terms: list[str],
        epochs: int = 25,
        learning_rate: float = 0.025,
        seed: int | None = None,
    ) -> np.ndarray:
        """Embed unseen text by gradient steps against frozen word vectors."""
        rng = default_rng(seed)
        word_ids = np.asarray(self.vocabulary.encode(terms), dtype=np.int64)
        vector = (rng.random(self.dimension) - 0.5) / self.dimension
        for epoch in range(epochs):
            _pv_dbow_step(
                vector,
                word_ids,
                self.word_out,
                self._unigram_table,
                self.negatives,
                alpha=learning_rate * (1.0 - epoch / epochs) + 1e-4,
                rng=rng,
                train_words=False,
            )
        return vector


def _pv_dbow_step(
    vector: np.ndarray,
    word_ids: np.ndarray,
    word_out: np.ndarray,
    table: UnigramTable,
    negatives: int,
    alpha: float,
    rng: np.random.Generator,
    keep_probability: np.ndarray | None = None,
    train_words: bool = True,
) -> None:
    """One PV-DBOW step over a whole document, updating in place.

    Every kept word is a positive target followed by ``negatives`` noise
    targets; all of them are scored against ``vector`` in one mat-vec.
    The document vector moves by the summed gradient, and (when
    ``train_words``) each distinct row of ``word_out`` once, by its
    summed gradient times the document vector from before the step.
    Time and memory depend only on the document's length.
    """
    if keep_probability is not None:
        draws = rng.random(len(word_ids))
        word_ids = word_ids[draws <= keep_probability[word_ids]]
    if not len(word_ids):
        return
    width = negatives + 1
    targets = np.empty((len(word_ids), width), dtype=np.int64)
    targets[:, 0] = word_ids
    targets[:, 1:] = table.sample(rng, len(word_ids) * negatives).reshape(
        -1, negatives
    )
    targets = targets.ravel()
    outputs = word_out[targets]
    gradient = sigmoid(outputs @ vector)
    gradient[::width] -= 1.0  # prediction - label: each word's own row is 1
    gradient *= alpha
    if train_words:
        rows, inverse = np.unique(targets, return_inverse=True)
        word_out[rows] -= np.outer(np.bincount(inverse, weights=gradient), vector)
    vector -= gradient @ outputs


def train_doc2vec(
    documents: dict[str, list[str]],
    dimension: int = 64,
    negatives: int = 5,
    epochs: int = 100,
    learning_rate: float = 0.025,
    min_count: int = 1,
    subsample: float | None = 1e-2,
    seed: int | None = None,
) -> Doc2Vec:
    """Train PV-DBOW document embeddings.

    Each epoch visits the documents in order and takes one
    :func:`_pv_dbow_step` per non-empty document: a batch gradient over
    the document's kept words and their negatives, not word2vec's one
    SGD step per word (see the module docstring for why). Random numbers
    are drawn per document, so a step's cost is bounded by the
    document's length; a fixed ``seed`` reproduces the vectors bit for
    bit.

    Args:
        documents: mapping of doc_id → analyzed term sequence.
        subsample: frequent-word subsampling threshold (word2vec's ``t``).
            Without it, corpus-wide frequent terms dominate every update
            and all document vectors collapse onto one direction; ``1e-2``
            suits the small corpora this library targets (gensim's default
            ``1e-3`` assumes web-scale text). ``None`` disables.
    """
    require_positive(dimension, "dimension")
    require_positive(epochs, "epochs")
    require(bool(documents), "documents must be non-empty")
    rng = default_rng(seed)
    doc_ids = list(documents)
    vocabulary = Vocabulary.from_documents(documents.values(), min_count=min_count)
    if len(vocabulary) == 0:
        raise TrainingError("empty vocabulary: no trainable terms")

    encoded = [
        np.asarray(vocabulary.encode(documents[doc_id]), dtype=np.int64)
        for doc_id in doc_ids
    ]
    counts = np.array(
        [vocabulary.frequency(vocabulary.term_of(i)) for i in range(len(vocabulary))],
        dtype=np.float64,
    )
    table = UnigramTable(counts)
    keep_probability = None
    if subsample is not None:
        frequency = counts / counts.sum()
        keep_probability = np.minimum(
            1.0, np.sqrt(subsample / frequency) + subsample / frequency
        )

    doc_vectors = (rng.random((len(doc_ids), dimension)) - 0.5) / dimension
    word_out = np.zeros((len(vocabulary), dimension))

    for epoch in range(epochs):
        alpha = learning_rate * (1.0 - epoch / epochs) + 1e-4
        for row, word_ids in enumerate(encoded):
            _pv_dbow_step(
                doc_vectors[row],
                word_ids,
                word_out,
                table,
                negatives,
                alpha,
                rng,
                keep_probability,
            )

    return Doc2Vec(
        vocabulary=vocabulary,
        doc_ids=doc_ids,
        doc_vectors=doc_vectors,
        word_out=word_out,
        negatives=negatives,
        _unigram_table=table,
    )
