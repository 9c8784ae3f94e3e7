"""Streaming large-corpus generation and bulk ingestion.

The checked-in benchmarks historically ran on toy corpora (50k synthetic
documents, 76 unique terms). This module provides the large-workload
path:

* :func:`stream_corpus` — a deterministic, seedable generator yielding
  :class:`~repro.index.document.Document` records one at a time with
  realistic Zipfian term statistics (tens of thousands of unique
  pseudo-words whose rank–frequency curve follows ``1/rank^s``), so
  500k–1M-document corpora never materialise in memory;
* :func:`load_trec_covid` — a loader for real TREC-COVID-style dumps
  (``metadata.csv`` or JSONL) that streams records off disk when a dump
  is present and falls back to a covid-flavoured synthetic stream
  otherwise, keeping every benchmark offline-safe;
* :func:`stream_ingest` — chunked bulk ingestion of any document
  iterable into an :class:`~repro.index.inverted.InvertedIndex` or
  :class:`~repro.index.sharding.ShardedIndex` through the index's one
  serial ``add_documents`` path, recording wall-clock, throughput, and
  resident-set numbers (:class:`IngestReport`) so the "peak RSS
  bounded" claim in ``BENCH_large_eval.json`` is measured, not
  asserted.

Determinism: for a fixed seed and generator parameters the document
stream is byte-identical run to run and independent of how consumers
chunk it (the internal sampling batch is a fixed constant).
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.index.document import Document
from repro.utils.validation import require, require_positive

#: Environment variable naming a real TREC-COVID dump on disk.
TREC_COVID_ENV = "REPRO_TREC_COVID"

#: Internal sampling batch — fixed so consumer-side chunking can never
#: change the stream (documents are drawn batch-by-batch from one rng).
_SAMPLE_BATCH = 1024

# Pseudo-word syllables. Vowels avoid ``e`` and codas avoid ``s`` so the
# Porter stemmer leaves generated words alone (no accidental vocabulary
# merges distorting the Zipf curve).
_CONSONANTS = "b d f g k l m n p r t v z".split()
_VOWELS = "a i o u".split()
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)

#: Head-of-vocabulary terms for the covid-flavoured fallback stream.
COVID_SEED_TERMS = (
    "virus", "covid", "vaccine", "hospital", "patients", "infection",
    "doctors", "symptoms", "quarantine", "epidemic", "outbreak", "clinic",
    "antibody", "transmission", "respirator", "lockdown", "testing",
    "immunity", "variant", "pandemic",
)


def _pseudo_word(ordinal: int) -> str:
    """A unique pronounceable pseudo-word for vocabulary rank ``ordinal``."""
    base = len(_SYLLABLES)
    parts = [_SYLLABLES[ordinal % base]]
    ordinal //= base
    while ordinal:
        parts.append(_SYLLABLES[ordinal % base])
        ordinal //= base
    while len(parts) < 2:  # at least two syllables: never a stopword
        parts.append(_SYLLABLES[0])
    return "".join(reversed(parts))


@dataclass(frozen=True)
class ZipfianVocabulary:
    """A ranked vocabulary with Zipfian sampling weights.

    ``terms[0]`` is the most frequent term; term ``r`` is sampled with
    probability proportional to ``1 / (r + 1) ** exponent``. Sampling
    uses the precomputed cumulative distribution (`searchsorted`), so
    drawing millions of terms is a vectorised O(n log V) pass.
    """

    terms: tuple[str, ...]
    exponent: float
    cumulative: np.ndarray

    @classmethod
    def build(
        cls,
        size: int,
        exponent: float = 1.07,
        head_terms: tuple[str, ...] = (),
    ) -> "ZipfianVocabulary":
        """Build a ``size``-term vocabulary; ``head_terms`` (deduplicated)
        occupy the most-frequent ranks and pseudo-words fill the rest."""
        require_positive(size, "size")
        require(exponent > 0, "exponent must be positive")
        head = tuple(dict.fromkeys(head_terms))[:size]
        generated: list[str] = []
        taken = set(head)
        ordinal = 0
        while len(head) + len(generated) < size:
            word = _pseudo_word(ordinal)
            ordinal += 1
            if word in taken:
                continue
            generated.append(word)
        terms = head + tuple(generated)
        weights = 1.0 / np.power(np.arange(1, size + 1, dtype=np.float64), exponent)
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0  # guard float drift at the tail
        return cls(terms=terms, exponent=exponent, cumulative=cumulative)

    def __len__(self) -> int:
        return len(self.terms)

    def sample_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` term ranks from the Zipf distribution."""
        return np.searchsorted(self.cumulative, rng.random(count), side="right")


def stream_corpus(
    size: int,
    *,
    seed: int = 0,
    vocabulary: ZipfianVocabulary | None = None,
    vocabulary_size: int = 30_000,
    zipf_exponent: float = 1.07,
    sentences_per_doc: tuple[int, int] = (3, 8),
    terms_per_sentence: tuple[int, int] = (4, 9),
    prefix: str = "zipf",
    with_priors: bool = False,
) -> Iterator[Document]:
    """Yield ``size`` deterministic documents with Zipfian term statistics.

    Documents are generated lazily in fixed internal batches — peak
    memory is O(batch), never O(corpus) — so the stream can be piped
    straight into :func:`stream_ingest` at 500k+ documents.

    ``with_priors`` attaches ``popularity``/``freshness``/``authority``
    metadata (the LETOR mutable priors), making streamed corpora usable
    by feature-based rankers without a second enrichment pass.
    """
    require_positive(size, "size")
    low_s, high_s = sentences_per_doc
    require(1 <= low_s <= high_s, "sentences_per_doc must be a valid range")
    low_t, high_t = terms_per_sentence
    require(1 <= low_t <= high_t, "terms_per_sentence must be a valid range")
    vocab = vocabulary or ZipfianVocabulary.build(
        vocabulary_size, exponent=zipf_exponent
    )
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < size:
        batch = min(_SAMPLE_BATCH, size - produced)
        sentence_counts = rng.integers(low_s, high_s + 1, size=batch)
        sentence_lengths = rng.integers(
            low_t, high_t + 1, size=int(sentence_counts.sum())
        )
        term_ranks = vocab.sample_indices(rng, int(sentence_lengths.sum()))
        priors = rng.beta(2, 2, size=(batch, 3)) if with_priors else None
        term_cursor = 0
        sentence_cursor = 0
        for position in range(batch):
            ordinal = produced + position
            sentences = []
            for _ in range(int(sentence_counts[position])):
                length = int(sentence_lengths[sentence_cursor])
                sentence_cursor += 1
                words = [
                    vocab.terms[int(rank)]
                    for rank in term_ranks[term_cursor:term_cursor + length]
                ]
                term_cursor += length
                sentence = " ".join(words)
                sentences.append(sentence[0].upper() + sentence[1:] + ".")
            title_rank = int(term_ranks[term_cursor - 1])
            metadata: dict = {"source": prefix}
            if priors is not None:
                metadata.update(
                    popularity=round(float(priors[position][0]), 3),
                    freshness=round(float(priors[position][1]), 3),
                    authority=round(float(priors[position][2]), 3),
                )
            yield Document(
                doc_id=f"{prefix}-{ordinal:07d}",
                body=" ".join(sentences),
                title=f"{vocab.terms[title_rank]} report {ordinal}",
                metadata=metadata,
            )
        produced += batch


def sample_stream_queries(
    count: int,
    *,
    vocabulary: ZipfianVocabulary,
    seed: int = 0,
    rank_band: tuple[int, int] = (32, 2048),
    terms_per_query: tuple[int, int] = (1, 3),
) -> list[str]:
    """Sample queries from a vocabulary's mid-frequency band.

    Mirrors :func:`repro.datasets.queries.sample_queries` without
    materialising any documents: head ranks are too common to be
    informative and tail ranks may match nothing, so queries draw from
    ``rank_band`` — informative terms that still have plenty of
    matching documents under the Zipf curve.
    """
    require_positive(count, "count")
    low, high = terms_per_query
    require(1 <= low <= high, "terms_per_query must be a valid range")
    band_low, band_high = rank_band
    band_high = min(band_high, len(vocabulary) - 1)
    require(0 <= band_low < band_high, "rank_band must be a valid range")
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        size = int(rng.integers(low, high + 1))
        ranks = rng.choice(
            np.arange(band_low, band_high + 1), size=size, replace=False
        )
        queries.append(" ".join(vocabulary.terms[int(rank)] for rank in ranks))
    return queries


# -- TREC-COVID-style adapter --------------------------------------------------


def _stream_trec_covid_csv(path: Path, limit: int | None) -> Iterator[Document]:
    seen: set[str] = set()
    with path.open("r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            doc_id = (row.get("cord_uid") or row.get("doc_id") or "").strip()
            body = (row.get("abstract") or row.get("body") or "").strip()
            if not doc_id or not body or doc_id in seen:
                continue
            seen.add(doc_id)
            yield Document(
                doc_id=doc_id,
                body=body,
                title=(row.get("title") or "").strip(),
                metadata={"source": "trec-covid"},
            )
            if limit is not None and len(seen) >= limit:
                return


def _stream_trec_covid_jsonl(path: Path, limit: int | None) -> Iterator[Document]:
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            doc_id = str(
                record.get("doc_id") or record.get("cord_uid") or record.get("_id") or ""
            ).strip()
            body = str(
                record.get("body") or record.get("abstract") or record.get("text") or ""
            ).strip()
            if not doc_id or not body or doc_id in seen:
                continue
            seen.add(doc_id)
            yield Document(
                doc_id=doc_id,
                body=body,
                title=str(record.get("title") or "").strip(),
                metadata={"source": "trec-covid"},
            )
            if limit is not None and len(seen) >= limit:
                return


def load_trec_covid(
    path: str | Path | None = None,
    *,
    limit: int | None = None,
    seed: int = 0,
    with_priors: bool = False,
) -> Iterator[Document]:
    """Stream a TREC-COVID-style corpus; offline-safe.

    When ``path`` (or the :data:`TREC_COVID_ENV` environment variable)
    names an existing dump — CORD-19's ``metadata.csv`` or a JSONL file
    with ``doc_id``/``title``/``abstract``-shaped records — documents
    stream straight off disk, deduplicated by id, empty abstracts
    skipped. Otherwise the loader falls back to a deterministic
    covid-flavoured Zipfian stream (:data:`COVID_SEED_TERMS` occupy the
    vocabulary head) of ``limit`` documents, so offline environments
    exercise the identical code path at any scale.
    """
    if limit is not None:
        require_positive(limit, "limit")
    resolved = path or os.environ.get(TREC_COVID_ENV)
    if resolved:
        dump = Path(resolved)
        if dump.exists():
            if dump.suffix.lower() == ".csv":
                return _stream_trec_covid_csv(dump, limit)
            return _stream_trec_covid_jsonl(dump, limit)
        if path is not None:
            raise FileNotFoundError(f"TREC-COVID dump not found: {dump}")
    vocabulary = ZipfianVocabulary.build(
        30_000, exponent=1.07, head_terms=COVID_SEED_TERMS
    )
    return stream_corpus(
        limit if limit is not None else 50_000,
        seed=seed,
        vocabulary=vocabulary,
        prefix="trec-covid-syn",
        with_priors=with_priors,
    )


# -- chunked streaming ingestion ----------------------------------------------


def _current_rss_mb() -> float:
    """Resident set size of this process in MiB (Linux /proc, else 0)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return 0.0


def _peak_rss_mb() -> float:
    """Lifetime peak resident set size in MiB (``ru_maxrss``)."""
    import resource

    # Linux reports kilobytes; macOS reports bytes.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 if os.uname().sysname != "Darwin" else 1024.0 * 1024.0
    return round(peak / divisor, 1)


@dataclass(frozen=True)
class IngestReport:
    """Measured outcome of one :func:`stream_ingest` run."""

    documents: int
    chunks: int
    chunk_size: int
    elapsed_seconds: float
    docs_per_second: float
    rss_before_mb: float
    rss_after_mb: float
    peak_rss_mb: float

    def to_dict(self) -> dict:
        return {
            "documents": self.documents,
            "chunks": self.chunks,
            "chunk_size": self.chunk_size,
            "elapsed_seconds": self.elapsed_seconds,
            "docs_per_second": self.docs_per_second,
            "rss_before_mb": self.rss_before_mb,
            "rss_after_mb": self.rss_after_mb,
            "peak_rss_mb": self.peak_rss_mb,
        }


def stream_ingest(
    index,
    documents: Iterable[Document],
    *,
    chunk_size: int = 5_000,
    progress: Callable[[int, IngestReport | None], None] | None = None,
) -> IngestReport:
    """Bulk-ingest a document stream into ``index`` chunk by chunk.

    Only one chunk is ever materialised: the stream is sliced into
    ``chunk_size``-document batches and each batch goes through the
    index's all-or-nothing ``add_documents``, so corpus size is bounded
    by the index, not the loader. ``progress`` (if given) is called with
    the running document count after every chunk.

    Returns an :class:`IngestReport` with wall-clock, throughput, and
    resident-set-size measurements.
    """
    require_positive(chunk_size, "chunk_size")
    rss_before = _current_rss_mb()
    iterator = iter(documents)
    total = 0
    chunks = 0
    started = time.perf_counter()
    while True:
        chunk = list(itertools.islice(iterator, chunk_size))
        if not chunk:
            break
        index.add_documents(chunk)
        total += len(chunk)
        chunks += 1
        if progress is not None:
            progress(total, None)
    elapsed = time.perf_counter() - started
    return IngestReport(
        documents=total,
        chunks=chunks,
        chunk_size=chunk_size,
        elapsed_seconds=round(elapsed, 3),
        docs_per_second=round(total / elapsed, 1) if elapsed > 0 else 0.0,
        rss_before_mb=rss_before,
        rss_after_mb=_current_rss_mb(),
        peak_rss_mb=_peak_rss_mb(),
    )
