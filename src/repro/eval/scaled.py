"""The scaled study runner: the full quality grid over one corpus.

:mod:`repro.eval.harness` sweeps one explainer at a time; the
large-corpus evaluation needs the whole matrix — every ranker × every
registered explanation strategy × every counterfactual search strategy —
run over the *same* shared index, with per-cell quality metrics that CI
can gate on:

* **success rate** — fraction of instances for which the explainer
  found at least one counterfactual;
* **fidelity** — fraction of produced explanations whose flip the
  engine independently confirms (:mod:`repro.eval.fidelity`);
* **minimality** — mean explanation size (sentences removed / terms
  added / features changed);
* **plausibility** — mean perplexity ratio of perturbed to original
  text under the corpus language model (body-editing strategies only);
* **cost** — mean candidates evaluated and logical ranker calls per
  explanation request.

Cells fan out over the process tier when the spec asks for it
(``executor="process"``) and the engine is eligible (its ranker is
config-derived); explicit-ranker engines (LTR) run sequentially and the
cell records which tier actually ran. Metric values are byte-identical
across tiers — :meth:`StudyReport.comparable_dict` strips the
timing/tier fields so the equivalence is testable as exact JSON
equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import mean
from typing import Callable, Sequence

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.core.registry import DEFAULT_REGISTRY
from repro.core.search import SEARCH_STRATEGIES
from repro.errors import ConfigurationError
from repro.eval.cf_metrics import summarize_runs
from repro.eval.fidelity import recheck_explanation
from repro.eval.harness import StudyFailure, rankable_instances
from repro.eval.plausibility import CorpusLanguageModel
from repro.eval.reporting import Table
from repro.utils.timing import timed
from repro.utils.validation import require, require_positive

#: Ranker grid names: the four config-derived rankers plus the explicit
#: LTR ranker (trained on the study corpus; sequential-only — the
#: process tier cannot rebuild an explicit ranker object in a worker).
SCALED_RANKERS = ("bm25", "tfidf", "lm", "neural", "ltr")


@dataclass(frozen=True)
class StudySpec:
    """Everything that parameterises one scaled study run.

    The spec is data, not behaviour: two runs with equal specs over the
    same corpus produce equal :meth:`StudyReport.comparable_dict`
    payloads regardless of execution tier.
    """

    queries: tuple[str, ...]
    rankers: tuple[str, ...] = ("bm25",)
    strategies: tuple[str, ...] = ()  # () = every registered strategy
    searches: tuple[str, ...] = SEARCH_STRATEGIES
    per_query: int = 2
    k: int = 5
    n: int = 1
    threshold: int = 3
    samples: int = 25
    budget: int | None = None
    beam_width: int = 5
    executor: str | None = None  # None = sequential, "process" = fan out
    seed: int = 13
    training_queries: tuple[str, ...] = ()  # neural/LTR supervision
    doc2vec_dimension: int = 32
    doc2vec_epochs: int = 30
    neural_epochs: int = 10
    fidelity_sample: int | None = None  # cap engine rechecks per cell

    def __post_init__(self):
        require(bool(self.queries), "queries must be non-empty")
        require(bool(self.rankers), "rankers must be non-empty")
        for ranker in self.rankers:
            require(
                ranker in SCALED_RANKERS,
                f"ranker must be one of {SCALED_RANKERS}, got {ranker!r}",
            )
        for search in self.searches:
            require(
                search in SEARCH_STRATEGIES,
                f"search must be one of {SEARCH_STRATEGIES}, got {search!r}",
            )
        require(
            self.executor in (None, "process"),
            f'executor must be None or "process", got {self.executor!r}',
        )
        require_positive(self.per_query, "per_query")
        require_positive(self.k, "k")
        require_positive(self.n, "n")
        if self.fidelity_sample is not None:
            require_positive(self.fidelity_sample, "fidelity_sample")

    def resolved_strategies(self) -> tuple[str, ...]:
        return self.strategies or DEFAULT_REGISTRY.names()

    def to_dict(self) -> dict:
        return {
            "queries": list(self.queries),
            "rankers": list(self.rankers),
            "strategies": list(self.resolved_strategies()),
            "searches": list(self.searches),
            "per_query": self.per_query,
            "k": self.k,
            "n": self.n,
            "threshold": self.threshold,
            "samples": self.samples,
            "budget": self.budget,
            "beam_width": self.beam_width,
            "seed": self.seed,
        }


@dataclass
class CellResult:
    """One (ranker × strategy × search) cell of the study grid."""

    ranker: str
    strategy: str
    search: str
    status: str  # "ok" | "unavailable"
    tier: str  # "sequential" | "process" | "-"
    requests: int = 0
    found: int = 0
    success_rate: float = 0.0
    fidelity: float = 0.0
    mean_size: float = 0.0
    mean_candidates: float = 0.0
    mean_ranker_calls: float = 0.0
    plausibility: float | None = None
    budget_exhausted: int = 0
    failures: list[StudyFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    detail: str = ""

    @property
    def errors(self) -> int:
        return len(self.failures)

    def to_dict(self, comparable: bool = False) -> dict:
        """Cell payload; ``comparable=True`` drops the fields that vary
        between byte-identical runs (wall clock and execution tier)."""
        payload = {
            "ranker": self.ranker,
            "strategy": self.strategy,
            "search": self.search,
            "status": self.status,
            "requests": self.requests,
            "found": self.found,
            "success_rate": round(self.success_rate, 6),
            "fidelity": round(self.fidelity, 6),
            "mean_size": round(self.mean_size, 6),
            "mean_candidates": round(self.mean_candidates, 6),
            "mean_ranker_calls": round(self.mean_ranker_calls, 6),
            "plausibility": (
                None if self.plausibility is None else round(self.plausibility, 6)
            ),
            "budget_exhausted": self.budget_exhausted,
            "errors": self.errors,
            "failures": [failure.to_dict() for failure in self.failures],
            "detail": self.detail,
        }
        if not comparable:
            payload["tier"] = self.tier
            payload["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        return payload


@dataclass(frozen=True)
class QualityFloors:
    """CF-quality gates applied to study cells; ``None`` = not asserted.

    * ``min_success_rate`` / ``min_fidelity`` — floors on the fraction
      of instances explained and engine-confirmed;
    * ``max_mean_size`` — minimality ceiling (mean perturbation size);
    * ``max_mean_candidates`` — bounded search cost per explanation
      request (the paper's "cheap to find" claim).
    """

    min_success_rate: float | None = None
    min_fidelity: float | None = None
    max_mean_size: float | None = None
    max_mean_candidates: float | None = None

    def to_dict(self) -> dict:
        return {
            "min_success_rate": self.min_success_rate,
            "min_fidelity": self.min_fidelity,
            "max_mean_size": self.max_mean_size,
            "max_mean_candidates": self.max_mean_candidates,
        }

    def check(self, cell: CellResult) -> list[str]:
        """Violation messages for one cell (empty = cell passes)."""
        label = f"{cell.ranker}/{cell.strategy}/{cell.search}"
        violations = []
        if (
            self.min_success_rate is not None
            and cell.success_rate < self.min_success_rate
        ):
            violations.append(
                f"{label}: success rate {cell.success_rate:.3f} "
                f"< floor {self.min_success_rate:.3f}"
            )
        if self.min_fidelity is not None and cell.fidelity < self.min_fidelity:
            violations.append(
                f"{label}: fidelity {cell.fidelity:.3f} "
                f"< floor {self.min_fidelity:.3f}"
            )
        if self.max_mean_size is not None and cell.mean_size > self.max_mean_size:
            violations.append(
                f"{label}: mean size {cell.mean_size:.3f} "
                f"> ceiling {self.max_mean_size:.3f}"
            )
        if (
            self.max_mean_candidates is not None
            and cell.mean_candidates > self.max_mean_candidates
        ):
            violations.append(
                f"{label}: mean candidates {cell.mean_candidates:.3f} "
                f"> ceiling {self.max_mean_candidates:.3f}"
            )
        return violations


CELL_HEADERS = (
    "ranker", "strategy", "search", "tier", "requests", "success",
    "fidelity", "size", "candidates", "errors", "seconds",
)


@dataclass
class StudyReport:
    """The aggregated grid of one scaled study run."""

    spec: StudySpec
    cells: list[CellResult] = field(default_factory=list)

    def cell(self, ranker: str, strategy: str, search: str) -> CellResult:
        for cell in self.cells:
            if (cell.ranker, cell.strategy, cell.search) == (
                ranker, strategy, search,
            ):
                return cell
        raise KeyError(f"no cell ({ranker}, {strategy}, {search})")

    def ok_cells(self) -> list[CellResult]:
        return [cell for cell in self.cells if cell.status == "ok"]

    def violations(
        self,
        floors: QualityFloors,
        rankers: Sequence[str] | None = None,
        strategies: Sequence[str] | None = None,
    ) -> list[str]:
        """Floor violations over the selected ``ok`` cells."""
        messages = []
        for cell in self.ok_cells():
            if rankers is not None and cell.ranker not in rankers:
                continue
            if strategies is not None and cell.strategy not in strategies:
                continue
            if cell.requests == 0:
                continue
            messages.extend(floors.check(cell))
        return messages

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def comparable_dict(self) -> dict:
        """The report without wall-clock/tier fields: two runs of the
        same spec over the same corpus — sequential or process-tier —
        must produce *equal* payloads (pinned by test)."""
        return {
            "spec": self.spec.to_dict(),
            "cells": [cell.to_dict(comparable=True) for cell in self.cells],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.comparable_dict(), sort_keys=True)

    def table(self, title: str = "scaled study") -> Table:
        table = Table(list(CELL_HEADERS), title=title)
        for cell in self.cells:
            if cell.status != "ok":
                table.add(
                    cell.ranker, cell.strategy, cell.search, "-",
                    0, "-", "-", "-", "-", 0, 0.0,
                )
                continue
            table.add(
                cell.ranker,
                cell.strategy,
                cell.search,
                cell.tier,
                cell.requests,
                f"{cell.success_rate:.0%}",
                f"{cell.fidelity:.0%}",
                cell.mean_size,
                cell.mean_candidates,
                cell.errors,
                cell.elapsed_seconds,
            )
        return table

    def render_table(self, title: str = "scaled study") -> str:
        return self.table(title).render()

    def render_markdown(self, title: str = "scaled study") -> str:
        return self.table(title).render_markdown()


def build_study_engines(
    index, spec: StudySpec
) -> dict[str, CredenceEngine]:
    """One engine per spec ranker, all sharing ``index``.

    The config-derived rankers (bm25/tfidf/lm/neural) build through
    :class:`EngineConfig` so the process tier can rebuild them in worker
    processes. ``"ltr"`` trains a :class:`~repro.ltr.ranker.LtrRanker`
    on the corpus itself (synthetic LETOR judgments over the spec's
    training queries) and passes it explicitly — that engine is
    sequential-only by construction.
    """
    training = tuple(spec.training_queries or spec.queries)
    engines: dict[str, CredenceEngine] = {}
    for name in spec.rankers:
        if name == "ltr":
            from repro.ltr import LinearLtrModel, LtrRanker, synthetic_letor_dataset

            examples = synthetic_letor_dataset(
                list(index), list(training), seed=spec.seed
            )
            engines[name] = CredenceEngine.from_index(
                index, ranker=LtrRanker(index, LinearLtrModel.fit(examples))
            )
            continue
        config = EngineConfig(
            ranker=name,
            training_queries=training if name == "neural" else (),
            seed=spec.seed,
            doc2vec_dimension=spec.doc2vec_dimension,
            doc2vec_epochs=spec.doc2vec_epochs,
            neural_epochs=spec.neural_epochs,
        )
        engines[name] = CredenceEngine.from_index(index, config=config)
    return engines


def _cell_fidelity(engine, explanations, cap: int | None, k: int) -> float:
    checked = explanations if cap is None else explanations[:cap]
    if not checked:
        return 0.0
    confirmed = sum(
        1
        for explanation in checked
        if recheck_explanation(engine, explanation, k=k).valid
    )
    return confirmed / len(checked)


def _cell_plausibility(engine, model, explanations) -> float | None:
    ratios = []
    for explanation in explanations:
        perturbed = getattr(explanation, "perturbed_body", None)
        if perturbed is None:
            continue
        original = engine.index.document(explanation.doc_id).body
        ratio = model.plausibility_ratio(original, perturbed)
        if ratio != float("inf"):
            ratios.append(ratio)
    return mean(ratios) if ratios else None


def run_cell(
    engine: CredenceEngine,
    strategy: str,
    search: str,
    instances,
    spec: StudySpec,
    language_model: CorpusLanguageModel | None = None,
) -> CellResult:
    """Run one grid cell: ``strategy`` × ``search`` over ``instances``."""
    reason = engine.registry.resolve(strategy).unavailable_reason(engine)
    ranker_name = getattr(engine.config, "ranker", "?")
    if not engine.ranker_from_config:
        ranker_name = "ltr"
    if reason is not None:
        return CellResult(
            ranker=ranker_name,
            strategy=strategy,
            search=search,
            status="unavailable",
            tier="-",
            detail=reason,
        )
    requests = [
        ExplainRequest(
            instance.query,
            instance.doc_id,
            strategy=strategy,
            n=spec.n,
            k=spec.k,
            threshold=spec.threshold,
            samples=spec.samples,
            search=search,
            beam_width=spec.beam_width,
            budget=spec.budget,
        )
        for instance in instances
    ]
    # The process tier rebuilds rankers from EngineConfig in workers; an
    # explicit-ranker engine cannot cross that boundary and runs the
    # cell sequentially — recorded honestly in ``tier``.
    tier = (
        "process"
        if spec.executor == "process" and engine.ranker_from_config
        else "sequential"
    )
    with timed() as elapsed:
        if tier == "process":
            responses = engine.explain_batch(requests, executor="process")
        else:
            responses = engine.explain_batch(requests)
    runs, failures = [], []
    for request, response in zip(requests, responses):
        if response.ok:
            runs.append(response.result)
        else:
            failures.append(
                StudyFailure(
                    query=request.query,
                    doc_id=request.doc_id,
                    error=response.error,
                )
            )
    stats = summarize_runs(runs)
    explanations = [
        explanation for run in runs for explanation in run.explanations
    ]
    return CellResult(
        ranker=ranker_name,
        strategy=strategy,
        search=search,
        status="ok",
        tier=tier,
        requests=len(requests),
        found=stats.found,
        success_rate=stats.success_rate,
        fidelity=_cell_fidelity(
            engine, explanations, spec.fidelity_sample, spec.k
        ),
        mean_size=stats.mean_size,
        mean_candidates=stats.mean_candidates,
        mean_ranker_calls=stats.mean_ranker_calls,
        plausibility=(
            _cell_plausibility(engine, language_model, explanations)
            if language_model is not None
            else None
        ),
        budget_exhausted=sum(1 for run in runs if run.budget_exhausted),
        failures=failures,
        elapsed_seconds=elapsed(),
    )


def run_scaled_study(
    index,
    spec: StudySpec,
    engines: dict[str, CredenceEngine] | None = None,
    progress: Callable[[str], None] | None = None,
) -> StudyReport:
    """Run the full (ranker × strategy × search) grid over ``index``.

    ``engines`` may be passed pre-built (reusing trained neural/LTR
    models across runs — the process-tier equivalence test does this);
    otherwise :func:`build_study_engines` constructs them. Instances are
    sampled per ranker from its own ranking (the bottom ``per_query``
    documents of each query's top-``k``), so every cell of one ranker's
    row explains the same instances.
    """
    if engines is None:
        engines = build_study_engines(index, spec)
    missing = [name for name in spec.rankers if name not in engines]
    if missing:
        raise ConfigurationError(f"no engine built for ranker(s): {missing}")
    language_model = CorpusLanguageModel(index)
    report = StudyReport(spec=spec)
    for ranker_name in spec.rankers:
        engine = engines[ranker_name]
        instances = rankable_instances(
            engine, list(spec.queries), k=spec.k, per_query=spec.per_query
        )
        for strategy in spec.resolved_strategies():
            for search in spec.searches:
                if progress is not None:
                    progress(f"{ranker_name} × {strategy} × {search}")
                report.cells.append(
                    run_cell(
                        engine,
                        strategy,
                        search,
                        instances,
                        spec,
                        language_model,
                    )
                )
    return report
