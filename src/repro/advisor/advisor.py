"""The one-shot index advisor front end: workload in, recommendation out.

:class:`IndexAdvisor` is the original single-call facade, kept as a thin
compatibility layer: every ``recommend()`` now runs through a fresh
:class:`~repro.api.session.TuningSession` (the long-lived service API), so
both surfaces share one implementation of candidate generation, cache
construction and selection.  Long-lived callers -- repeated tuning requests,
incremental workload changes, warm caches -- should hold a session directly.

Behaviour is selected by name through the plain tables below
(:data:`COST_MODELS`, :data:`SELECTORS`, :data:`ENGINES`,
:data:`CANDIDATE_POLICIES`); :class:`AdvisorOptions` validates every name
*eagerly* at construction time, so a typo fails in milliseconds instead of
after minutes of cache construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.advisor.benefit import (
    ENGINES,  # noqa: F401 - owned by the model that evaluates on them; listed with the rest
    resolve_engine,
    validate_statement_weight,
)
from repro.advisor.candidates import per_query_candidate_policy, workload_candidate_policy
from repro.advisor.greedy import GreedySelector, SelectionStep
from repro.advisor.lazy_greedy import LazyGreedySelector
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.optimizer.optimizer import Optimizer
from repro.query.ast import Query
from repro.util.errors import AdvisorError, validate_name
from repro.util.units import format_bytes, gigabytes


class _Unset:
    """Sentinel for "the caller did not say" where ``None`` is meaningful."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNSET"


#: The "inherit the session's setting" sentinel.
UNSET = _Unset()


def validate_tuning_limits(
    space_budget_bytes: object = UNSET,
    ilp_gap: object = UNSET,
    ilp_time_limit: object = UNSET,
    window_statements: object = UNSET,
    drift_low_water: object = UNSET,
    drift_high_water: object = UNSET,
    horizon_statements: object = UNSET,
    max_candidates: object = UNSET,
    min_relative_benefit: object = UNSET,
) -> None:
    """Validate the numeric tuning limits shared by every request surface.

    One validation path for :class:`AdvisorOptions`,
    :class:`~repro.api.requests.RecommendRequest`,
    :meth:`~repro.api.session.TuningSession.set_budget`, the ILP
    selector/solver options and the online daemon's knobs
    (:class:`~repro.online.daemon.OnlineTunerConfig`, the serve ``watch_*``
    ops): the space budget must be strictly positive, the ILP gap and time
    limit non-negative (``ilp_time_limit=None`` = no limit), the candidate
    cap an integer >= 1 (``max_candidates=None`` = no cap), the selectors'
    stopping threshold ``min_relative_benefit`` a finite number >= 0, the
    sliding window and re-tune horizon strictly positive statement counts,
    and the drift thresholds a hysteresis band ``0 <= low < high <= 1``.  A
    field left at the :data:`UNSET` sentinel is not checked.
    Raises one :class:`~repro.util.errors.AdvisorError` listing *every*
    offending field.
    """
    problems = []

    def _number(value: object) -> bool:
        # bool is an int subclass: ``True`` must not pass as a 1-byte budget.
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    if space_budget_bytes is not UNSET:
        if not _number(space_budget_bytes) or not space_budget_bytes > 0:
            problems.append(f"space_budget_bytes must be > 0, got {space_budget_bytes!r}")
    if ilp_gap is not UNSET:
        if not _number(ilp_gap) or not math.isfinite(ilp_gap) or ilp_gap < 0:
            problems.append(f"ilp_gap must be a finite number >= 0, got {ilp_gap!r}")
    if ilp_time_limit is not UNSET and ilp_time_limit is not None:
        if not _number(ilp_time_limit) or math.isnan(ilp_time_limit) or ilp_time_limit < 0:
            problems.append(
                f"ilp_time_limit must be >= 0 seconds or None, got {ilp_time_limit!r}"
            )
    if max_candidates is not UNSET and max_candidates is not None:
        if (
            not isinstance(max_candidates, int)
            or isinstance(max_candidates, bool)
            or max_candidates < 1
        ):
            problems.append(
                f"max_candidates must be an integer >= 1 or None, got {max_candidates!r}"
            )
    if min_relative_benefit is not UNSET:
        if (
            not _number(min_relative_benefit)
            or not math.isfinite(min_relative_benefit)
            or min_relative_benefit < 0
        ):
            problems.append(
                "min_relative_benefit must be a finite number >= 0, got "
                f"{min_relative_benefit!r}"
            )
    if window_statements is not UNSET:
        if (
            not isinstance(window_statements, int)
            or isinstance(window_statements, bool)
            or window_statements <= 0
        ):
            problems.append(
                f"window_statements must be an integer > 0, got {window_statements!r}"
            )
    if horizon_statements is not UNSET:
        if (
            not _number(horizon_statements)
            or not math.isfinite(horizon_statements)
            or horizon_statements <= 0
        ):
            problems.append(
                f"horizon_statements must be > 0, got {horizon_statements!r}"
            )

    def _valid_water(value: object) -> bool:
        return _number(value) and math.isfinite(value) and 0.0 <= value <= 1.0

    if drift_low_water is not UNSET and not _valid_water(drift_low_water):
        problems.append(
            f"drift_low_water must be a number in [0, 1], got {drift_low_water!r}"
        )
    if drift_high_water is not UNSET and not _valid_water(drift_high_water):
        problems.append(
            f"drift_high_water must be a number in [0, 1], got {drift_high_water!r}"
        )
    if (
        drift_low_water is not UNSET
        and drift_high_water is not UNSET
        and _valid_water(drift_low_water)
        and _valid_water(drift_high_water)
        and not drift_low_water < drift_high_water
    ):
        problems.append(
            "drift thresholds must form a hysteresis band with "
            f"low < high, got low={drift_low_water!r} high={drift_high_water!r}"
        )
    if problems:
        raise AdvisorError("invalid tuning limits: " + "; ".join(problems))


# -- behaviour by name -------------------------------------------------------------


def _lazy_selector(catalog, cost_model, options: "AdvisorOptions"):
    return LazyGreedySelector(
        catalog, cost_model, options.space_budget_bytes, options.min_relative_benefit
    )


def _exhaustive_selector(catalog, cost_model, options: "AdvisorOptions"):
    return GreedySelector(
        catalog, cost_model, options.space_budget_bytes, options.min_relative_benefit
    )


def _ilp_selector(catalog, cost_model, options: "AdvisorOptions"):
    # First use: the solver package is loaded only by runs that ask for it.
    from repro.advisor.ilp.selector import IlpSelector

    return IlpSelector(
        catalog,
        cost_model,
        options.space_budget_bytes,
        options.min_relative_benefit,
        gap=options.ilp_gap,
        time_limit=options.ilp_time_limit,
    )


#: Benefit oracles by ``AdvisorOptions.cost_model`` name: the
#: :data:`~repro.inum.workload_builder.CACHE_BUILDERS` name that fills the
#: model's per-query plan caches, or ``None`` for the raw what-if optimizer
#: oracle.  A closed set: the session constructs each model itself.
COST_MODELS: Dict[str, Optional[str]] = {"pinum": "pinum", "inum": "inum", "optimizer": None}

#: Index-selection searches by ``AdvisorOptions.selector`` name: constructors
#: ``(catalog, cost_model, options)`` of an object with ``select(candidates)``
#: and ``statistics``.  A plain dict: a new selector is one assignment away.
SELECTORS: Dict[str, Callable] = {
    "lazy": _lazy_selector,
    "exhaustive": _exhaustive_selector,
    "ilp": _ilp_selector,
}

#: Candidate-generation policies by ``AdvisorOptions.candidate_policy`` name:
#: callables ``(generator, queries, max_candidates) -> CandidatePlan``.
CANDIDATE_POLICIES: Dict[str, Callable] = {
    "workload": workload_candidate_policy,
    "per_query": per_query_candidate_policy,
}


@dataclass(frozen=True)
class AdvisorOptions:
    """Configuration of one advisor run (and the defaults of a session).

    ``space_budget_bytes`` is the disk budget for the suggested indexes (the
    paper uses 5 GB against a 10 GB database).  ``cost_model`` selects the
    benefit oracle: ``"pinum"`` (default), ``"inum"`` or ``"optimizer"``.
    ``max_candidates`` optionally truncates the candidate set (keeping the
    generation order) to bound experiment running times.

    ``cache_dir`` points at a persistent
    :class:`~repro.inum.serialization.CacheStore` directory so caches are
    reused across advisor runs and invalidated when the catalog changes.

    ``selector`` picks the search: ``"lazy"`` (default, the CELF-style
    loop of :mod:`repro.advisor.lazy_greedy` -- identical picks, far fewer
    benefit evaluations), ``"exhaustive"`` (the paper's literal loop) or
    ``"ilp"`` (the CoPhy-style branch-and-bound solver of
    :mod:`repro.advisor.ilp` -- provably optimal within ``ilp_gap``, or the
    best-found selection with a proven gap when ``ilp_time_limit`` seconds
    run out; never worse than ``"lazy"``, whose picks warm-start it).
    ``engine`` picks how cache-backed models evaluate: ``"auto"`` or
    ``"arena"`` (default, the workload arena, vectorized with numpy when
    installed), ``"numpy"`` or ``"python"`` (the arena pinned to one
    backend) or ``"scalar"`` (the original per-slot walk).

    ``candidate_policy`` controls candidate generation: ``"workload"``
    (default, one workload-wide pool -- the paper's arrangement) or
    ``"per_query"`` (each query's cache covers only its own candidates,
    which makes session re-tuning after workload changes incremental).

    ``statement_weights`` maps statement names to execution frequencies for
    mixed read/write workloads (missing names default to 1.0): workload
    totals and the greedy search's net benefit are weighted sums, so a
    10x-weighted UPDATE charges 10x the index maintenance.  The mapping is
    normalised to a sorted tuple of pairs so options stay hashable and
    comparable.

    All names are keys of this module's tables and are validated here, at
    options-construction time; unknown names raise
    :class:`~repro.util.errors.AdvisorError` listing the registered choices.
    """

    space_budget_bytes: int = gigabytes(5)
    cost_model: str = "pinum"
    max_candidates: Optional[int] = None
    min_relative_benefit: float = 1e-4
    cache_dir: Optional[str] = None
    selector: str = "lazy"
    engine: str = "auto"
    candidate_policy: str = "workload"
    #: Fold the workload by template fingerprint before tuning
    #: (:mod:`repro.workloads.compress`): one weighted representative per
    #: statement template, so a 10k-instance trace costs dozens of cache
    #: builds.  Exact when instances of a template share their literals;
    #: a first-seen-representative approximation otherwise.
    compress: bool = False
    statement_weights: Optional[
        Union[Mapping[str, float], Tuple[Tuple[str, float], ...]]
    ] = None
    #: Relative optimality gap the ``"ilp"`` selector may stop at (0 =
    #: prove optimality) and its wall-clock budget in seconds (``None`` =
    #: unlimited).  Ignored by the greedy selectors.
    ilp_gap: float = 0.0
    ilp_time_limit: Optional[float] = 60.0

    def __post_init__(self) -> None:
        validate_tuning_limits(
            space_budget_bytes=self.space_budget_bytes,
            ilp_gap=self.ilp_gap,
            ilp_time_limit=self.ilp_time_limit,
            max_candidates=self.max_candidates,
            min_relative_benefit=self.min_relative_benefit,
        )
        validate_name("cost model", self.cost_model, COST_MODELS)
        validate_name("selector", self.selector, SELECTORS)
        validate_name("candidate policy", self.candidate_policy, CANDIDATE_POLICIES)
        if self.selector == "ilp" and COST_MODELS[self.cost_model] is None:
            raise AdvisorError(
                f"selector 'ilp' needs a cache-backed cost model, not "
                f"{self.cost_model!r}: the BIP is formulated over per-query "
                "plan caches"
            )
        # Engines also probe availability eagerly (e.g. engine="numpy"
        # without numpy installed), before recommend() pays for a whole
        # cache build only to have the cost model reject it afterwards.
        resolve_engine(self.engine)
        if self.statement_weights is not None:
            items = (
                self.statement_weights.items()
                if isinstance(self.statement_weights, Mapping)
                else self.statement_weights
            )
            normalised = [
                (str(name), validate_statement_weight(name, weight))
                for name, weight in items
            ]
            object.__setattr__(
                self, "statement_weights", tuple(sorted(normalised))
            )

    def weight_map(self) -> Dict[str, float]:
        """The statement weights as a plain dict (empty when unset)."""
        if self.statement_weights is None:
            return {}
        return dict(self.statement_weights)


@dataclass
class AdvisorResult:
    """Outcome of one advisor run."""

    selected_indexes: List[Index]
    steps: List[SelectionStep]
    candidate_count: int
    workload_cost_before: float
    workload_cost_after: float
    per_query_cost_before: Dict[str, float]
    per_query_cost_after: Dict[str, float]
    total_index_bytes: int
    preparation_optimizer_calls: int = 0
    preparation_seconds: float = 0.0
    selector: str = "lazy"
    #: The *resolved* evaluation backend ("numpy", "python", "scalar", or
    #: "optimizer" for the raw what-if oracle) -- not the requested option,
    #: so ``engine="auto"`` runs report what actually executed.
    engine: str = "scalar"
    selection_seconds: float = 0.0
    selection_candidate_evaluations: int = 0
    selection_query_evaluations: int = 0
    #: Candidates dropped before selection because their weighted
    #: index-maintenance cost provably dominates any read benefit (0 for
    #: pure-read workloads).
    candidates_pruned_for_writes: int = 0
    #: Proven relative optimality gap of the selection: 0.0 = proved
    #: optimal (the ILP selector closed its bound), a positive value = the
    #: solver was interrupted with that much room left, ``None`` = the
    #: selector is a heuristic with no bound (the greedy loops).
    optimality_gap: Optional[float] = None
    #: Branch-and-bound nodes the ILP selector expanded (0 otherwise).
    nodes_explored: int = 0
    #: Origin of the returned selection: "n/a" (greedy), "lazy-greedy" (the
    #: ILP warm start was never beaten) or "solver" (branch and bound
    #: improved on greedy).
    incumbent_source: str = "n/a"
    #: Workload-compression summary when the run tuned a template-folded
    #: view (``AdvisorOptions.compress`` / ``recommend --compress``):
    #: ``{"statements", "templates", "ratio", "total_weight", "lossless"}``
    #: from :meth:`repro.workloads.compress.CompressedWorkload.stats`;
    #: ``None`` for an uncompressed run.
    compression: Optional[Dict[str, object]] = None

    @property
    def improvement_fraction(self) -> float:
        """Fraction of the workload cost removed by the recommendation."""
        if self.workload_cost_before <= 0:
            return 0.0
        return 1.0 - self.workload_cost_after / self.workload_cost_before

    def optimality_gap_text(self) -> str:
        """The gap as one human-readable phrase (shared by CLI and serve)."""
        if self.optimality_gap is None:
            return "n/a (heuristic selector, no bound)"
        if self.optimality_gap <= 0.0:
            return "0.00% (proved optimal)"
        return f"{self.optimality_gap * 100.0:.2f}% (solver interrupted)"

    def summary(self) -> str:
        """A short human-readable report."""
        lines = [
            f"candidates considered : {self.candidate_count}",
            f"indexes selected      : {len(self.selected_indexes)}",
            f"total index size      : {format_bytes(self.total_index_bytes)}",
            f"workload cost         : {self.workload_cost_before:.1f} -> "
            f"{self.workload_cost_after:.1f} "
            f"({self.improvement_fraction * 100.0:.1f}% improvement)",
            f"selection phase       : {self.selection_seconds:.2f}s, "
            f"{self.selection_candidate_evaluations} candidate evaluations "
            f"({self.selector} selector, {self.engine} engine)",
            f"optimality gap        : {self.optimality_gap_text()}",
        ]
        if self.selector == "ilp":
            lines.append(
                f"ilp solver            : {self.nodes_explored} nodes explored, "
                f"incumbent from {self.incumbent_source}"
            )
        if self.candidates_pruned_for_writes:
            lines.append(
                f"write-dominated       : {self.candidates_pruned_for_writes} "
                "candidates pruned (maintenance cost exceeds any read benefit)"
            )
        if self.compression is not None:
            lines.append(
                f"workload compression  : {self.compression['statements']} statements "
                f"-> {self.compression['templates']} templates "
                f"({self.compression['ratio']:.1f}x, "
                f"{'exact' if self.compression['lossless'] else 'approximate'})"
            )
        for index in self.selected_indexes:
            lines.append(f"  - {index.table}({', '.join(index.columns)})")
        return "\n".join(lines)


class IndexAdvisor:
    """The complete index-selection tool of Section V-E (one-shot facade)."""

    def __init__(
        self,
        catalog: Catalog,
        optimizer: Optimizer,
        options: Optional[AdvisorOptions] = None,
    ) -> None:
        self._catalog = catalog
        self._optimizer = optimizer
        # AdvisorOptions validates its names in __post_init__, so a default
        # construction here is already checked.
        self._options = options or AdvisorOptions()

    def recommend(
        self,
        workload: Sequence[Query],
        candidates: Optional[Sequence[Index]] = None,
    ) -> AdvisorResult:
        """Recommend an index set for ``workload`` within the space budget.

        Each call runs a fresh single-request
        :class:`~repro.api.session.TuningSession`, preserving the original
        one-shot semantics (nothing is kept warm between calls).
        """
        # Imported here: the session module builds on this one.
        from repro.api.requests import RecommendRequest
        from repro.api.session import TuningSession

        session = TuningSession(
            self._catalog,
            workload,
            options=self._options,
            optimizer=self._optimizer,
        )
        return session.recommend(RecommendRequest(candidates=candidates)).result
