"""Workload cost models: the advisor's benefit oracle.

The greedy search asks one question over and over: *what does the workload
cost if this index set exists?*  Three interchangeable answers are provided:

* :class:`OptimizerWorkloadCostModel` -- ask the optimizer a what-if question
  per query per evaluation (the pre-INUM approach, slowest but exact),
* :class:`CacheBackedWorkloadCostModel` with ``mode="inum"`` -- arithmetic
  over classically-built INUM caches (the baseline), and
* :class:`CacheBackedWorkloadCostModel` with ``mode="pinum"`` -- the paper's
  configuration: same arithmetic, caches built 5-10x faster.

The cache-backed model never builds a cache of its own accord: it is
constructed over caches its caller already acquired (a session through
:meth:`repro.api.tier.PlanCachePool.acquire`; a test or benchmark through
the standalone :meth:`CacheBackedWorkloadCostModel.build` helper).  It
evaluates through one kernel, the fused
:class:`~repro.inum.arena.WorkloadArena` (numpy when installed, pure Python
otherwise); ``engine="scalar"`` swaps in the per-slot
:class:`~repro.inum.cost_estimation.InumCostModel` walk, the reference
oracle tests and benchmark checks compare the kernel against.
:class:`IncrementalWorkloadEvaluator` is what the selectors score
candidates through: one batched arena call per frontier, or -- for models
without an arena (the scalar oracle, the raw optimizer) -- a delta
re-evaluation of only the queries whose tables a candidate touches.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

from repro.catalog.index import Index
from repro.inum.arena import WorkloadArena, arena_fingerprint, compile_arena
from repro.inum.cache import InumCache
from repro.inum.compiled import numpy_available
from repro.inum.cost_estimation import InumCostModel
from repro.inum.workload_builder import build_one_cache
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache, WhatIfOptimizer
from repro.query.ast import Query
from repro.util.errors import AdvisorError, validate_name
from repro.util.fingerprint import configuration_signature, query_fingerprint
from repro.util.timing import timed

if TYPE_CHECKING:  # pragma: no cover - repro.api.tier imports the builders this module uses
    from repro.api.tier import LocalPool


def validate_statement_weight(name: str, value: object, label: str = "statement weight") -> float:
    """Coerce one execution-frequency weight, raising on anything unusable.

    The single validation path for weights arriving from options, request
    payloads or serve clients: numeric, finite, non-negative.
    """
    try:
        weight = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise AdvisorError(
            f"{label} for {name!r} must be a number, got {value!r}"
        ) from None
    if not math.isfinite(weight) or weight < 0.0:
        raise AdvisorError(
            f"{label} for {name!r} must be finite and >= 0, got {weight}"
        )
    return weight


#: Evaluation engines by ``AdvisorOptions.engine`` name: the
#: :class:`~repro.inum.arena.WorkloadArena` backend the model evaluates on
#: -- ``"auto"`` = numpy when installed, else pure Python -- or ``None`` for
#: the scalar reference oracle (the original per-slot walk tests and
#: benchmark checks compare the kernel against).  A closed set: the arena
#: must implement every backend named here.
ENGINES: Dict[str, Optional[str]] = {
    "auto": "auto",
    "arena": "auto",
    "numpy": "numpy",
    "python": "python",
    "scalar": None,
}


def resolve_engine(engine: str) -> Optional[str]:
    """The arena backend ``engine`` names, checked to be usable here.

    Raises :class:`AdvisorError` for an unknown name, or for the numpy
    backend in a process without numpy.
    """
    validate_name("evaluation engine", engine, ENGINES)
    backend = ENGINES[engine]
    if backend == "numpy" and not numpy_available():
        raise AdvisorError(
            "the numpy evaluation engine was requested but numpy is not "
            "installed (pip install 'pinum-repro[perf]')"
        )
    return backend


class WorkloadCostModel(abc.ABC):
    """Estimates the total workload cost under a hypothetical index set.

    ``weights`` assigns each statement an execution frequency (default 1.0
    per statement); workload totals are frequency-weighted sums while
    per-statement costs stay per-execution.  Mixed read/write workloads use
    this to express their read/write ratio: the net benefit the greedy
    search optimizes is ``sum(w_q * cost_q)``, where a DML statement's cost
    already includes the index set's maintenance charge.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not queries:
            raise AdvisorError("the workload must contain at least one query")
        self.queries = list(queries)
        self.weights: Dict[str, float] = {query.name: 1.0 for query in self.queries}
        if weights:
            for name, weight in weights.items():
                if name not in self.weights:
                    continue  # weights may outlive removed statements
                self.weights[name] = validate_statement_weight(name, weight)
        self._queries_by_table: Dict[str, List[Query]] = {}
        for query in self.queries:
            for table in query.tables:
                self._queries_by_table.setdefault(table, []).append(query)
        #: Per-query evaluations answered so far (for selection-phase reports).
        self.query_evaluations = 0

    def weight_of(self, name: str) -> float:
        """The statement's execution-frequency weight (1.0 by default)."""
        return self.weights.get(name, 1.0)

    @abc.abstractmethod
    def _query_cost(self, query: Query, indexes: Sequence[Index]) -> float:
        """Cost of one query when ``indexes`` (and nothing else) exist."""

    def query_cost(self, query: Query, indexes: Sequence[Index]) -> float:
        """Cost of one query when ``indexes`` (and nothing else) exist."""
        self.query_evaluations += 1
        return self._query_cost(query, indexes)

    def queries_touching(self, table: str) -> List[Query]:
        """The workload queries that read ``table``.

        An index on any other table cannot change their cost, which is what
        delta evaluation exploits.
        """
        return self._queries_by_table.get(table, [])

    def workload_cost(self, indexes: Sequence[Index]) -> float:
        """Total weighted cost of the workload under ``indexes``."""
        return self.weighted_total(self.per_query_costs(indexes))

    def per_query_costs(self, indexes: Sequence[Index]) -> Dict[str, float]:
        """Per-execution costs under ``indexes`` keyed by statement name."""
        return {query.name: self.query_cost(query, indexes) for query in self.queries}

    def weighted_total(self, per_query_costs: Mapping[str, float]) -> float:
        """The workload total implied by :meth:`per_query_costs` output."""
        return sum(
            self.weights[query.name] * per_query_costs[query.name]
            for query in self.queries
        )

    @property
    def preparation_optimizer_calls(self) -> int:
        """Optimizer calls spent preparing the model (0 for the raw optimizer)."""
        return 0

    @property
    def preparation_seconds(self) -> float:
        """Wall-clock seconds spent preparing the model."""
        return 0.0


class IncrementalWorkloadEvaluator:
    """Scores candidates against a growing winner set for the selectors.

    It keeps the current per-query costs and answers "what if this candidate
    joined the winners?" through :meth:`frontier`.  A cache-backed model
    answers a whole frontier in one batched
    :class:`~repro.inum.arena.WorkloadArena` call.  A model without an arena
    (the scalar oracle, ``cost_model="optimizer"``) is asked per candidate,
    and then only for the queries that read the candidate's table -- an
    index on ``T`` cannot move any other query; totals are still summed over
    all queries in workload order, so they are bit-identical to a full
    :meth:`~WorkloadCostModel.workload_cost` call.
    """

    def __init__(self, model: WorkloadCostModel, indexes: Sequence[Index] = ()) -> None:
        self._model = model
        self._weights = model.weights
        self._arena: Optional[WorkloadArena] = getattr(model, "arena", None)
        self._costs = model.per_query_costs(list(indexes))
        # Per candidate key scored since the last commit: the arena's full
        # per-query row, or the delta path's fresh costs of affected queries.
        self._pending: Dict[tuple, object] = {}

    def frontier(self, winners: Sequence[Index], candidates: Sequence[Index]) -> List[float]:
        """Weighted workload costs of ``winners + [c]`` for every candidate.

        The per-query costs behind each total are remembered, so committing
        any candidate scored since the last :meth:`commit` is free.
        """
        if not candidates:
            return []
        arena = self._arena
        if arena is None:
            return [self._delta_cost(winners, candidate) for candidate in candidates]
        weights = [self._weights[name] for name in arena.query_names]
        totals, rows = arena.frontier_detail(winners, candidates, weights)
        self._model.query_evaluations += len(arena.query_names) * len(candidates)
        for candidate, row in zip(candidates, rows):
            self._pending[candidate.key] = row
        return totals

    @property
    def total(self) -> float:
        """Current weighted workload cost (matches ``workload_cost`` bit-for-bit)."""
        return sum(self._weights[name] * cost for name, cost in self._costs.items())

    def per_query_costs(self) -> Dict[str, float]:
        """A copy of the current per-query (per-execution) costs."""
        return dict(self._costs)

    def cost_with(self, winners: Sequence[Index], candidate: Index) -> float:
        """Weighted workload cost of ``winners + [candidate]``."""
        return self.frontier(winners, [candidate])[0]

    def _delta_cost(self, winners: Sequence[Index], candidate: Index) -> float:
        # For a mixed workload the affected queries include the DML
        # statements charged the candidate's maintenance; a candidate on a
        # table nobody reads re-evaluates nothing.
        affected = self._model.queries_touching(candidate.table)
        extended = list(winners) + [candidate]
        fresh = {query.name: self._model.query_cost(query, extended) for query in affected}
        self._pending[candidate.key] = fresh
        return sum(
            self._weights[query.name] * fresh.get(query.name, self._costs[query.name])
            for query in self._model.queries
        )

    def commit(self, winners: Sequence[Index], candidate: Index) -> None:
        """Make ``candidate`` (last element of ``winners``) permanent."""
        fresh = self._pending.get(candidate.key)
        if fresh is None:
            fresh = self._model.per_query_costs(list(winners))
        elif self._arena is not None:
            fresh = dict(zip(self._arena.query_names, (float(cost) for cost in fresh)))
        self._costs.update(fresh)
        self._pending.clear()


class OptimizerWorkloadCostModel(WorkloadCostModel):
    """Benefit oracle that calls the optimizer for every evaluation.

    The greedy search asks the same (query, configuration) questions over
    and over -- every iteration re-evaluates every remaining candidate, and
    adding an index on one table leaves the relevant configuration of every
    other query unchanged -- so repeated questions are memoized.
    Only the scalar cost is retained (not whole plan trees, which a long
    greedy run over a large candidate set would accumulate without bound).

    ``whatif`` optionally substitutes a shared what-if layer (e.g. a
    session's :class:`~repro.optimizer.whatif.WhatIfCallCache`), whose
    memoized answers outlive any single model instance.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        queries: Sequence[Query],
        whatif: Optional[Union[WhatIfOptimizer, WhatIfCallCache]] = None,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        super().__init__(queries, weights=weights)
        self._whatif = whatif if whatif is not None else WhatIfOptimizer(optimizer)
        self._cost_memo: Dict[tuple, float] = {}

    def _query_cost(self, query: Query, indexes: Sequence[Index]) -> float:
        relevant = [index for index in indexes if index.table in query.tables]
        key = (query_fingerprint(query), configuration_signature(relevant))
        cost = self._cost_memo.get(key)
        if cost is None:
            cost = self._whatif.statement_cost(query, relevant)
            self._cost_memo[key] = cost
        return cost


class CacheBackedWorkloadCostModel(WorkloadCostModel):
    """Benefit oracle answering from per-query INUM/PINUM caches.

    The model is built over *already-acquired* ``caches`` (by statement
    name): a :class:`~repro.api.session.TuningSession` gets them from its
    :class:`~repro.api.tier.PlanCachePool`, standalone callers from
    :meth:`build`.  ``mode`` names the builder that filled them --
    ``"pinum"`` (default, the paper's configuration) or ``"inum"`` (the
    baseline) -- and picks the matching scalar oracle.  Every evaluation is
    pure arithmetic over one :class:`~repro.inum.arena.WorkloadArena`
    spanning the workload (``engine`` picks its backend, see
    :data:`ENGINES`), or the scalar oracle's per-slot walk under
    ``engine="scalar"``.  ``arena_cache``/``cache_ids`` let the
    caller share compiled arenas across model instances, keyed by the stable
    identities of the caches they span, so a warm re-tune skips
    recompilation too.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        caches: Mapping[str, InumCache],
        mode: str = "pinum",
        engine: str = "auto",
        *,
        preparation_optimizer_calls: int = 0,
        preparation_seconds: float = 0.0,
        cache_ids: Optional[Dict[str, str]] = None,
        weights: Optional[Mapping[str, float]] = None,
        arena_cache: Optional[LocalPool] = None,
    ) -> None:
        super().__init__(queries, weights=weights)
        if mode not in ("pinum", "inum"):
            raise AdvisorError(f"unknown cache mode {mode!r} (expected 'pinum' or 'inum')")
        self.mode = mode
        self._caches = dict(caches)
        #: Scalar oracles, built on first use (see :meth:`model_for`).
        self._models: Dict[str, InumCostModel] = {}
        self._cache_ids = cache_ids or {}
        self._arena: Optional[WorkloadArena] = None
        self._arena_cache = arena_cache
        self.select_engine(engine)
        self._calls = preparation_optimizer_calls
        self._seconds = preparation_seconds

    @classmethod
    def build(
        cls,
        optimizer: Optimizer,
        queries: Sequence[Query],
        candidate_indexes: Sequence[Index],
        mode: str = "pinum",
        engine: str = "auto",
        weights: Optional[Mapping[str, float]] = None,
    ) -> "CacheBackedWorkloadCostModel":
        """A standalone model that builds its own caches (tests, benchmarks).

        One :func:`~repro.inum.workload_builder.build_one_cache` per query
        over one fresh :class:`~repro.optimizer.whatif.WhatIfCallCache`, each
        cache covering the ``candidate_indexes`` on its tables; no pool, tier
        or store is involved.  An identical-SQL twin is answered by the memo,
        so it costs no optimizer call.
        """
        call_cache = WhatIfCallCache(optimizer)
        caches: Dict[str, InumCache] = {}
        with timed() as wall:
            for query in queries:
                relevant = [index for index in candidate_indexes if index.table in query.tables]
                caches[query.name] = build_one_cache(optimizer, call_cache, mode, query, relevant)
        return cls(
            queries,
            caches,
            mode,
            engine,
            preparation_optimizer_calls=sum(
                cache.build_stats.optimizer_calls_total for cache in caches.values()
            ),
            preparation_seconds=wall.seconds,
            weights=weights,
        )

    def select_engine(self, engine: str) -> None:
        """Switch the evaluation engine (an :data:`ENGINES` name).

        Every engine but the scalar oracle compiles (or adopts from
        ``arena_cache``) one workload-wide arena on its backend; compilation
        is one pass over the caches, so benchmarks and sessions can flip one
        model between the oracle and the kernel without rebuilding caches.
        """
        backend = resolve_engine(engine)
        self._arena = None if backend is None else self._compile_arena(backend)

    def _compile_arena(self, backend: str) -> WorkloadArena:
        if backend == "auto":
            backend = "numpy" if numpy_available() else "python"
        arena_id = arena_fingerprint(
            [query.name for query in self.queries], self._cache_ids, backend
        )
        arena = self._arena_cache.get(arena_id) if self._arena_cache is not None else None
        if arena is None:
            arena = compile_arena(self.queries, self._caches, backend=backend)
            arena.arena_id = arena_id
            if self._arena_cache is not None:
                # Shared maps are first-promotion-wins: adopt the winner.
                arena = self._arena_cache.update({arena_id: arena})[arena_id]
        return arena

    @property
    def arena(self) -> Optional[WorkloadArena]:
        """The workload arena (``None`` under the scalar oracle)."""
        return self._arena

    @property
    def engine_backend(self) -> str:
        """What evaluates: the arena's backend ("numpy"/"python") or "scalar"."""
        return "scalar" if self._arena is None else self._arena.backend

    def per_query_costs(self, indexes: Sequence[Index]) -> Dict[str, float]:
        """Per-execution costs under ``indexes`` keyed by statement name."""
        if self._arena is None:
            return super().per_query_costs(indexes)
        self.query_evaluations += len(self.queries)
        return self._arena.evaluate_detail(indexes)

    @property
    def caches(self) -> Dict[str, InumCache]:
        """The per-statement plan caches this model answers from (by name).

        The ILP formulation compiles these (maintenance profiles included)
        into its objective and constraint matrices.
        """
        return self._caches

    def _query_cost(self, query: Query, indexes: Sequence[Index]) -> float:
        if self._arena is not None:
            return self._arena.query_cost(query.name, indexes)
        relevant = [index for index in indexes if index.table in query.tables]
        return self.model_for(query).estimate_with_indexes(relevant)

    def model_for(self, query: Query) -> InumCostModel:
        """The per-query scalar oracle (``engine="scalar"``, experiments)."""
        model = self._models.get(query.name)
        if model is None:
            cache = self._caches.get(query.name)
            if cache is None:
                raise AdvisorError(f"no cache was built for query {query.name!r}")
            model = InumCostModel(cache)
            self._models[query.name] = model
        return model

    @property
    def preparation_optimizer_calls(self) -> int:
        return self._calls

    @property
    def preparation_seconds(self) -> float:
        return self._seconds
