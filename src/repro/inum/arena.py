"""The evaluation kernel: every plan cache of a workload fused into one arena.

"What does the workload cost under index set X" is the arithmetic the whole
advisor runs on -- the minimum over each query's cached plans of internal
cost plus the chosen access costs.  The scalar
:class:`~repro.inum.cost_estimation.InumCostModel` is the reference oracle
for it; this module is the one production implementation.  It stacks the
per-cache layouts of :mod:`repro.inum.compiled` into a single *workload
arena*:

* one **global access-method column** per distinct ``(table, index key)``
  collected by *any* query (heaps included), so a candidate index set maps to
  one boolean column mask shared by the whole workload,
* the per-query **slot-class rows** stacked into one (total classes x
  columns) cost-matrix pair (full scans / nested-loop probes), each query's
  rows holding +inf outside its own eligible columns -- per-query relevance
  filtering falls out of the eligibility mask for free,
* the per-entry **weight matrices** stacked block-diagonally into one
  (total entries x total classes) pair plus one internal-cost vector, with
  per-query entry/class offsets so per-query minima are segment reductions,
* per-query **maintenance coefficient rows** (base cost plus one coefficient
  vector per index key) mirroring each DML statement's
  :class:`~repro.optimizer.maintenance.MaintenanceProfile` exactly.

Evaluating one index set is a masked min, a matmul and a segmented min;
evaluating a whole candidate frontier (every winner set plus one candidate)
is the same three operations batched -- :meth:`WorkloadArena.frontier_detail`
-- instead of ``candidates x queries`` Python round trips.  A single cache
is just a one-query arena (:func:`repro.inum.compiled.compile_cache`).  The
arena is weight-agnostic: callers pass their execution-frequency weight
vector, so one arena serves every weight sweep over the same caches.

The same layout also answers the ILP's branch-and-bound bounds
(:meth:`WorkloadArena.bound_terms`): per query, the read costs under a
node's fixed indexes and under everything it may still add, the *slack*
no single candidate can be charged for, and per-column *benefit caps* --
see :mod:`repro.advisor.ilp.solver` for how they bound a node.

Two backends evaluate the same layout: numpy when installed, a pure-Python
fallback otherwise (the no-numpy CI leg); both stay within 1e-9 of the
scalar oracle (asserted by the property tests).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.inum.cache import InumCache
from repro.inum.compiled import IndexSetMemo, _CompiledLayout, numpy_available
from repro.query.ast import Query
from repro.util.errors import PlanningError

try:  # numpy is an optional "[perf]" extra; everything degrades without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None

_INF = float("inf")

#: Recognised values of the ``backend`` argument of :func:`compile_arena`.
ARENA_BACKENDS = ("auto", "numpy", "python")


class BoundTerms(NamedTuple):
    """The ingredients of a branch-and-bound node's bounds, weighted.

    A node fixes some columns active and leaves others free; *everything*
    is both together.  Every term is a workload total weighted like
    :meth:`WorkloadArena.evaluate` and counts reads only.  For each query,
    the cap reference ``rho_c`` of a slot class is its minimum under the
    fixed columns, or its worst eligible cost where that minimum is
    infinite.
    """

    #: Read cost under the fixed columns.
    read_fixed: float
    #: Read cost under everything.
    read_everything: float
    #: Per query ``max(0, read_fixed - min_p cost_p(rho))`` over the plans
    #: every class of which some column in everything can serve: what a
    #: plan gains with the classes the fixed columns cannot serve priced at
    #: their *worst* eligible method -- a gain no single column can be
    #: charged for.
    slack: float
    #: Per free column, over queries: ``max_p sum_c weight_pc * (rho_c -
    #: cost_cm)+``, the most that column can lower one cached plan.
    caps: List[float]


class _ArenaLayout:
    """Backend-independent fused digest of one workload's compiled caches."""

    def __init__(self, queries: Sequence[Query], caches: Mapping[str, InumCache]) -> None:
        self.query_names: List[str] = []
        self.columns: List[Tuple[str, object]] = []
        self.column_of: Dict[Tuple[str, object], int] = {}
        self.heap_columns: List[int] = []
        self.class_offsets: List[int] = [0]
        self.entry_offsets: List[int] = [0]
        # Stacked class rows (total classes x global columns) and entries.
        self.full_costs: List[List[float]] = []
        self.probe_costs: List[List[float]] = []
        self.internal_costs: List[float] = []
        self.full_weights: List[Dict[int, float]] = []
        self.probe_weights: List[Dict[int, float]] = []
        # Maintenance: per-query base cost plus per-index-key coefficient rows.
        self.maintenance_base: List[float] = []
        self.maintenance_coeffs: Dict[Tuple[str, Tuple[str, ...]], List[float]] = {}

        layouts: List[_CompiledLayout] = []
        for query in queries:
            cache = caches.get(query.name)
            if cache is None:
                raise PlanningError(
                    f"no cache was built for query {query.name!r}; the arena "
                    "needs one compiled layout per workload statement"
                )
            layout = _CompiledLayout(cache)
            if not layout.internal_costs:
                raise PlanningError(
                    f"query {query.name!r} has an empty plan cache; the arena "
                    "cannot stack a query with no entries"
                )
            layouts.append(layout)
            self.query_names.append(query.name)

        # Pass 1: the global access-method column table (heaps first seen).
        for layout in layouts:
            for info in layout.methods:
                key = (info.table, info.index_key)
                if key not in self.column_of:
                    self.column_of[key] = len(self.columns)
                    self.columns.append(key)
                    if info.index_key is None:
                        self.heap_columns.append(self.column_of[key])

        # Pass 2: stack class rows, entries and maintenance per query.
        width = len(self.columns)
        for position, layout in enumerate(layouts):
            local_to_global = [
                self.column_of[(info.table, info.index_key)] for info in layout.methods
            ]
            for full_row, probe_row in zip(layout.full_costs, layout.probe_costs):
                global_full = [_INF] * width
                global_probe = [_INF] * width
                for local, column in enumerate(local_to_global):
                    global_full[column] = full_row[local]
                    global_probe[column] = probe_row[local]
                self.full_costs.append(global_full)
                self.probe_costs.append(global_probe)
            class_base = self.class_offsets[position]
            for entry_position in range(len(layout.internal_costs)):
                self.internal_costs.append(layout.internal_costs[entry_position])
                self.full_weights.append({
                    class_base + local: weight
                    for local, weight in layout.full_weights[entry_position].items()
                })
                self.probe_weights.append({
                    class_base + local: weight
                    for local, weight in layout.probe_weights[entry_position].items()
                })
            self.class_offsets.append(len(self.full_costs))
            self.entry_offsets.append(len(self.internal_costs))

            maintenance = layout.cache.maintenance
            self.maintenance_base.append(
                maintenance.base_cost if maintenance is not None else 0.0
            )
            if maintenance is not None:
                for key, cost in maintenance.per_index.items():
                    row = self.maintenance_coeffs.setdefault(
                        key, [0.0] * len(self.query_names)
                    )
                    row[position] = cost

    def active_columns(self, indexes: Sequence) -> set:
        """Columns usable under ``indexes`` (heaps are always active).

        Indexes whose access cost no query collected are ignored, exactly as
        the scalar model ignores ``for_index(...) is None``.
        """
        active = set(self.heap_columns)
        for index in indexes:
            column = self.column_of.get((index.table, index.key))
            if column is not None:
                active.add(column)
        return active

    def no_plan_error(self, position: int) -> PlanningError:
        return PlanningError(
            f"no cached plan of query {self.query_names[position]!r} is "
            "applicable to the given index set"
        )


class WorkloadArena:
    """Common surface of the two evaluation backends.

    All totals are weighted by the caller-provided ``weights`` vector
    (aligned with :attr:`query_names`; ``None`` means unit weights), so one
    arena serves every execution-frequency sweep over the same caches.
    Per-query costs are per-execution, matching
    :meth:`~repro.advisor.benefit.WorkloadCostModel.per_query_costs`.
    """

    backend: str = "abstract"

    def __init__(self, layout: _ArenaLayout, build_mask: Callable[[Sequence], object]) -> None:
        self._layout = layout
        # ``build_mask`` is a function of the layout, never a bound method:
        # a memo holding ``self`` closes a reference cycle, and an arena
        # evicted from a pool would then wait for a gen-2 collection.
        self._mask_memo = IndexSetMemo(build_mask)
        #: Stable identity assigned by the compiling model (for pooling).
        self.arena_id: Optional[str] = None

    # -- shape ------------------------------------------------------------

    @property
    def query_names(self) -> List[str]:
        """Workload statement names, in evaluation (vector) order."""
        return self._layout.query_names

    @property
    def query_count(self) -> int:
        return len(self._layout.query_names)

    @property
    def column_count(self) -> int:
        """Global access-method columns (distinct (table, index key))."""
        return len(self._layout.columns)

    @property
    def class_count(self) -> int:
        return self._layout.class_offsets[-1]

    @property
    def entry_count(self) -> int:
        return self._layout.entry_offsets[-1]

    def column_for(self, index) -> Optional[int]:
        """The candidate's global column (``None`` if never collected)."""
        return self._layout.column_of.get((index.table, index.key))

    # -- maintenance ------------------------------------------------------

    def maintenance_vector(self, indexes: Sequence) -> List[float]:
        """Per-query maintenance costs under ``indexes``.

        Mirrors :meth:`MaintenanceProfile.cost_for` exactly: the base cost
        plus one charge per *occurrence* of a covered index key.
        """
        layout = self._layout
        totals = list(layout.maintenance_base)
        for index in indexes:
            row = layout.maintenance_coeffs.get(index.key)
            if row is None:
                continue
            for position, cost in enumerate(row):
                if cost:
                    totals[position] += cost
        return totals

    @property
    def maintenance_base(self) -> List[float]:
        """Per-query maintenance cost under no index at all."""
        return self._layout.maintenance_base

    def maintenance_row(self, index) -> List[float]:
        """Per-query maintenance charge of one occurrence of ``index``."""
        row = self._layout.maintenance_coeffs.get(index.key)
        return row if row is not None else [0.0] * self.query_count

    # -- evaluation -------------------------------------------------------

    def per_query_vector(self, indexes: Sequence) -> List[float]:
        """Per-query per-execution costs (read plus maintenance)."""
        raise NotImplementedError

    def bound_terms(
        self,
        fixed: Sequence[int],
        free: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> BoundTerms:
        """The ILP bound ingredients of a node (see :class:`BoundTerms`).

        ``fixed`` and ``free`` are global columns (:meth:`column_for`);
        heaps are always active.  Per query, for every column set ``T``
        between fixed and everything, ``read(fixed) - read(T)`` is at most
        the slack plus the caps of the columns ``T`` adds -- the inequality
        the ILP's fractional-knapsack bound rests on.
        """
        raise NotImplementedError

    def evaluate_detail(self, indexes: Sequence) -> Dict[str, float]:
        """Per-query costs under ``indexes``, keyed by statement name."""
        return dict(zip(self._layout.query_names, self.per_query_vector(indexes)))

    def evaluate(self, indexes: Sequence, weights: Optional[Sequence[float]] = None) -> float:
        """Total (weighted) workload cost under ``indexes``."""
        vector = self.per_query_vector(indexes)
        if weights is None:
            return float(sum(vector))
        return float(sum(w * c for w, c in zip(weights, vector)))

    def evaluate_batch(
        self, index_sets: Sequence[Sequence], weights: Optional[Sequence[float]] = None
    ) -> List[float]:
        """Total workload cost of several candidate index sets."""
        raise NotImplementedError

    def frontier_detail(
        self,
        winners: Sequence,
        candidates: Sequence[Optional[object]],
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[float], List[List[float]]]:
        """Totals and per-query rows for ``winners`` plus each candidate.

        The CELF hot path: every candidate set differs from the base by one
        index, so per-class minima are a rank-1 update of the base minima
        instead of a fresh masked reduction.  A ``None`` candidate evaluates
        the bare winner set (used for the baseline row).
        """
        raise NotImplementedError

    def evaluate_frontier(
        self,
        winners: Sequence,
        candidates: Sequence[Optional[object]],
        weights: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Totals of ``winners + [candidate]`` for every candidate."""
        return self.frontier_detail(winners, candidates, weights)[0]

    def query_cost(self, name: str, indexes: Sequence) -> float:
        """One statement's per-execution cost under ``indexes``."""
        return self.per_query_vector(indexes)[self._layout.query_names.index(name)]

    def _weighted_totals(
        self, rows: Sequence[Sequence[float]], weights: Optional[Sequence[float]]
    ) -> List[float]:
        if weights is None:
            return [float(sum(row)) for row in rows]
        return [float(sum(w * c for w, c in zip(weights, row))) for row in rows]


class PythonWorkloadArena(WorkloadArena):
    """Pure-Python fused evaluation (no numpy required).

    Per class only the eligible (column, full, probe) triples are kept, and
    slots sharing a ``(table, required_order)`` class share one min per
    evaluation -- which is where the scalar walk spends most of its time.
    """

    backend = "python"

    def __init__(self, layout: _ArenaLayout) -> None:
        super().__init__(layout, functools.partial(_python_mask, layout))
        # Per class, the (global column, full, probe) triples ever eligible.
        self._eligible: List[List[Tuple[int, float, float]]] = []
        for full_row, probe_row in zip(layout.full_costs, layout.probe_costs):
            self._eligible.append([
                (column, full_row[column], probe_row[column])
                for column in range(len(layout.columns))
                if full_row[column] != _INF or probe_row[column] != _INF
            ])
        # Per global column, the classes it can serve (for rank-1 updates).
        self._column_classes: Dict[int, List[Tuple[int, float, float]]] = {}
        for class_position, triples in enumerate(self._eligible):
            for column, full_cost, probe_cost in triples:
                self._column_classes.setdefault(column, []).append(
                    (class_position, full_cost, probe_cost)
                )
        # For the bound terms: per class, the worst eligible (full, probe)
        # cost, and the (entry, weight) pairs of the entries that need it.
        self._worst_full = [
            max((full for _, full, _ in triples if full != _INF), default=_INF)
            for triples in self._eligible
        ]
        self._worst_probe = [
            max((probe for _, _, probe in triples if probe != _INF), default=_INF)
            for triples in self._eligible
        ]
        self._needed_full: Dict[int, List[Tuple[int, float]]] = {}
        self._needed_probe: Dict[int, List[Tuple[int, float]]] = {}
        for needed, rows in (
            (self._needed_full, layout.full_weights),
            (self._needed_probe, layout.probe_weights),
        ):
            for entry, weights in enumerate(rows):
                for class_position, weight in weights.items():
                    needed.setdefault(class_position, []).append((entry, weight))
        self._query_of_entry = [
            query
            for query in range(len(layout.query_names))
            for _ in range(layout.entry_offsets[query], layout.entry_offsets[query + 1])
        ]
        # The dense rows are as large as everything kept above; drop them.
        layout.full_costs = layout.probe_costs = []

    def _class_minima(self, active: frozenset) -> Tuple[List[float], List[float]]:
        full_minima: List[float] = []
        probe_minima: List[float] = []
        for triples in self._eligible:
            best_full = _INF
            best_probe = _INF
            for column, full_cost, probe_cost in triples:
                if column not in active:
                    continue
                if full_cost < best_full:
                    best_full = full_cost
                if probe_cost < best_probe:
                    best_probe = probe_cost
            full_minima.append(best_full)
            probe_minima.append(best_probe)
        return full_minima, probe_minima

    def _read_vector(
        self, full_minima: List[float], probe_minima: List[float]
    ) -> List[float]:
        reads = self._cheapest_entries(full_minima, probe_minima)
        for position, read in enumerate(reads):
            if read == _INF:
                raise self._layout.no_plan_error(position)
        return reads

    def _cheapest_entries(
        self, full_minima: List[float], probe_minima: List[float]
    ) -> List[float]:
        """Per query, the cheapest entry cost (+inf when none is feasible)."""
        layout = self._layout
        reads: List[float] = []
        for position in range(len(layout.query_names)):
            start, stop = layout.entry_offsets[position], layout.entry_offsets[position + 1]
            best = _INF
            for entry in range(start, stop):
                cost = layout.internal_costs[entry]
                for class_position, weight in layout.full_weights[entry].items():
                    cost += weight * full_minima[class_position]
                for class_position, weight in layout.probe_weights[entry].items():
                    cost += weight * probe_minima[class_position]
                if cost < best:
                    best = cost
            reads.append(best)
        return reads

    def per_query_vector(self, indexes: Sequence) -> List[float]:
        full_minima, probe_minima = self._class_minima(self._mask_memo.get(indexes))
        reads = self._read_vector(full_minima, probe_minima)
        maintenance = self.maintenance_vector(indexes)
        return [read + maint for read, maint in zip(reads, maintenance)]

    def evaluate_batch(
        self, index_sets: Sequence[Sequence], weights: Optional[Sequence[float]] = None
    ) -> List[float]:
        return self._weighted_totals(
            [self.per_query_vector(indexes) for indexes in index_sets], weights
        )

    def frontier_detail(
        self,
        winners: Sequence,
        candidates: Sequence[Optional[object]],
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[float], List[List[float]]]:
        base_full, base_probe = self._class_minima(self._mask_memo.get(winners))
        base_maintenance = self.maintenance_vector(winners)
        layout = self._layout
        rows: List[List[float]] = []
        for candidate in candidates:
            full_minima, probe_minima = base_full, base_probe
            if candidate is not None:
                column = layout.column_of.get((candidate.table, candidate.key))
                if column is not None:
                    touched = self._column_classes.get(column, ())
                    if touched:
                        full_minima = list(base_full)
                        probe_minima = list(base_probe)
                        for class_position, full_cost, probe_cost in touched:
                            if full_cost < full_minima[class_position]:
                                full_minima[class_position] = full_cost
                            if probe_cost < probe_minima[class_position]:
                                probe_minima[class_position] = probe_cost
            reads = self._read_vector(full_minima, probe_minima)
            maintenance = base_maintenance
            if candidate is not None:
                coeffs = layout.maintenance_coeffs.get(candidate.key)
                if coeffs is not None:
                    maintenance = [
                        base + coeff for base, coeff in zip(base_maintenance, coeffs)
                    ]
            rows.append([read + maint for read, maint in zip(reads, maintenance)])
        return self._weighted_totals(rows, weights), rows

    def bound_terms(
        self,
        fixed: Sequence[int],
        free: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> BoundTerms:
        fixed_full, fixed_probe = self._class_minima(
            set(self._layout.heap_columns).union(fixed)
        )
        # Everything is the fixed minima lowered by each free column.
        all_full, all_probe = list(fixed_full), list(fixed_probe)
        for column in free:
            for class_position, full_cost, probe_cost in self._column_classes.get(column, ()):
                if full_cost < all_full[class_position]:
                    all_full[class_position] = full_cost
                if probe_cost < all_probe[class_position]:
                    all_probe[class_position] = probe_cost
        rho_full = [
            low if low != _INF else worst for low, worst in zip(fixed_full, self._worst_full)
        ]
        rho_probe = [
            low if low != _INF else worst for low, worst in zip(fixed_probe, self._worst_probe)
        ]
        # The slack prices entries at rho, but only those every class of
        # which some column in everything can serve.
        reachable = self._cheapest_entries(
            [rho if low != _INF else _INF for rho, low in zip(rho_full, all_full)],
            [rho if low != _INF else _INF for rho, low in zip(rho_probe, all_probe)],
        )
        read_fixed = self._read_vector(fixed_full, fixed_probe)
        if weights is None:
            weights = [1.0] * len(read_fixed)
        caps = [0.0] * len(free)
        for weight, row in zip(weights, self._caps(rho_full, rho_probe, free)):
            for position, cap in row.items():
                caps[position] += weight * cap
        return BoundTerms(
            _dot(weights, read_fixed),
            _dot(weights, self._read_vector(all_full, all_probe)),
            _dot(weights, [max(0.0, read - low) for read, low in zip(read_fixed, reachable)]),
            caps,
        )

    def _caps(
        self, rho_full: List[float], rho_probe: List[float], columns: Sequence[int]
    ) -> List[Dict[int, float]]:
        """Per query, the positive caps by position in ``columns``."""
        # Per entry and position, the sum of the entry's weighted gains:
        # only (class, column) cells that beat the reference contribute.
        per_entry: Dict[int, Dict[int, float]] = {}
        for position, column in enumerate(columns):
            for class_position, full_cost, probe_cost in self._column_classes.get(column, ()):
                for gain, needed in (
                    (rho_full[class_position] - full_cost, self._needed_full),
                    (rho_probe[class_position] - probe_cost, self._needed_probe),
                ):
                    if 0.0 < gain < _INF:
                        for entry, weight in needed.get(class_position, ()):
                            totals = per_entry.setdefault(entry, {})
                            totals[position] = totals.get(position, 0.0) + weight * gain
        caps: List[Dict[int, float]] = [{} for _ in self._layout.query_names]
        for entry, totals in per_entry.items():
            row = caps[self._query_of_entry[entry]]
            for position, total in totals.items():
                if total > row.get(position, 0.0):
                    row[position] = total
        return caps


class NumpyWorkloadArena(WorkloadArena):
    """Vectorized fused evaluation: one masked min, one matmul, one segment min."""

    backend = "numpy"

    def __init__(self, layout: _ArenaLayout) -> None:
        if not numpy_available():
            raise PlanningError(
                "the numpy backend was requested but numpy is not installed "
                "(pip install 'pinum-repro[perf]')"
            )
        super().__init__(layout, functools.partial(_numpy_mask, layout))
        class_count = layout.class_offsets[-1]
        entry_count = layout.entry_offsets[-1]
        width = len(layout.columns)
        # One buffer, classes stacked full then probe; the two halves are views.
        self._costs = _np.asarray(
            layout.full_costs + layout.probe_costs, dtype=_np.float64
        ).reshape(2 * class_count, width)
        self._full, self._probe = self._costs[:class_count], self._costs[class_count:]
        self._internal = _np.asarray(layout.internal_costs, dtype=_np.float64)
        self._full_weight = _np.zeros((entry_count, class_count), dtype=_np.float64)
        self._probe_weight = _np.zeros((entry_count, class_count), dtype=_np.float64)
        for position in range(entry_count):
            for class_position, weight in layout.full_weights[position].items():
                self._full_weight[position, class_position] = weight
            for class_position, weight in layout.probe_weights[position].items():
                self._probe_weight[position, class_position] = weight
        # The arrays hold every number now; the Python lists they were built
        # from are as large again, so an arena kept in a pool must not keep
        # both.
        layout.full_costs = layout.probe_costs = layout.internal_costs = []
        layout.full_weights = layout.probe_weights = []
        self._entry_starts = _np.asarray(layout.entry_offsets[:-1], dtype=_np.intp)
        self._heap_mask = _np.zeros(width, dtype=bool)
        self._heap_mask[layout.heap_columns] = True
        # The bound terms' sparse form, over the stacked classes: the
        # eligible (class, column, cost) cells, each class's worst eligible
        # cost (+inf where none), and per class the (entry, weight) pairs
        # that need it, grouped by class.
        eligible = _np.isfinite(self._costs)
        self._cell_class, self._cell_column = _np.nonzero(eligible)
        self._cell_cost = self._costs[eligible]
        self._worst = _np.where(eligible, self._costs, -_np.inf).max(axis=1)
        self._worst[_np.isneginf(self._worst)] = _np.inf
        needs = _np.hstack([self._full_weight, self._probe_weight]).T
        post_class, self._post_entry = _np.nonzero(needs)
        self._post_weight = needs[post_class, self._post_entry]
        self._post_count = _np.bincount(post_class, minlength=2 * class_count)
        self._post_start = _np.cumsum(self._post_count) - self._post_count
        self._maintenance_base = _np.asarray(layout.maintenance_base, dtype=_np.float64)
        self._coeff_rows = {
            key: _np.asarray(row, dtype=_np.float64)
            for key, row in layout.maintenance_coeffs.items()
        }

    # -- internals --------------------------------------------------------

    def _class_minima(self, mask):
        masked_full = _np.where(mask[None, :], self._full, _np.inf)
        masked_probe = _np.where(mask[None, :], self._probe, _np.inf)
        return masked_full.min(axis=1), masked_probe.min(axis=1)

    def _read_rows(self, full_minima, probe_minima):
        """Per-query read costs for a (sets x classes) minima batch."""
        missing_full = _np.isinf(full_minima)
        missing_probe = _np.isinf(probe_minima)
        # A weight is positive exactly where an entry needs the class, so a
        # positive weighted count of missing minima marks it infeasible.
        infeasible = (
            missing_full.astype(_np.float64) @ self._full_weight.T
            + missing_probe.astype(_np.float64) @ self._probe_weight.T
        ) > 0.0
        costs = (
            self._internal[None, :]
            + _np.where(missing_full, 0.0, full_minima) @ self._full_weight.T
            + _np.where(missing_probe, 0.0, probe_minima) @ self._probe_weight.T
        )
        costs[infeasible] = _np.inf
        reads = _np.minimum.reduceat(costs, self._entry_starts, axis=1)
        return reads

    def _check_feasible(self, reads) -> None:
        if _np.isinf(reads).any():
            position = int(_np.argwhere(_np.isinf(reads))[0][-1])
            raise self._layout.no_plan_error(position)

    def _maintenance_array(self, indexes: Sequence):
        totals = self._maintenance_base
        copied = False
        for index in indexes:
            row = self._coeff_rows.get(index.key)
            if row is None:
                continue
            if not copied:
                totals = totals.copy()
                copied = True
            totals += row
        return totals

    # -- public surface ---------------------------------------------------

    def per_query_vector(self, indexes: Sequence) -> List[float]:
        full_minima, probe_minima = self._class_minima(self._mask_memo.get(indexes))
        reads = self._read_rows(full_minima[None, :], probe_minima[None, :])
        self._check_feasible(reads)
        return (reads[0] + self._maintenance_array(indexes)).tolist()

    def evaluate_batch(
        self, index_sets: Sequence[Sequence], weights: Optional[Sequence[float]] = None
    ) -> List[float]:
        if not index_sets:
            return []
        masks = _np.stack([self._mask_memo.get(indexes) for indexes in index_sets])
        masked_full = _np.where(masks[:, None, :], self._full[None, :, :], _np.inf)
        masked_probe = _np.where(masks[:, None, :], self._probe[None, :, :], _np.inf)
        reads = self._read_rows(masked_full.min(axis=2), masked_probe.min(axis=2))
        self._check_feasible(reads)
        rows = [
            reads[i] + self._maintenance_array(indexes)
            for i, indexes in enumerate(index_sets)
        ]
        return self._weighted_totals(rows, weights)

    def bound_terms(
        self,
        fixed: Sequence[int],
        free: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> BoundTerms:
        masks = _np.repeat(self._heap_mask[None, :], 2, axis=0)
        masks[:, list(fixed)] = True
        masks[1, list(free)] = True
        fixed_minima, all_minima = _np.where(
            masks[:, None, :], self._costs[None, :, :], _np.inf
        ).min(axis=2)
        rho = _np.where(_np.isinf(fixed_minima), self._worst, fixed_minima)
        # Rows: fixed, everything, and rho restricted to the classes some
        # column in everything can serve (the slack's entry prices).
        minima = _np.stack(
            [fixed_minima, all_minima, _np.where(_np.isinf(all_minima), _np.inf, rho)]
        )
        classes = len(self._full)
        reads = self._read_rows(minima[:, :classes], minima[:, classes:])
        self._check_feasible(reads[:2])
        weight = (
            _np.ones(len(reads[0]))
            if weights is None
            else _np.asarray(weights, dtype=_np.float64)
        )
        return BoundTerms(
            float(reads[0] @ weight),
            float(reads[1] @ weight),
            float(_np.maximum(reads[0] - reads[2], 0.0) @ weight),
            (weight @ self._caps(rho, free)).tolist(),
        )

    def _caps(self, rho, columns: Sequence[int]):
        """(queries x columns) caps for a stacked full|probe reference."""
        count = len(columns)
        position = _np.full(len(self._heap_mask), -1, dtype=_np.intp)
        position[list(columns)] = _np.arange(count)
        cell_position = position[self._cell_column]
        gains = rho[self._cell_class] - self._cell_cost
        keep = _np.flatnonzero((cell_position >= 0) & (gains > 0.0) & (gains < _np.inf))
        classes = self._cell_class[keep]
        # Spread each useful cell over the entries that weigh its class;
        # the (entries x columns) sums then touch only nonzero terms.
        counts = self._post_count[classes]
        cell = _np.repeat(_np.arange(len(keep)), counts)
        post = _np.repeat(self._post_start[classes] - (_np.cumsum(counts) - counts), counts)
        post += _np.arange(len(post))
        entry_count = len(self._internal)
        per_entry = _np.bincount(
            self._post_entry[post] * count + cell_position[keep][cell],
            weights=self._post_weight[post] * gains[keep][cell],
            minlength=entry_count * count,
        ).reshape(entry_count, count)
        return _np.maximum.reduceat(per_entry, self._entry_starts, axis=0)

    def frontier_detail(
        self,
        winners: Sequence,
        candidates: Sequence[Optional[object]],
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[float], List[List[float]]]:
        base_full, base_probe = self._class_minima(self._mask_memo.get(winners))
        count = len(candidates)
        columns = _np.full(count, -1, dtype=_np.intp)
        for position, candidate in enumerate(candidates):
            if candidate is None:
                continue
            column = self._layout.column_of.get((candidate.table, candidate.key))
            if column is not None:
                columns[position] = column
        # Rank-1 update: each candidate set is the base plus one column, so
        # its class minima are min(base, that column) -- no 3-axis tensor.
        full_minima = _np.repeat(base_full[None, :], count, axis=0)
        probe_minima = _np.repeat(base_probe[None, :], count, axis=0)
        real = columns >= 0
        if real.any():
            picked = columns[real]
            full_minima[real] = _np.minimum(base_full[None, :], self._full[:, picked].T)
            probe_minima[real] = _np.minimum(base_probe[None, :], self._probe[:, picked].T)
        reads = self._read_rows(full_minima, probe_minima)
        self._check_feasible(reads)
        base_maintenance = self._maintenance_array(winners)
        rows = reads + base_maintenance[None, :]
        for position, candidate in enumerate(candidates):
            if candidate is None:
                continue
            coeffs = self._coeff_rows.get(candidate.key)
            if coeffs is not None:
                rows[position] += coeffs
        if weights is None:
            totals = rows.sum(axis=1)
        else:
            totals = rows @ _np.asarray(weights, dtype=_np.float64)
        return totals.tolist(), rows


def _dot(weights: Sequence[float], values: Sequence[float]) -> float:
    return float(sum(weight * value for weight, value in zip(weights, values)))


def _python_mask(layout: _ArenaLayout, indexes: Sequence) -> frozenset:
    return frozenset(layout.active_columns(indexes))


def _numpy_mask(layout: _ArenaLayout, indexes: Sequence):
    mask = _np.zeros(len(layout.columns), dtype=bool)
    mask[list(layout.active_columns(indexes))] = True
    mask.setflags(write=False)
    return mask


def compile_arena(
    queries: Sequence[Query],
    caches: Mapping[str, InumCache],
    backend: str = "auto",
) -> WorkloadArena:
    """Fuse the workload's caches into one arena.

    ``backend="auto"`` selects numpy when installed and the pure-Python
    fallback otherwise; ``"numpy"`` insists (raising :class:`PlanningError`
    without numpy) and ``"python"`` forces the fallback.
    """
    if backend not in ARENA_BACKENDS:
        raise PlanningError(
            f"unknown arena backend {backend!r} (expected one of {ARENA_BACKENDS})"
        )
    layout = _ArenaLayout(queries, caches)
    if backend == "auto":
        backend = "numpy" if numpy_available() else "python"
    if backend == "numpy":
        return NumpyWorkloadArena(layout)
    return PythonWorkloadArena(layout)


def arena_fingerprint(
    query_names: Sequence[str], cache_ids: Mapping[str, str], backend: str
) -> str:
    """A stable identity for arena pooling.

    Ordered (statement, cache id) pairs -- the vector order matters -- plus
    the backend.  Cache ids already fold in the maintenance-profile digest
    (the session appends ``|maint:<digest>``), so a weight sweep reuses the
    arena while a write-fraction change rebuilds it.
    """
    hasher = hashlib.sha256()
    hasher.update(backend.encode("utf-8"))
    for name in query_names:
        hasher.update(b"\x00")
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\x01")
        hasher.update(str(cache_ids.get(name, name)).encode("utf-8"))
    return "arena:" + hasher.hexdigest()[:16]
