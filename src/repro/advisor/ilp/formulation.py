"""Compiling INUM plan caches into an explicit binary integer program.

Once per-query plan caches exist, a statement's cost under an index set is
pure arithmetic: pick the cheapest cached plan whose slot classes can all be
served, serving each slot class with the cheapest active access method.
That structure is exactly a CoPhy-style BIP (Dash/Polyzotis/Ailamaki's
"CoPhy" line of follow-up work to INUM):

    minimize    sum_q w_q [ sum_p ( internal_qp * y_qp
                            + sum_{c,m} weight_qpc * cost_qcm * z_qpcm ) ]
              + sum_q w_q [ maint_base_q + sum_i maint_qi * x_i ]

    subject to  sum_p y_qp = 1                 (one plan per statement)
                sum_m z_qpcm = y_qp            (every slot class the chosen
                                                plan needs is served)
                z_qpcm <= x_i(m)               (plan-requires-indexes: an
                                                index-backed access method
                                                needs its index selected)
                sum_i size_i * x_i <= B        (the space-budget knapsack)
                x, y, z in {0, 1}

with one binary ``x_i`` per candidate index, one binary ``y_qp`` per
(statement, cache entry) plan choice and one binary ``z_qpcm`` per
(plan, slot class, access method) assignment.  Statement weights ``w_q`` and
the per-index maintenance coefficients ``maint_qi`` come straight from the
update-aware machinery (:class:`~repro.optimizer.maintenance
.MaintenanceProfile`), so mixed read/write workloads optimize *net* benefit.

For **integral** ``x`` the inner (y, z) sub-problem is trivially integral --
choose the cheapest feasible plan, serve each class with the cheapest active
method -- which is the same evaluation the arena performs.  The
formulation therefore stores the program as dense per-statement matrices
(the (entries x slot classes x access methods) layout exported by
:func:`repro.inum.compiled.export_layout`) and answers :meth:`cost` with
that arithmetic; the explicit variable/constraint counts of the BIP are
exposed through :class:`FormulationStatistics` for reporting.

Candidate selections are passed around as **bitmasks** over the deduplicated
candidate pool (bit ``j`` set = candidate ``j`` selected), which makes the
branch-and-bound solver's node bookkeeping cheap and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.advisor.advisor import validate_tuning_limits
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.inum.cache import InumCache
from repro.inum.compiled import export_layout
from repro.util.errors import AdvisorError

try:  # numpy accelerates the relaxation bounds; everything works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None

_INF = float("inf")

#: Entry caps of the per-statement memo tables.  A branch-and-bound run
#: that visits an extreme number of distinct contexts (the 500k-node safety
#: cap at wide candidate sets) must not accumulate unbounded per-mask
#: vectors; a full memo is simply cleared and rebuilt, trading a little
#: recomputation for bounded memory (the same policy as
#: :class:`repro.inum.compiled.IndexSetMemo`).
_MASK_MEMO_LIMIT = 16384
_VECTOR_MEMO_LIMIT = 4096


def _memo_put(memo: Dict, key, value, limit: int):
    """Store ``key -> value``, clearing the memo first when it is full."""
    if len(memo) >= limit:
        memo.clear()
    memo[key] = value
    return value


def iterate_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class FormulationStatistics:
    """Size of the explicit BIP (for reports and the benchmark tables)."""

    statements: int
    candidates: int
    #: ``x`` binaries: one per candidate index.
    index_variables: int
    #: ``y`` binaries: one per (statement, cache entry).
    plan_variables: int
    #: ``z`` binaries: one per (plan, needed slot class, eligible method).
    assignment_variables: int
    constraints: int

    @property
    def variables(self) -> int:
        """All binaries of the program."""
        return self.index_variables + self.plan_variables + self.assignment_variables


class StatementProgram:
    """One statement's slice of the BIP, as dense matrices.

    Holds the (entries x slot classes x access methods) digest of the
    statement's plan cache plus the statement's weight and maintenance
    coefficients, and answers the solver's three questions:

    * :meth:`cost` -- exact cost under an integral candidate selection,
    * :meth:`minima` -- per-slot-class cheapest active access costs (the
      building block of the relaxation bounds), and
    * :meth:`caps` -- per-free-candidate *benefit caps*: a sound upper bound
      on how much adding one free candidate can ever lower this statement's
      cost on top of the fixed context (the value column of the solver's
      fractional-knapsack relaxation).

    All answers are memoized by active-column bitmask: a candidate on an
    unrelated table never changes this statement's mask, so branch-and-bound
    nodes share most of their per-statement work.
    """

    def __init__(
        self,
        name: str,
        weight: float,
        cache: InumCache,
        pool: Sequence[Index],
    ) -> None:
        layout = export_layout(cache)
        key_to_position: Dict[Tuple[str, Tuple[str, ...]], int] = {
            candidate.key: position for position, candidate in enumerate(pool)
        }
        self.name = name
        self.weight = weight
        self.entry_internal: List[float] = list(layout.internal_costs)
        self.full_w: List[List[Tuple[int, float]]] = [
            sorted(weights.items()) for weights in layout.full_weights
        ]
        self.probe_w: List[List[Tuple[int, float]]] = [
            sorted(weights.items()) for weights in layout.probe_weights
        ]
        self.full_cost: List[List[float]] = [list(row) for row in layout.full_costs]
        self.probe_cost: List[List[float]] = [list(row) for row in layout.probe_costs]
        self.class_count = len(layout.classes)
        self.method_count = len(layout.methods)

        heap_mask = 0
        for position in layout.heap_columns:
            heap_mask |= 1 << position
        self.heap_mask = heap_mask

        #: Candidate pool position -> this statement's column bit.  Only
        #: candidates whose access cost was collected appear; everything else
        #: cannot change this statement's cost (the scalar model's treatment
        #: of uncollected access costs).
        self.column_bit: Dict[int, int] = {}
        self.column_of_candidate: Dict[int, int] = {}
        for column, info in enumerate(layout.methods):
            if info.index_key is None:
                continue
            # info.index_key is the index's structural (table, columns) key.
            position = key_to_position.get(info.index_key)
            if position is not None:
                self.column_bit[position] = 1 << column
                self.column_of_candidate[position] = column

        #: Maintenance: the statement's index-independent heap cost and the
        #: per-candidate write coefficients (zero for pure-read statements).
        self.maintenance_base = 0.0
        self.maintenance: Dict[int, float] = {}
        if cache.maintenance is not None:
            profile = cache.maintenance
            self.maintenance_base = profile.base_cost
            for position, cost in enumerate(profile.linear_coefficients(pool)):
                if cost:
                    self.maintenance[position] = cost

        self._use_numpy = _np is not None
        if self._use_numpy:
            entry_count = len(self.entry_internal)
            self._np_full = _np.asarray(self.full_cost, dtype=_np.float64).reshape(
                self.class_count, self.method_count
            )
            self._np_probe = _np.asarray(self.probe_cost, dtype=_np.float64).reshape(
                self.class_count, self.method_count
            )
            self._np_fw = _np.zeros((entry_count, self.class_count), dtype=_np.float64)
            self._np_pw = _np.zeros((entry_count, self.class_count), dtype=_np.float64)
            for entry, weights in enumerate(self.full_w):
                for class_position, value in weights:
                    self._np_fw[entry, class_position] = value
            for entry, weights in enumerate(self.probe_w):
                for class_position, value in weights:
                    self._np_pw[entry, class_position] = value

        # Per class, the worst (largest finite) eligible access cost: the
        # reference for attributing "this plan becomes feasible at all"
        # gains to the enabling candidates (see :meth:`caps`), and the
        # column bitmask of the class's eligible methods (for the slack
        # term's feasibility check).
        self._static_max_full = [
            max((cost for cost in row if cost != _INF), default=_INF)
            for row in self.full_cost
        ]
        self._static_max_probe = [
            max((cost for cost in row if cost != _INF), default=_INF)
            for row in self.probe_cost
        ]
        self._eligible_full_mask = [
            sum(1 << column for column, cost in enumerate(row) if cost != _INF)
            for row in self.full_cost
        ]
        self._eligible_probe_mask = [
            sum(1 << column for column, cost in enumerate(row) if cost != _INF)
            for row in self.probe_cost
        ]

        self._minima_memo: Dict[int, Tuple[List[float], List[float]]] = {}
        self._cost_memo: Dict[int, float] = {}
        self._caps_memo: Dict[int, List[float]] = {}
        self._slack_memo: Dict[Tuple[int, int], float] = {}
        self._rho_memo: Dict[int, Tuple[List[float], List[float]]] = {}

    # -- masks -------------------------------------------------------------

    def active_mask(self, selection: int) -> int:
        """The active-column bitmask under candidate ``selection`` bits."""
        mask = self.heap_mask
        for position, bit in self.column_bit.items():
            if (selection >> position) & 1:
                mask |= bit
        return mask

    # -- exact evaluation --------------------------------------------------

    def minima(self, mask: int) -> Tuple[List[float], List[float]]:
        """Per-slot-class (full, probe) minima over the active columns."""
        cached = self._minima_memo.get(mask)
        if cached is not None:
            return cached
        if self._use_numpy:
            active = _np.zeros(self.method_count, dtype=bool)
            for column in iterate_bits(mask):
                active[column] = True
            full = _np.where(active[None, :], self._np_full, _np.inf).min(axis=1).tolist()
            probe = _np.where(active[None, :], self._np_probe, _np.inf).min(axis=1).tolist()
        else:
            columns = list(iterate_bits(mask))
            full = []
            probe = []
            for class_position in range(self.class_count):
                full_row = self.full_cost[class_position]
                probe_row = self.probe_cost[class_position]
                best_full = _INF
                best_probe = _INF
                for column in columns:
                    value = full_row[column]
                    if value < best_full:
                        best_full = value
                    value = probe_row[column]
                    if value < best_probe:
                        best_probe = value
                full.append(best_full)
                probe.append(best_probe)
        result = (full, probe)
        return _memo_put(self._minima_memo, mask, result, _VECTOR_MEMO_LIMIT)

    def entry_costs(
        self, full: Sequence[float], probe: Sequence[float]
    ) -> List[float]:
        """Per-entry plan costs for given per-class minima (+inf = infeasible).

        Deliberately the same sparse summation the arena's pure-Python
        backend performs, so the formulation's arithmetic matches the
        kernel's within its documented 1e-9 agreement.
        """
        costs = []
        for entry in range(len(self.entry_internal)):
            cost = self.entry_internal[entry]
            for class_position, weight in self.full_w[entry]:
                cost += weight * full[class_position]
            for class_position, weight in self.probe_w[entry]:
                cost += weight * probe[class_position]
            costs.append(cost)
        return costs

    def read_cost_for_mask(self, mask: int) -> float:
        """Cheapest feasible cached plan under the active-column ``mask``."""
        cached = self._cost_memo.get(mask)
        if cached is not None:
            return cached
        full, probe = self.minima(mask)
        best = _INF
        for cost in self.entry_costs(full, probe):
            if cost < best:
                best = cost
        if best == _INF:
            raise AdvisorError(
                f"no cached plan of statement {self.name!r} is feasible; "
                "the cache is missing its heap-only entry"
            )
        return _memo_put(self._cost_memo, mask, best, _MASK_MEMO_LIMIT)

    def cost(self, selection: int) -> float:
        """Exact per-execution cost under ``selection`` (read + maintenance)."""
        read = self.read_cost_for_mask(self.active_mask(selection))
        total = read + self.maintenance_base
        if self.maintenance:
            for position, extra in self.maintenance.items():
                if (selection >> position) & 1:
                    total += extra
        return total

    # -- relaxation ingredients -------------------------------------------

    def _rho(self, base_mask: int) -> Tuple[List[float], List[float]]:
        """The cap reference: base minima, worst eligible cost where infeasible."""
        cached = self._rho_memo.get(base_mask)
        if cached is not None:
            return cached
        base_full, base_probe = self.minima(base_mask)
        rho_full = [
            base_full[c] if base_full[c] != _INF else self._static_max_full[c]
            for c in range(self.class_count)
        ]
        rho_probe = [
            base_probe[c] if base_probe[c] != _INF else self._static_max_probe[c]
            for c in range(self.class_count)
        ]
        result = (rho_full, rho_probe)
        return _memo_put(self._rho_memo, base_mask, result, _VECTOR_MEMO_LIMIT)

    def caps(self, base_mask: int) -> List[float]:
        """Sound per-column benefit caps over the ``base_mask`` context.

        For any additional candidate set ``T``::

            read(base) - read(base + T)  <=  slack + sum_{i in T} caps[column(i)]

        (``slack`` from :meth:`slack`), derived from the per-plan identity
        ``read(base) - cost_p(base+T) = D_p + sum_c w_pc (rho_c -
        min_c(base+T))`` with the reference ``rho_c`` set to the base
        minimum where the class is feasible and to the *worst* eligible
        access cost where it is not.  ``caps[m]`` charges method ``m`` its
        largest possible single-plan contribution ``max_p sum_c w_pc (rho_c
        - cost_cm)+``.  Only per-class monotonicity of the minima is used;
        submodularity is never assumed.

        Keyed by ``base_mask`` alone (the reference ignores which
        candidates are still free), so branch-and-bound nodes that differ
        only in forced-out candidates share one cached answer.
        """
        cached = self._caps_memo.get(base_mask)
        if cached is not None:
            return cached
        rho_full, rho_probe = self._rho(base_mask)
        caps = self._caps_for_columns(rho_full, rho_probe)
        return _memo_put(self._caps_memo, base_mask, caps, _VECTOR_MEMO_LIMIT)

    def slack(self, base_mask: int, all_mask: int) -> float:
        """The cap bound's unattributable term: ``K = max_p (D_p)+``.

        ``D_p = read(base) - (internal_p + sum_c w_pc rho_c)`` is what plan
        ``p`` gains over the base optimum even when every infeasible class
        is served by its *worst* enabler -- a gain no single candidate can
        be charged for.  Plans needing a class with no eligible method left
        in ``all_mask`` (every enabler was forced out) are infeasible in any
        completion of this node and claim nothing.
        """
        key = (base_mask, all_mask)
        cached = self._slack_memo.get(key)
        if cached is not None:
            return cached
        base_full, base_probe = self.minima(base_mask)
        rho_full, rho_probe = self._rho(base_mask)
        read_base = self.read_cost_for_mask(base_mask)
        slack = 0.0
        for entry in range(len(self.entry_internal)):
            cost = self.entry_internal[entry]
            feasible = True
            for class_position, weight in self.full_w[entry]:
                rho = rho_full[class_position]
                if rho == _INF or (
                    base_full[class_position] == _INF
                    and not (self._eligible_full_mask[class_position] & all_mask)
                ):
                    feasible = False
                    break
                cost += weight * rho
            if feasible:
                for class_position, weight in self.probe_w[entry]:
                    rho = rho_probe[class_position]
                    if rho == _INF or (
                        base_probe[class_position] == _INF
                        and not (self._eligible_probe_mask[class_position] & all_mask)
                    ):
                        feasible = False
                        break
                    cost += weight * rho
            if feasible:
                gain = read_base - cost
                if gain > slack:
                    slack = gain
        return _memo_put(self._slack_memo, key, slack, _MASK_MEMO_LIMIT)

    def _caps_for_columns(
        self,
        reference_full: Sequence[float],
        reference_probe: Sequence[float],
    ) -> List[float]:
        """Per column: ``max over plans of sum_c weight * (reference_c - cost_cm)+``."""
        if self._use_numpy:
            ref_full = _np.asarray(reference_full, dtype=_np.float64)
            ref_probe = _np.asarray(reference_probe, dtype=_np.float64)
            # A class with no eligible method at all keeps an infinite
            # reference; its gains (inf - inf = nan, inf - cost = inf) are
            # cleared -- such a class can never contribute to any plan.
            with _np.errstate(invalid="ignore"):
                gains_full = ref_full[:, None] - self._np_full
                gains_probe = ref_probe[:, None] - self._np_probe
            gains_full[~_np.isfinite(gains_full)] = 0.0
            gains_probe[~_np.isfinite(gains_probe)] = 0.0
            _np.clip(gains_full, 0.0, None, out=gains_full)
            _np.clip(gains_probe, 0.0, None, out=gains_probe)
            per_plan = self._np_fw @ gains_full + self._np_pw @ gains_probe
            if not per_plan.size:
                return [0.0] * self.method_count
            return per_plan.max(axis=0).tolist()

        gains_full = [[0.0] * self.method_count for _ in range(self.class_count)]
        gains_probe = [[0.0] * self.method_count for _ in range(self.class_count)]
        for class_position in range(self.class_count):
            reference = reference_full[class_position]
            if reference != _INF:
                row = self.full_cost[class_position]
                out = gains_full[class_position]
                for column in range(self.method_count):
                    value = reference - row[column]
                    if value > 0.0 and value != _INF:
                        out[column] = value
            reference = reference_probe[class_position]
            if reference != _INF:
                row = self.probe_cost[class_position]
                out = gains_probe[class_position]
                for column in range(self.method_count):
                    value = reference - row[column]
                    if value > 0.0 and value != _INF:
                        out[column] = value
        caps = [0.0] * self.method_count
        for entry in range(len(self.entry_internal)):
            accumulator = [0.0] * self.method_count
            for class_position, weight in self.full_w[entry]:
                row = gains_full[class_position]
                for column in range(self.method_count):
                    if row[column]:
                        accumulator[column] += weight * row[column]
            for class_position, weight in self.probe_w[entry]:
                row = gains_probe[class_position]
                for column in range(self.method_count):
                    if row[column]:
                        accumulator[column] += weight * row[column]
            for column in range(self.method_count):
                if accumulator[column] > caps[column]:
                    caps[column] = accumulator[column]
        return caps

    # -- BIP accounting ----------------------------------------------------

    def bip_counts(self) -> Tuple[int, int, int]:
        """(plan variables, assignment variables, constraints) of this slice."""
        plan_variables = len(self.entry_internal)
        assignment_variables = 0
        constraints = 1  # one-plan-per-statement
        for entry in range(plan_variables):
            needed = [c for c, _ in self.full_w[entry]] + [
                c for c, _ in self.probe_w[entry]
            ]
            for class_position in set(needed):
                eligible = sum(
                    1
                    for column in range(self.method_count)
                    if self.full_cost[class_position][column] != _INF
                    or self.probe_cost[class_position][column] != _INF
                )
                assignment_variables += eligible
                constraints += 1  # the class-served equality
                # z <= x linking rows: one per index-backed eligible method.
                constraints += sum(
                    1
                    for column in range(self.method_count)
                    if not ((self.heap_mask >> column) & 1)
                    and (
                        self.full_cost[class_position][column] != _INF
                        or self.probe_cost[class_position][column] != _INF
                    )
                )
        return plan_variables, assignment_variables, constraints


class IlpFormulation:
    """The workload-level BIP: per-statement programs plus the knapsack."""

    def __init__(
        self,
        programs: List[StatementProgram],
        candidates: List[Index],
        sizes: List[int],
        space_budget_bytes: int,
    ) -> None:
        # The shared validation path of AdvisorOptions/RecommendRequest.
        validate_tuning_limits(space_budget_bytes=space_budget_bytes)
        self.programs = programs
        self.candidates = candidates
        self.sizes = sizes
        self.budget = space_budget_bytes
        #: Weighted per-candidate maintenance coefficients (the objective's
        #: linear-in-x row) and the selection-independent constant.
        self.weighted_maintenance: List[float] = [0.0] * len(candidates)
        self.maintenance_constant = 0.0
        for program in programs:
            self.maintenance_constant += program.weight * program.maintenance_base
            for position, extra in program.maintenance.items():
                self.weighted_maintenance[position] += program.weight * extra

        # Scatter arrays for :meth:`benefit_values`: every (program,
        # candidate) pair with a collected access-method column, flattened
        # program-major over one arena-style global cap axis (program
        # ``p``'s caps vector occupies slots ``[bases[p], bases[p] +
        # method_count)``).  Built once; the solver reuses them at every
        # branch-and-bound node.
        self._cap_scatter = None
        if _np is not None:
            positions: List[int] = []
            slots: List[int] = []
            pair_weights: List[float] = []
            bases: List[int] = []
            base = 0
            for program in programs:
                bases.append(base)
                for position, column in program.column_of_candidate.items():
                    positions.append(position)
                    slots.append(base + column)
                    pair_weights.append(program.weight)
                base += program.method_count
            self._cap_scatter = (
                _np.asarray(positions, dtype=_np.intp),
                _np.asarray(slots, dtype=_np.intp),
                _np.asarray(pair_weights, dtype=_np.float64),
                bases,
                base,
            )

    # -- evaluation --------------------------------------------------------

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)

    def total_size(self, selection: int) -> int:
        """Bytes of the selected candidate indexes."""
        return sum(self.sizes[position] for position in iterate_bits(selection))

    def fits(self, selection: int) -> bool:
        """Whether the selection satisfies the space-budget knapsack."""
        return self.total_size(selection) <= self.budget

    def statement_costs(self, selection: int) -> Dict[str, float]:
        """Per-execution statement costs under ``selection`` (for tests)."""
        return {program.name: program.cost(selection) for program in self.programs}

    def cost(self, selection: int) -> float:
        """The BIP objective at an integral ``x`` assignment (weighted)."""
        total = 0.0
        for program in self.programs:
            total += program.weight * program.cost(selection)
        return total

    def benefit_values(self, caps_rows: Sequence[Sequence[float]]) -> List[float]:
        """Per-candidate benefit caps, scattered from per-program caps.

        ``caps_rows`` holds each program's :meth:`StatementProgram.caps`
        vector, in program order.  The result is the value column of the
        solver's fractional-knapsack relaxation:
        ``values[i] = sum_q w_q * caps_q[column_q(i)]`` over every program
        that collected candidate ``i``.

        With numpy the accumulation is one gather + ``np.add.at`` over the
        precomputed scatter arrays (the same fused global-candidate axis the
        :class:`~repro.inum.arena.WorkloadArena` stacks its columns on);
        ``np.add.at`` is unbuffered and applies additions in index order, so
        the floats match the pure-Python program-major loop bit for bit.
        """
        if self._cap_scatter is not None:
            positions, slots, pair_weights, bases, total = self._cap_scatter
            flat = _np.zeros(total, dtype=_np.float64)
            for base, caps in zip(bases, caps_rows):
                flat[base : base + len(caps)] = caps
            values = _np.zeros(self.candidate_count, dtype=_np.float64)
            _np.add.at(values, positions, pair_weights * flat[slots])
            return values.tolist()
        values = [0.0] * self.candidate_count
        for program, caps in zip(self.programs, caps_rows):
            for position, column in program.column_of_candidate.items():
                cap = caps[column]
                if cap:
                    values[position] += program.weight * cap
        return values

    def selected(self, selection: int) -> List[Index]:
        """The chosen :class:`Index` objects, in pool order."""
        return [self.candidates[position] for position in iterate_bits(selection)]

    def selection_of(self, indexes: Sequence[Index]) -> int:
        """The bitmask of ``indexes`` (unknown candidates are ignored)."""
        by_key = {candidate.key: position for position, candidate in enumerate(self.candidates)}
        bits = 0
        for index in indexes:
            position = by_key.get(index.key)
            if position is not None:
                bits |= 1 << position
        return bits

    # -- reporting ---------------------------------------------------------

    @property
    def statistics(self) -> FormulationStatistics:
        """Explicit size of the compiled BIP."""
        plan_variables = 0
        assignment_variables = 0
        constraints = 1  # the knapsack row
        for program in self.programs:
            plans, assignments, rows = program.bip_counts()
            plan_variables += plans
            assignment_variables += assignments
            constraints += rows
        return FormulationStatistics(
            statements=len(self.programs),
            candidates=len(self.candidates),
            index_variables=len(self.candidates),
            plan_variables=plan_variables,
            assignment_variables=assignment_variables,
            constraints=constraints,
        )


def build_formulation(
    cost_model,
    catalog: Catalog,
    candidates: Sequence[Index],
    space_budget_bytes: int,
) -> IlpFormulation:
    """Compile a cache-backed cost model's caches into an :class:`IlpFormulation`.

    ``cost_model`` must expose per-statement plan caches (``caches``),
    statement ``weights`` and the workload ``queries`` --
    :class:`~repro.advisor.benefit.CacheBackedWorkloadCostModel` does; the
    raw optimizer oracle has no caches to formulate and is rejected.
    Duplicate candidate keys collapse onto their first occurrence, exactly
    as the greedy selectors treat them.
    """
    caches = getattr(cost_model, "caches", None)
    if caches is None:
        raise AdvisorError(
            "the 'ilp' selector needs a cache-backed cost model ('pinum' or "
            "'inum'); the raw optimizer oracle has no plan caches to compile "
            "into a BIP"
        )

    pool: List[Index] = []
    key_to_position: Dict[Tuple[str, Tuple[str, ...]], int] = {}
    for candidate in candidates:
        if candidate.key not in key_to_position:
            key_to_position[candidate.key] = len(pool)
            pool.append(candidate)
    sizes = [catalog.index_size_bytes(candidate) for candidate in pool]

    programs: List[StatementProgram] = []
    for query in cost_model.queries:
        cache = caches.get(query.name)
        if cache is None:
            raise AdvisorError(f"no cache was built for statement {query.name!r}")
        programs.append(
            StatementProgram(
                query.name,
                cost_model.weight_of(query.name),
                cache,
                pool,
            )
        )
    return IlpFormulation(programs, pool, sizes, space_budget_bytes)
