"""Posing index selection over INUM plan caches as a binary integer program.

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
method -- which is exactly what the workload arena
(:mod:`repro.inum.arena`) evaluates.  The formulation therefore keeps no
coefficients of its own: :meth:`IlpFormulation.cost` is one arena
evaluation, and the branch-and-bound ingredients are one
:meth:`~repro.inum.arena.WorkloadArena.bound_terms` call, on whichever
backend the arena runs.

Candidate selections are passed around as **bitmasks** over the deduplicated
candidate pool (bit ``j`` set = candidate ``j`` selected), which makes the
branch-and-bound solver's node bookkeeping cheap and hashable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.advisor.advisor import validate_tuning_limits
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.inum.arena import WorkloadArena, compile_arena
from repro.util.errors import AdvisorError


def iterate_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _weighted(weights: Sequence[float], values: Sequence[float]) -> float:
    return sum(weight * value for weight, value in zip(weights, values))


class IlpFormulation:
    """The workload-level BIP: the arena's plan arithmetic plus the knapsack."""

    def __init__(
        self,
        arena: WorkloadArena,
        weights: Sequence[float],
        candidates: List[Index],
        sizes: List[int],
        space_budget_bytes: int,
    ) -> None:
        # The shared validation path of AdvisorOptions/RecommendRequest.
        validate_tuning_limits(space_budget_bytes=space_budget_bytes)
        self.arena = arena
        #: Statement weights, aligned with ``arena.query_names``.
        self.weights = list(weights)
        self.candidates = candidates
        self.sizes = sizes
        self.budget = space_budget_bytes
        #: Each candidate's arena column; ``None`` when no statement
        #: collected its access cost, so it cannot change any read cost.
        self.columns: List[Optional[int]] = [
            arena.column_for(candidate) for candidate in candidates
        ]
        #: Weighted per-candidate maintenance coefficients (the objective's
        #: linear-in-x row) and the selection-independent constant.
        self.maintenance_constant = _weighted(self.weights, arena.maintenance_base)
        self.weighted_maintenance: List[float] = [
            _weighted(self.weights, arena.maintenance_row(candidate))
            for candidate in candidates
        ]

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)

    def total_size(self, selection: int) -> int:
        """Bytes of the selected candidate indexes."""
        return sum(self.sizes[position] for position in iterate_bits(selection))

    def fits(self, selection: int) -> bool:
        """Whether the selection satisfies the space-budget knapsack."""
        return self.total_size(selection) <= self.budget

    def cost(self, selection: int) -> float:
        """The BIP objective at an integral ``x`` assignment (weighted)."""
        return self.arena.evaluate(self.selected(selection), self.weights)

    def bound_terms(self, fixed: int, free: int) -> Tuple[float, float, float, Dict[int, float]]:
        """A node's weighted bound ingredients, from one arena call.

        Returns the read cost under ``fixed`` and under ``fixed | free``,
        the slack, and the benefit cap of every free candidate with a
        column -- the value column of the solver's fractional knapsack
        (see :class:`~repro.inum.arena.BoundTerms`).
        """
        columns = self.columns
        fixed_columns = [columns[position] for position in iterate_bits(fixed)]
        capped = [position for position in iterate_bits(free) if columns[position] is not None]
        terms = self.arena.bound_terms(
            [column for column in fixed_columns if column is not None],
            [columns[position] for position in capped],
            self.weights,
        )
        return (
            terms.read_fixed,
            terms.read_everything,
            terms.slack,
            dict(zip(capped, terms.caps)),
        )

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


def build_formulation(
    cost_model,
    catalog: Catalog,
    candidates: Sequence[Index],
    space_budget_bytes: int,
) -> IlpFormulation:
    """Pose the selection BIP over a cache-backed cost model's caches.

    ``cost_model`` must expose per-statement plan caches (``caches``),
    statement weights and the workload ``queries`` --
    :class:`~repro.advisor.benefit.CacheBackedWorkloadCostModel` does; the
    raw optimizer oracle has no caches to formulate and is rejected.  The
    model's arena is reused; under the scalar oracle (which has none) one
    is compiled over the same caches.  Duplicate candidate keys collapse
    onto their first occurrence, exactly as the greedy selectors treat them.
    """
    caches = getattr(cost_model, "caches", None)
    if caches is None:
        raise AdvisorError(
            "the 'ilp' selector needs a cache-backed cost model ('pinum' or "
            "'inum'); the raw optimizer oracle has no plan caches to compile "
            "into a BIP"
        )

    pool: List[Index] = []
    seen = set()
    for candidate in candidates:
        if candidate.key not in seen:
            seen.add(candidate.key)
            pool.append(candidate)
    sizes = [catalog.index_size_bytes(candidate) for candidate in pool]

    arena = cost_model.arena
    if arena is None:
        arena = compile_arena(cost_model.queries, caches)
    weights = [cost_model.weight_of(name) for name in arena.query_names]
    return IlpFormulation(arena, weights, pool, sizes, space_budget_bytes)
