"""Anytime branch-and-bound over the index-selection BIP (no solver deps).

The :class:`~repro.advisor.ilp.formulation.IlpFormulation` makes the inner
plan/access-method choice trivial for integral index selections, so the
combinatorial core is the 0/1 knapsack-constrained selection of index
binaries.  :class:`BranchAndBoundSolver` searches that space best-first:

* **Warm start** -- the caller seeds the incumbent with the lazy-greedy
  selection, so the solver can never return anything worse and its very
  first bound already has a meaningful gap to report.
* **Bounds** -- each node (a partial assignment: some indexes forced in,
  some forced out) is bounded by the maximum of two relaxations of the BIP:

  1. the *monotone* relaxation: drop the knapsack row for the free
     variables and build every free index for free (per-class access minima
     are monotone in the active set, so this is the LP bound of the program
     with the budget row removed), and
  2. the *knapsack* relaxation: keep the budget row, relax the plan/method
     rows into a slack plus per-free-index benefit caps (a sound
     per-variable bound on the objective decrease, no submodularity
     assumed) and solve the remaining LP exactly -- its optimum is the
     classic fractional knapsack, computed here directly.

  Both relaxations read their weighted terms from one
  :meth:`~repro.inum.arena.WorkloadArena.bound_terms` call per node
  (through :meth:`~repro.advisor.ilp.formulation.IlpFormulation
  .bound_terms`), on the arena's numpy or pure-Python backend.

* **Anytime** -- every node greedily completes its fixed part into a
  feasible selection (a "dive") that can improve the incumbent, and the
  search stops on ``time_limit``/``gap``/``max_nodes``, always reporting
  the *proven* optimality gap ``(incumbent - best open bound) / incumbent``.

With the default ``gap=0`` the solver runs until the bound meets the
incumbent and the result is proven optimal (status ``"optimal"``, gap 0.0).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.advisor.advisor import validate_tuning_limits
from repro.advisor.ilp.formulation import IlpFormulation, iterate_bits
from repro.catalog.index import Index
from repro.util.errors import AdvisorError

_INF = float("inf")

#: Relative tolerance under which a gap is considered closed (floating-point
#: snap, far below any cost difference the cache arithmetic can produce).
GAP_SNAP = 1e-9


@dataclass(frozen=True)
class IlpSolverOptions:
    """Knobs of one solve: target gap, wall-clock budget, node safety cap."""

    gap: float = 0.0
    time_limit: Optional[float] = 60.0
    max_nodes: int = 500_000

    def __post_init__(self) -> None:
        # The shared validation path of AdvisorOptions/RecommendRequest.
        validate_tuning_limits(ilp_gap=self.gap, ilp_time_limit=self.time_limit)
        if self.max_nodes < 1:
            raise AdvisorError(f"ilp node limit must be >= 1, got {self.max_nodes}")


@dataclass
class IlpSolution:
    """Outcome of one solve, incumbent plus the proof state."""

    selection: int
    selected: List[Index]
    objective: float
    best_bound: float
    optimality_gap: float
    nodes_explored: int
    incumbent_source: str
    status: str

    @property
    def proved_optimal(self) -> bool:
        """Whether the search closed the gap completely."""
        return self.status == "optimal"


class _Node:
    """One branch-and-bound node: a partial assignment plus its bound."""

    __slots__ = ("fixed", "free", "used_bytes", "bound", "branch_position")

    def __init__(
        self,
        fixed: int,
        free: int,
        used_bytes: int,
        bound: float,
        branch_position: Optional[int],
    ) -> None:
        self.fixed = fixed
        self.free = free
        self.used_bytes = used_bytes
        self.bound = bound
        self.branch_position = branch_position


class BranchAndBoundSolver:
    """Best-first branch and bound over an :class:`IlpFormulation`."""

    def __init__(
        self, formulation: IlpFormulation, options: Optional[IlpSolverOptions] = None
    ) -> None:
        self._formulation = formulation
        self._options = options or IlpSolverOptions()
        # Static branching order: big indexes first (they dominate the
        # knapsack), candidate position as the deterministic tie-break.
        self._branch_order = sorted(
            range(formulation.candidate_count),
            key=lambda position: (-formulation.sizes[position], position),
        )

    # -- bounds ------------------------------------------------------------

    def _filter_free(self, free: int, remaining_bytes: int) -> int:
        """Drop free candidates that individually overflow the remaining budget."""
        sizes = self._formulation.sizes
        for position in iterate_bits(free):
            if sizes[position] > remaining_bytes:
                free &= ~(1 << position)
        return free

    def _evaluate(
        self, fixed: int, free: int, used_bytes: int
    ) -> Tuple[float, Optional[int], int]:
        """Bound a node; returns (lower bound, branch position, dive bits).

        The dive bits are a feasible completion of ``fixed`` (greedy fill of
        the free candidates in cap-density order) the caller may evaluate
        exactly as an incumbent candidate.
        """
        formulation = self._formulation
        fixed_maintenance = formulation.maintenance_constant
        for position in iterate_bits(fixed):
            fixed_maintenance += formulation.weighted_maintenance[position]

        if not free:
            bound = formulation.cost(fixed)
            return bound, None, fixed

        base_read, monotone_read, slack, caps = formulation.bound_terms(fixed, free)

        remaining = formulation.budget - used_bytes
        items = []
        for position in iterate_bits(free):
            value = caps.get(position, 0.0) - formulation.weighted_maintenance[position]
            if value > 0.0:
                size = max(1, formulation.sizes[position])
                items.append((value / size, value, size, position))
        items.sort(reverse=True)

        # Fractional knapsack: the exact LP optimum of the relaxed program's
        # remaining (budget) row.
        knapsack_value = 0.0
        capacity = remaining
        dive = fixed
        dive_left = remaining
        for _, value, size, position in items:
            if size <= capacity:
                knapsack_value += value
                capacity -= size
            else:
                if capacity > 0:
                    knapsack_value += value * (capacity / size)
                    capacity = 0
            if size <= dive_left:
                dive |= 1 << position
                dive_left -= size

        # Branch on the first undecided candidate in the static order (index
        # size descending): the budget-heavy decisions -- which of the few
        # multi-gigabyte fact-table indexes to build -- sit at the top of
        # the tree, and once they are all fixed the cheap remainder usually
        # fits the leftover budget entirely, at which point the monotone
        # bound is *exact* and the subtree closes immediately.
        branch_position = None
        for position in self._branch_order:
            if (free >> position) & 1:
                branch_position = position
                break
        if branch_position is None:  # pragma: no cover - free is non-empty
            branch_position = next(iterate_bits(free))

        monotone_bound = monotone_read + fixed_maintenance
        knapsack_bound = base_read + fixed_maintenance - slack - knapsack_value
        return max(monotone_bound, knapsack_bound), branch_position, dive

    # -- search ------------------------------------------------------------

    def solve(self, warm_selection: int = 0, warm_source: str = "warm-start") -> IlpSolution:
        """Run the search from a feasible ``warm_selection`` incumbent."""
        formulation = self._formulation
        options = self._options
        started = time.monotonic()

        if not formulation.fits(warm_selection):
            raise AdvisorError(
                "the warm-start selection violates the space budget "
                f"({formulation.total_size(warm_selection)} > {formulation.budget} bytes)"
            )
        incumbent = warm_selection
        incumbent_cost = formulation.cost(warm_selection)
        incumbent_source = warm_source

        def snap_tolerance() -> float:
            return GAP_SNAP * max(1.0, abs(incumbent_cost))

        def threshold() -> float:
            return incumbent_cost - max(
                options.gap * abs(incumbent_cost), snap_tolerance()
            )

        root_free = self._filter_free(
            (1 << formulation.candidate_count) - 1, formulation.budget
        )
        nodes_explored = 0
        bound, branch, dive = self._evaluate(0, root_free, 0)
        dive_cost = formulation.cost(dive)
        if dive_cost < incumbent_cost - snap_tolerance():
            incumbent, incumbent_cost, incumbent_source = dive, dive_cost, "solver"

        counter = 0
        heap: List[Tuple[float, int, _Node]] = []
        heapq.heappush(heap, (bound, counter, _Node(0, root_free, 0, bound, branch)))

        # The proof floor: the global lower bound is the minimum over every
        # *open* node (the heap) and every node discarded against the
        # gap-relaxed threshold.  Forgetting the discarded bounds would let
        # a gap-limited run report a tighter proof than it actually has.
        pruned_bound = _INF
        interrupted: Optional[str] = None
        best_bound = incumbent_cost
        while heap:
            if options.time_limit is not None and (
                time.monotonic() - started >= options.time_limit
            ):
                interrupted = "time_limit"
                best_bound = min(heap[0][0], pruned_bound)
                break
            if nodes_explored >= options.max_nodes:
                interrupted = "node_limit"
                best_bound = min(heap[0][0], pruned_bound)
                break

            bound, _, node = heapq.heappop(heap)
            if bound >= threshold():
                # Best-first: every open node is at least this bound, so the
                # incumbent is within the requested gap of the true optimum.
                best_bound = min(bound, pruned_bound)
                break
            nodes_explored += 1
            if node.branch_position is None:
                continue  # leaf: its dive already priced the exact selection

            bit = 1 << node.branch_position
            size = formulation.sizes[node.branch_position]
            children = []
            with_used = node.used_bytes + size
            if with_used <= formulation.budget:
                children.append(
                    (
                        node.fixed | bit,
                        self._filter_free(
                            node.free & ~bit, formulation.budget - with_used
                        ),
                        with_used,
                    )
                )
            children.append((node.fixed, node.free & ~bit, node.used_bytes))

            for fixed, free, used in children:
                child_bound, child_branch, child_dive = self._evaluate(fixed, free, used)
                child_dive_cost = formulation.cost(child_dive)
                if child_dive_cost < incumbent_cost - snap_tolerance():
                    incumbent = child_dive
                    incumbent_cost = child_dive_cost
                    incumbent_source = "solver"
                if child_bound < threshold():
                    counter += 1
                    heapq.heappush(
                        heap,
                        (
                            child_bound,
                            counter,
                            _Node(fixed, free, used, child_bound, child_branch),
                        ),
                    )
                else:
                    pruned_bound = min(pruned_bound, child_bound)
        else:
            # Heap exhausted: nothing is open, so the proof floor is
            # whatever survived the threshold pruning (with gap=0 that is
            # the incumbent itself, i.e. proven optimality).
            best_bound = min(pruned_bound, incumbent_cost)

        if incumbent_cost - best_bound <= snap_tolerance():
            best_bound = incumbent_cost
            optimality_gap = 0.0
            status = "optimal"
        else:
            if incumbent_cost > 0:
                optimality_gap = max(
                    0.0, (incumbent_cost - best_bound) / incumbent_cost
                )
            else:
                optimality_gap = 0.0
            status = interrupted if interrupted is not None else "gap_reached"

        return IlpSolution(
            selection=incumbent,
            selected=formulation.selected(incumbent),
            objective=incumbent_cost,
            best_bound=best_bound,
            optimality_gap=optimality_gap,
            nodes_explored=nodes_explored,
            incumbent_source=incumbent_source,
            status=status,
        )


def solve_by_enumeration(formulation: IlpFormulation, limit: int = 24) -> IlpSolution:
    """Brute-force the BIP by enumerating every budget-feasible selection.

    Exponential -- refuse beyond ``limit`` candidates.  The test suite uses
    this as the ground truth the branch-and-bound solver must match exactly
    on small instances.
    """
    count = formulation.candidate_count
    if count > limit:
        raise AdvisorError(
            f"enumeration over {count} candidates would visit 2^{count} "
            f"selections (limit {limit})"
        )
    best_bits = 0
    best_cost = formulation.cost(0)
    explored = 0
    for bits in range(1, 1 << count):
        if not formulation.fits(bits):
            continue
        explored += 1
        cost = formulation.cost(bits)
        if cost < best_cost:
            best_cost = cost
            best_bits = bits
    return IlpSolution(
        selection=best_bits,
        selected=formulation.selected(best_bits),
        objective=best_cost,
        best_bound=best_cost,
        optimality_gap=0.0,
        nodes_explored=explored,
        incumbent_source="enumeration",
        status="optimal",
    )
