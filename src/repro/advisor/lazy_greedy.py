"""CELF-style lazy greedy selection (far fewer evaluations, usually the same picks).

The exhaustive loop re-evaluates *every* remaining candidate in *every*
iteration, although a candidate's benefit usually only shrinks as winners
accumulate (adding an index can only lower the cost the next index is
compared against -- the diminishing-returns property greedy index selection
relies on).  The lazy variant (Leskovec et al.'s CELF applied to index
selection) exploits that: it keeps candidates in a max-heap of *stale*
benefit upper bounds and only re-evaluates the top of the heap until the
freshly evaluated candidate stays on top, at which point no stale bound
below it can beat it.  The first round scores the whole frontier in one
batched kernel call; afterwards stale bounds are re-scored one at a time.
The loop is the same whatever the evaluation engine.

Tie-breaking mirrors the exhaustive scan: the heap orders equal benefits by
original candidate position, so among exact ties the earliest candidate wins
-- which is what ``cost < best_cost`` (strict) picks in the exhaustive loop.
Candidates that no longer fit the remaining space budget are dropped
permanently when popped, and the loop stops on the same
``min_relative_benefit`` condition, so wherever diminishing returns hold the
produced :class:`~repro.advisor.greedy.SelectionStep` sequence is identical
to :class:`~repro.advisor.greedy.GreedySelector`'s (asserted on the fig-7
golden workload and by the selection benchmark).

The identity guarantee is exactly as strong as the diminishing-returns
assumption.  The INUM cost model is not provably submodular: a cached plan
whose slots need orders on *two* tables stays infeasible until covering
indexes exist on both, so picking the first index can *grow* the second's
benefit -- a growth a stale upper bound never advertises, which makes the
lazy loop settle for a different (never budget-violating, possibly slightly
worse) set than the exhaustive scan.  The reproduction's mixed read/write
star workload (10 reads + 8 DML, seed 7, ``candidate_policy="per_query"``)
is such a case: from a 4 GB budget up lazy returns 16 indexes at cost
20 413 671.08 where the exhaustive scan finds 17 at 20 409 671.08 (0.02 %
cheaper), and the two differ at 7 of the 8 budgets of a 1-8 GB sweep
(pinned in ``tests/test_golden_recommend.py``).  ``--selector exhaustive``
remains the reference loop when in doubt.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from repro.advisor.benefit import IncrementalWorkloadEvaluator, WorkloadCostModel
from repro.advisor.greedy import SelectionStatistics, SelectionStep
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.obs.trace import get_tracer
from repro.util.errors import AdvisorError
from repro.util.timing import timed


class LazyGreedySelector:
    """Lazy (CELF) greedy selection of indexes under a space budget.

    Drop-in replacement for :class:`~repro.advisor.greedy.GreedySelector`:
    same constructor, same ``select`` contract, identical picks wherever
    diminishing returns hold (see the module docstring).
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: WorkloadCostModel,
        space_budget_bytes: int,
        min_relative_benefit: float = 1e-4,
    ) -> None:
        if space_budget_bytes <= 0:
            raise AdvisorError(f"space budget must be positive, got {space_budget_bytes}")
        self._catalog = catalog
        self._cost_model = cost_model
        self._budget = space_budget_bytes
        self._min_relative_benefit = min_relative_benefit
        #: Statistics of the most recent :meth:`select` run.
        self.statistics = SelectionStatistics()

    def select(self, candidates: Sequence[Index]) -> List[SelectionStep]:
        """Run the lazy greedy loop and return the chosen indexes in pick order."""
        with get_tracer().span(
            "select.lazy", candidates=len(candidates)
        ) as span, timed() as timer:
            return self._select(candidates, span, timer)

    def _select(self, candidates: Sequence[Index], span, timer) -> List[SelectionStep]:
        stats = SelectionStatistics()
        self.statistics = stats
        evaluations_before = self._cost_model.query_evaluations

        evaluator = IncrementalWorkloadEvaluator(self._cost_model)
        current_cost = evaluator.total
        baseline_cost = current_cost
        winners: List[Index] = []
        steps: List[SelectionStep] = []
        used_bytes = 0

        # Heap entries: (-benefit, original position, evaluation stamp,
        # evaluated workload cost, candidate).  A stamp equal to the current
        # iteration means the bound is exact for the current winner set.
        # Duplicate (table, columns) keys are interchangeable for selection,
        # so only the first occurrence enters the heap -- the exhaustive loop
        # removes all duplicates of a pick at once, with the same effect.
        iteration = 1
        first_round: List[Tuple[int, Index]] = []
        seen_keys = set()
        for position, candidate in enumerate(candidates):
            if candidate.key in seen_keys:
                continue
            seen_keys.add(candidate.key)
            if self._catalog.index_size_bytes(candidate) > self._budget:
                stats.pruned_for_space += 1
                continue
            first_round.append((position, candidate))
        # Every bound starts exact: the first round is one whole-frontier call.
        costs = evaluator.frontier(winners, [candidate for _, candidate in first_round])
        stats.candidate_evaluations += len(first_round)
        heap: List[Tuple[float, int, int, float, Index]] = [
            (cost - current_cost, position, iteration, cost, candidate)
            for (position, candidate), cost in zip(first_round, costs)
        ]
        heapq.heapify(heap)

        while heap:
            stats.iterations += 1
            chosen = None
            chosen_cost = current_cost
            while heap:
                negated_benefit, position, stamp, cost, candidate = heapq.heappop(heap)
                if used_bytes + self._catalog.index_size_bytes(candidate) > self._budget:
                    stats.pruned_for_space += 1
                    continue
                if stamp == iteration:
                    chosen = candidate
                    chosen_cost = cost
                    break
                cost = evaluator.cost_with(winners, candidate)
                stats.candidate_evaluations += 1
                heapq.heappush(
                    heap, (cost - current_cost, position, iteration, cost, candidate)
                )

            if chosen is None or not chosen_cost < current_cost:
                break
            benefit = current_cost - chosen_cost
            if baseline_cost > 0 and benefit / baseline_cost < self._min_relative_benefit:
                break

            winners.append(chosen)
            used_bytes += self._catalog.index_size_bytes(chosen)
            evaluator.commit(winners, chosen)
            steps.append(
                SelectionStep(
                    chosen=chosen,
                    workload_cost_before=current_cost,
                    workload_cost_after=chosen_cost,
                    cumulative_size_bytes=used_bytes,
                )
            )
            current_cost = chosen_cost
            iteration += 1

        stats.seconds = timer.elapsed()
        stats.query_evaluations = self._cost_model.query_evaluations - evaluations_before
        span.set(rounds=stats.iterations, evaluations=stats.candidate_evaluations)
        stats.publish("lazy")
        return steps
