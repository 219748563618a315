"""The greedy index-selection algorithm (Section V-E).

"It then follows an iterative algorithm, and selects the index which provides
the most benefit to the workload.  To determine the index, it iterates over
all candidate indexes, measures their benefit if used along with the winning
indexes of earlier iterations.  It adds the index with most benefit to the
winning set, and iterates till adding an index would violate the space
constraint."

This module keeps the paper's exhaustive loop, the reference;
:mod:`repro.advisor.lazy_greedy` provides the CELF-style accelerated search
(the same picks wherever diminishing returns hold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.advisor.benefit import IncrementalWorkloadEvaluator, WorkloadCostModel
from repro.obs.instruments import ILP_NODES, SELECTION_EVALUATIONS, SELECTION_SECONDS
from repro.obs.trace import get_tracer
from repro.util.errors import AdvisorError
from repro.util.timing import timed


@dataclass
class SelectionStep:
    """One iteration of the greedy loop (for reporting and tests)."""

    chosen: Index
    workload_cost_before: float
    workload_cost_after: float
    cumulative_size_bytes: int

    @property
    def benefit(self) -> float:
        """Workload cost reduction achieved by this step's index."""
        return self.workload_cost_before - self.workload_cost_after


@dataclass
class SelectionStatistics:
    """How much work one selection run spent (for reports and benchmarks).

    One shared shape for every registered selector.  The greedy loops fill
    the effort counters and leave the proof fields at their defaults
    (``optimality_gap=None`` renders as "n/a" -- a heuristic has no bound);
    the ILP selector additionally reports its branch-and-bound proof state.
    """

    seconds: float = 0.0
    iterations: int = 0
    candidate_evaluations: int = 0
    query_evaluations: int = 0
    pruned_for_space: int = 0
    #: Proven relative optimality gap: 0.0 = proved optimal, ``None`` = no
    #: bound available (the greedy heuristics).
    optimality_gap: Optional[float] = None
    #: Branch-and-bound nodes expanded (0 for the greedy loops).
    nodes_explored: int = 0
    #: Where the returned selection came from: "n/a" for the greedy loops,
    #: "lazy-greedy" when the ILP warm start was already optimal/best found,
    #: "solver" when branch and bound improved on it.
    incumbent_source: str = "n/a"

    def publish(self, selector: str) -> None:
        """Feed this run's totals into the metrics registry.

        Every selector calls this once at the end of ``select``, so the
        per-run dataclass and the process-wide families report the same
        numbers -- the registry is just their running sum.
        """
        SELECTION_SECONDS.labels(selector=selector).observe(self.seconds)
        SELECTION_EVALUATIONS.labels(selector=selector, kind="candidate").inc(
            self.candidate_evaluations
        )
        SELECTION_EVALUATIONS.labels(selector=selector, kind="query").inc(
            self.query_evaluations
        )
        if self.nodes_explored:
            ILP_NODES.inc(self.nodes_explored)


class GreedySelector:
    """Greedy selection of indexes under a space budget.

    Every round scores the whole remaining frontier and takes the best.
    ``incremental=True`` (the default) scores it through an
    :class:`~repro.advisor.benefit.IncrementalWorkloadEvaluator` (one batched
    kernel call per round); ``incremental=False`` keeps the original full
    ``workload_cost`` call per candidate (the benchmarks' baseline).  Both
    produce identical picks.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: WorkloadCostModel,
        space_budget_bytes: int,
        min_relative_benefit: float = 1e-4,
        incremental: bool = True,
    ) -> None:
        if space_budget_bytes <= 0:
            raise AdvisorError(f"space budget must be positive, got {space_budget_bytes}")
        self._catalog = catalog
        self._cost_model = cost_model
        self._budget = space_budget_bytes
        self._min_relative_benefit = min_relative_benefit
        self._incremental = incremental
        #: Statistics of the most recent :meth:`select` run.
        self.statistics = SelectionStatistics()

    def select(self, candidates: Sequence[Index]) -> List[SelectionStep]:
        """Run the greedy loop and return the chosen indexes in pick order."""
        with get_tracer().span(
            "select.exhaustive", candidates=len(candidates)
        ), timed() as timer:
            steps = self._select(candidates, timer)
        return steps

    def _select(self, candidates: Sequence[Index], timer: timed) -> List[SelectionStep]:
        stats = SelectionStatistics()
        self.statistics = stats
        evaluations_before = self._cost_model.query_evaluations

        remaining = list(candidates)
        winners: List[Index] = []
        steps: List[SelectionStep] = []
        used_bytes = 0
        evaluator = (
            IncrementalWorkloadEvaluator(self._cost_model) if self._incremental else None
        )
        current_cost = (
            evaluator.total if evaluator is not None else self._cost_model.workload_cost(winners)
        )
        baseline_cost = current_cost

        while remaining:
            stats.iterations += 1
            # A candidate that no longer fits the remaining budget never will
            # again (used_bytes only grows), so drop it permanently instead
            # of re-checking it every iteration.
            fitting = []
            for candidate in remaining:
                if used_bytes + self._catalog.index_size_bytes(candidate) > self._budget:
                    stats.pruned_for_space += 1
                    continue
                fitting.append(candidate)
            remaining = fitting

            if evaluator is not None:
                costs = evaluator.frontier(winners, remaining)
            else:
                costs = [self._cost_model.workload_cost(winners + [c]) for c in remaining]
            stats.candidate_evaluations += len(remaining)
            best_index: Optional[Index] = None
            best_cost = current_cost
            for candidate, cost in zip(remaining, costs):
                if cost < best_cost:
                    best_cost = cost
                    best_index = candidate

            if best_index is None:
                break
            benefit = current_cost - best_cost
            if baseline_cost > 0 and benefit / baseline_cost < self._min_relative_benefit:
                break

            winners.append(best_index)
            remaining = [c for c in remaining if c.key != best_index.key]
            used_bytes += self._catalog.index_size_bytes(best_index)
            if evaluator is not None:
                evaluator.commit(winners, best_index)
            steps.append(
                SelectionStep(
                    chosen=best_index,
                    workload_cost_before=current_cost,
                    workload_cost_after=best_cost,
                    cumulative_size_bytes=used_bytes,
                )
            )
            current_cost = best_cost

        stats.seconds = timer.elapsed()
        stats.query_evaluations = self._cost_model.query_evaluations - evaluations_before
        stats.publish("exhaustive")
        return steps
