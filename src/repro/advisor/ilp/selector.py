"""The ``"ilp"`` selector: provably (near-)optimal index selection.

Drop-in third selector next to the greedy loops -- same contract
(``select(candidates)`` returning :class:`~repro.advisor.greedy
.SelectionStep`\\ s, ``statistics`` afterwards), different guarantee: the
returned configuration minimizes the weighted workload cost (reads plus
index maintenance) under the space budget, subject to the requested
``ilp_gap``/``ilp_time_limit``, and the statistics carry the *proven*
optimality gap.

The selector first runs the lazy-greedy loop on the same cost model: its
selection warm-starts the branch-and-bound incumbent, so the ILP result is
never worse than lazy-greedy -- interrupting the solver at ``time_limit=0``
simply returns the greedy picks with an honest bound-derived gap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.advisor.advisor import validate_tuning_limits
from repro.advisor.benefit import IncrementalWorkloadEvaluator, WorkloadCostModel
from repro.advisor.greedy import SelectionStatistics, SelectionStep
from repro.advisor.ilp.formulation import build_formulation
from repro.advisor.ilp.solver import BranchAndBoundSolver, IlpSolverOptions
from repro.advisor.lazy_greedy import LazyGreedySelector
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.obs.trace import get_tracer
from repro.util.timing import timed

#: Defaults mirrored by :class:`repro.advisor.advisor.AdvisorOptions`.
DEFAULT_GAP = 0.0
DEFAULT_TIME_LIMIT = 60.0


class IlpSelector:
    """Optimal index selection through the BIP formulation and solver."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: WorkloadCostModel,
        space_budget_bytes: int,
        min_relative_benefit: float = 1e-4,
        gap: float = DEFAULT_GAP,
        time_limit: Optional[float] = DEFAULT_TIME_LIMIT,
        max_nodes: int = 500_000,
    ) -> None:
        validate_tuning_limits(
            space_budget_bytes=space_budget_bytes,
            ilp_gap=gap,
            ilp_time_limit=time_limit,
        )
        self._catalog = catalog
        self._cost_model = cost_model
        self._budget = space_budget_bytes
        self._min_relative_benefit = min_relative_benefit
        self._solver_options = IlpSolverOptions(
            gap=gap, time_limit=time_limit, max_nodes=max_nodes
        )
        #: Statistics of the most recent :meth:`select` run (shared shape
        #: with the greedy selectors, gap fields filled in).
        self.statistics = SelectionStatistics()

    def select(self, candidates: Sequence[Index]) -> List[SelectionStep]:
        """Solve the selection BIP; returns the picks as selection steps."""
        tracer = get_tracer()
        with tracer.span(
            "select.ilp", candidates=len(candidates)
        ) as span, timed() as timer:
            stats = SelectionStatistics()
            self.statistics = stats
            evaluations_before = self._cost_model.query_evaluations

            # Warm start: the lazy-greedy picks seed the incumbent, making
            # the solver anytime-safe (never worse than greedy, whatever the
            # limit).
            with tracer.span("ilp.warm_start"):
                warm_selector = LazyGreedySelector(
                    self._catalog,
                    self._cost_model,
                    self._budget,
                    self._min_relative_benefit,
                )
                warm_steps = warm_selector.select(candidates)
            stats.candidate_evaluations += warm_selector.statistics.candidate_evaluations
            stats.pruned_for_space += warm_selector.statistics.pruned_for_space

            with tracer.span("ilp.solve") as solve_span:
                formulation = build_formulation(
                    self._cost_model, self._catalog, candidates, self._budget
                )
                warm_selection = formulation.selection_of(
                    [step.chosen for step in warm_steps]
                )
                solver = BranchAndBoundSolver(formulation, self._solver_options)
                solution = solver.solve(warm_selection, warm_source="lazy-greedy")
                solve_span.set(
                    nodes=solution.nodes_explored,
                    gap=solution.optimality_gap,
                    incumbent=solution.incumbent_source,
                )

            stats.iterations = solution.nodes_explored
            stats.nodes_explored = solution.nodes_explored
            stats.optimality_gap = solution.optimality_gap
            stats.incumbent_source = solution.incumbent_source

            if solution.selection == warm_selection:
                steps = warm_steps
            else:
                steps = self._order_steps(solution.selected, stats)

            stats.seconds = timer.elapsed()
            stats.query_evaluations = (
                self._cost_model.query_evaluations - evaluations_before
            )
            span.set(nodes=stats.nodes_explored)
            stats.publish("ilp")
            return steps

    def _order_steps(
        self, chosen: Sequence[Index], stats: SelectionStatistics
    ) -> List[SelectionStep]:
        """Report the solver's *set* as greedy-ordered selection steps.

        The BIP decides a set; the advisor's reporting (and the paper's
        figures) speak in pick sequences, so the set is ordered by repeated
        best-marginal-benefit -- the order a DBA would materialize them in.
        The step costs come from the same cost model the greedy selectors
        use, so before/after columns stay comparable across selectors.
        """
        evaluator = IncrementalWorkloadEvaluator(self._cost_model)
        current_cost = evaluator.total
        remaining = list(chosen)
        winners: List[Index] = []
        steps: List[SelectionStep] = []
        used_bytes = 0
        while remaining:
            best = None
            best_cost = float("inf")
            for candidate in remaining:
                cost = evaluator.cost_with(winners, candidate)
                stats.candidate_evaluations += 1
                if cost < best_cost:
                    best_cost = cost
                    best = candidate
            assert best is not None  # costs are finite
            winners.append(best)
            evaluator.commit(winners, best)
            used_bytes += self._catalog.index_size_bytes(best)
            steps.append(
                SelectionStep(
                    chosen=best,
                    workload_cost_before=current_cost,
                    workload_cost_after=best_cost,
                    cumulative_size_bytes=used_bytes,
                )
            )
            current_cost = best_cost
            remaining = [c for c in remaining if c.key != best.key]
        return steps
