"""The Grouping Planner (Figure 2, second stage and the return path).

On the way in, the grouping planner isolates the grouping and ordering
columns (that information feeds the interesting-order computation); on the
way out it adds grouping constructs on top of the join planner's plans: "If
the grouping can be done using one of the interesting orders covered by the
plan then the plan is forwarded as such, otherwise sort steps are added to
provide the required ordering."
"""

from __future__ import annotations

from typing import List

from repro.optimizer.cost_model import CostModel
from repro.optimizer.plan import PlanNode, aggregate, sort
from repro.optimizer.selectivity import SelectivityEstimator
from repro.query.ast import Query
from repro.util.errors import PlanningError


class GroupingPlanner:
    """Adds aggregation and ordering on top of join plans."""

    def __init__(self, cost_model: CostModel, selectivity: SelectivityEstimator) -> None:
        self._cost_model = cost_model
        self._selectivity = selectivity

    # -- public API --------------------------------------------------------------

    def finalize(self, query: Query, plan: PlanNode) -> PlanNode:
        """Complete one join plan with aggregation and ORDER BY handling."""
        finalized = plan
        if query.has_aggregation:
            finalized = self._add_aggregation(query, finalized)
        if query.order_by:
            finalized = self._ensure_ordering(query, finalized)
        return finalized

    def finalize_all(self, query: Query, plans: List[PlanNode]) -> List[PlanNode]:
        """Finalize a list of candidate plans (preserving order)."""
        return [self.finalize(query, plan) for plan in plans]

    def choose_best(self, query: Query, plans: List[PlanNode]) -> PlanNode:
        """Finalize every candidate and return the cheapest result."""
        if not plans:
            raise PlanningError(f"no candidate plans for query {query.name!r}")
        finalized = self.finalize_all(query, plans)
        return min(finalized, key=lambda p: p.total_cost)

    # -- aggregation ---------------------------------------------------------------

    def _add_aggregation(self, query: Query, plan: PlanNode) -> PlanNode:
        groups = self._selectivity.group_count(query, plan.rows)
        group_columns = list(query.group_by)
        num_aggs = max(1, len(query.aggregates))

        if not group_columns:
            # Scalar aggregation: a single output row, no grouping keys.
            cost = self._cost_model.aggregate_sorted(
                plan.total_cost, plan.rows, 1.0, 0, num_aggs
            )
            return aggregate(plan, "plain", (), cost, 1.0)

        if group_columns[0] in plan.output_order:
            cost = self._cost_model.aggregate_sorted(
                plan.total_cost, plan.rows, groups, len(group_columns), num_aggs
            )
            return aggregate(plan, "sorted", group_columns, cost, groups)

        # The input is not ordered on the grouping key: choose the cheaper of
        # hash aggregation and sort-then-group aggregation.
        hashed_cost = self._cost_model.aggregate_hashed(
            plan.total_cost, plan.rows, groups, len(group_columns), num_aggs
        )
        width = self._selectivity.output_row_width(query, plan.tables)
        sort_cost = self._cost_model.sort(plan.total_cost, plan.rows, width)
        sorted_cost = self._cost_model.aggregate_sorted(
            sort_cost, plan.rows, groups, len(group_columns), num_aggs
        )
        if hashed_cost <= sorted_cost:
            return aggregate(plan, "hashed", group_columns, hashed_cost, groups)
        sorted_input = sort(plan, group_columns, sort_cost)
        return aggregate(sorted_input, "sorted", group_columns, sorted_cost, groups)

    # -- ordering -------------------------------------------------------------------

    def _ensure_ordering(self, query: Query, plan: PlanNode) -> PlanNode:
        order_columns = [item.column for item in query.order_by]
        if order_columns[0] in plan.output_order:
            return plan
        width = self._selectivity.output_row_width(query, plan.tables)
        cost = self._cost_model.sort(plan.total_cost, plan.rows, width)
        return sort(plan, order_columns, cost)
