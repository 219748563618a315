"""The Sub-query Planner (Figure 2, second stage).

PostgreSQL's sub-query planner optimizes each non-flattenable sub-query
independently and stitches the resulting plans together.  The paper's
prototype (and therefore this reproduction) supports queries without complex
sub-queries, so the planner here degenerates to planning the single top-level
query -- but it owns the orchestration of the downstream stages, mirroring
the original architecture and giving future sub-query support a home.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.catalog.catalog import Catalog
from repro.optimizer.access_paths import AccessPathCollector
from repro.optimizer.cost_model import CostModel
from repro.optimizer.grouping_planner import GroupingPlanner
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.joinplanner import JoinPlanner
from repro.optimizer.plan import PlanNode
from repro.optimizer.selectivity import SelectivityEstimator
from repro.query.ast import Query


class SubqueryPlanner:
    """Plans one (sub-)query through collector -> join planner -> grouping."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel,
        enable_nestloop: bool = True,
    ) -> None:
        self._catalog = catalog
        self._cost_model = cost_model
        self._selectivity = SelectivityEstimator(catalog)
        self._collector = AccessPathCollector(catalog, cost_model, self._selectivity)
        self._join_planner = JoinPlanner(cost_model, self._selectivity, enable_nestloop)
        self._grouping_planner = GroupingPlanner(cost_model, self._selectivity)

    def plan(
        self,
        query: Query,
        hooks: Optional[OptimizerHooks] = None,
    ) -> "SubqueryPlan":
        """Plan ``query`` and return the best plan plus any hook exports.

        With ``hooks.access_paths_only`` the call ends after the collector
        (the exported paths are in ``hooks``) and the plan is ``None``.
        """
        hooks = hooks or OptimizerHooks.disabled()
        access_paths = self._collector.collect(query, hooks)
        if hooks.access_paths_only:
            return SubqueryPlan(best_plan=None, ioc_plans={})
        join_result = self._join_planner.plan(query, access_paths, hooks)
        best_plan = self._grouping_planner.choose_best(query, join_result.candidates)

        ioc_plans: Dict[InterestingOrderCombination, PlanNode] = {}
        if hooks.keep_all_ioc_plans:
            for ioc, plan in join_result.ioc_plans.items():
                ioc_plans[ioc] = self._grouping_planner.finalize(query, plan)
        return SubqueryPlan(best_plan=best_plan, ioc_plans=ioc_plans)


class SubqueryPlan:
    """The outcome of planning one (sub-)query."""

    def __init__(
        self,
        best_plan: Optional[PlanNode],
        ioc_plans: Dict[InterestingOrderCombination, PlanNode],
    ) -> None:
        self.best_plan = best_plan
        self.ioc_plans = ioc_plans
