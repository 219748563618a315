"""The top-level optimizer: the entry point every "optimizer call" goes through.

:class:`Optimizer` ties together the pipeline of Figure 2 (preprocessor ->
access-path collector -> join planner -> grouping planner; the prototype
plans queries without complex sub-queries, so the sub-query planner stage is
the single top-level query), exposes the knobs the paper's designers need
(``enable_nestloop``, the visible index set, PINUM's hooks) and -- crucially
for the experiments -- counts every call so the INUM-vs-PINUM comparison can
be reported both in wall-clock time and in number of optimizer invocations.
:meth:`Optimizer.optimize` is the one place a call is counted
(:attr:`Optimizer.call_count`) and timed (the ``repro_whatif_seconds``
histogram, whose ``_count`` is therefore the process's optimizer-call
count); every other call number -- per build phase, per session, per
request -- is a difference of ``call_count``.

A call is a function of its arguments: the what-if configuration is the
``indexes`` argument, the hooks are a frozen value, and everything the call
produces comes back on its :class:`OptimizationResult`.  Nothing is written
to the catalog, so concurrent calls over one catalog cannot see each
other's configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.obs.instruments import WHATIF_SECONDS
from repro.optimizer.access_paths import AccessPathCollector
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.grouping_planner import GroupingPlanner
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.joinplanner import JoinPlanner
from repro.optimizer.plan import AccessPath, PlanNode
from repro.optimizer.selectivity import SelectivityEstimator
from repro.util.errors import PlanningError
from repro.util.timing import timed
from repro.query.ast import Query
from repro.query.preprocessor import QueryPreprocessor


#: The planner's revision, part of every cached answer's identity
#: (:func:`repro.util.fingerprint.optimizer_fingerprint`).  Bump it in any
#: change that alters a plan or a cost, so plan caches persisted or shared
#: under the old planner are rejected as stale instead of answering for it.
PLANNER_REVISION = 1


@dataclass(frozen=True)
class OptimizerOptions:
    """Session-level optimizer settings.

    ``enable_nestloop`` mirrors PostgreSQL's parameter of the same name;
    following Section V-B the planner *removes* nested-loop plans entirely
    when the flag is off (rather than just penalising them), because INUM
    requires plans that are completely free of nested loops.
    """

    enable_nestloop: bool = True
    cost_parameters: CostParameters = field(default_factory=CostParameters)


@dataclass
class OptimizationResult:
    """Everything one optimizer call returns.

    ``plan``/``cost`` are the classic outputs.  ``ioc_plans`` and
    ``access_paths`` are only populated when the corresponding PINUM hooks
    were enabled for the call (the dashed/dotted flows of Figure 3).  A call
    stopped by ``access_paths_only`` has no plan: ``plan`` is ``None`` and
    ``cost`` raises.
    """

    query: Query
    plan: Optional[PlanNode]
    ioc_plans: Dict[InterestingOrderCombination, PlanNode] = field(default_factory=dict)
    access_paths: List[AccessPath] = field(default_factory=list)

    @property
    def cost(self) -> float:
        """Estimated total cost of the chosen plan."""
        if self.plan is None:
            raise PlanningError(
                f"the optimizer call for {self.query.name!r} stopped after collecting "
                "access paths and has no plan"
            )
        return self.plan.total_cost


class Optimizer:
    """PostgreSQL-style bottom-up query optimizer with PINUM hook points.

    One optimizer serves one thread at a time (a session owns one, and the
    server runs a session's requests one after another), so the change in
    :attr:`call_count` across a block of work is exactly the calls that
    block made.
    """

    def __init__(self, catalog: Catalog, options: Optional[OptimizerOptions] = None) -> None:
        self.catalog = catalog
        self.options = options or OptimizerOptions()
        self.cost_model = CostModel(self.options.cost_parameters)
        self._preprocessor = QueryPreprocessor(catalog)
        #: Optimizer calls made so far; only :meth:`optimize` writes it.
        self.call_count = 0

    # -- the optimizer call ----------------------------------------------------------

    def optimize(
        self,
        query: Query,
        hooks: Optional[OptimizerHooks] = None,
        enable_nestloop: Optional[bool] = None,
        indexes: Optional[Sequence[Index]] = None,
    ) -> OptimizationResult:
        """Optimize ``query`` and return the chosen plan (plus hook exports).

        ``indexes`` is the visible index set: ``None`` plans with the
        catalog's materialized indexes, a given set (possibly hypothetical,
        possibly empty) is the *only* one the call sees -- what INUM needs
        when probing an atomic configuration.  Every given index is
        validated against the catalog.

        Every invocation counts as one "optimizer call" for the purposes of
        the paper's experiments, regardless of which hooks are enabled (a
        call that raises counts too, so :attr:`call_count` and the
        ``repro_whatif_seconds`` count never drift apart).  With
        ``hooks.access_paths_only`` the call ends after the collector and
        the result has no plan.
        """
        with timed(WHATIF_SECONDS):
            self.call_count += 1
            nestloop = (
                self.options.enable_nestloop if enable_nestloop is None else enable_nestloop
            )
            hooks = hooks or OptimizerHooks.disabled()
            prepared = self._preprocessor.preprocess(query)
            selectivity = SelectivityEstimator(self.catalog)
            collector = AccessPathCollector(self.catalog, self.cost_model, selectivity)
            access_paths, exported = collector.collect(prepared, indexes, hooks)
            best_plan: Optional[PlanNode] = None
            ioc_plans: Dict[InterestingOrderCombination, PlanNode] = {}
            if not hooks.access_paths_only:
                join_result = JoinPlanner(self.cost_model, selectivity, nestloop).plan(
                    prepared, access_paths, hooks
                )
                grouping = GroupingPlanner(self.cost_model, selectivity)
                best_plan = grouping.choose_best(prepared, join_result.candidates)
                if hooks.keep_all_ioc_plans:
                    for ioc, plan in join_result.ioc_plans.items():
                        ioc_plans[ioc] = grouping.finalize(prepared, plan)

        return OptimizationResult(
            query=prepared,
            plan=best_plan,
            ioc_plans=ioc_plans,
            access_paths=exported,
        )

    def cost(self, query: Query, enable_nestloop: Optional[bool] = None) -> float:
        """Convenience wrapper returning only the optimal plan's cost."""
        return self.optimize(query, enable_nestloop=enable_nestloop).cost
