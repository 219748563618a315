"""The top-level optimizer: the entry point every "optimizer call" goes through.

:class:`Optimizer` ties together the pipeline of Figure 2 (preprocessor ->
access-path collector -> join planner -> grouping planner; the prototype
plans queries without complex sub-queries, so the sub-query planner stage is
the single top-level query), exposes the knobs the paper's designers need
(``enable_nestloop``, the visible index set, PINUM's hooks) and -- crucially
for the experiments -- counts every call so the INUM-vs-PINUM comparison can
be reported both in wall-clock time and in number of optimizer invocations.

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
class CallRecord:
    """Bookkeeping for one optimizer invocation."""

    query_name: str
    elapsed_seconds: float
    enable_nestloop: bool
    used_hooks: bool


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
    elapsed_seconds: float = 0.0

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
    """PostgreSQL-style bottom-up query optimizer with PINUM hook points."""

    #: Newest call records kept in :attr:`call_log`.  The log is for
    #: inspection; the counters below are exact whatever its length, so a
    #: long-lived serve process does not grow by one record per call.
    MAX_CALL_LOG = 1024

    def __init__(self, catalog: Catalog, options: Optional[OptimizerOptions] = None) -> None:
        self.catalog = catalog
        self.options = options or OptimizerOptions()
        self.cost_model = CostModel(self.options.cost_parameters)
        self._preprocessor = QueryPreprocessor(catalog)
        self.call_count = 0
        self.call_log: List[CallRecord] = []
        self._total_seconds = 0.0

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
        the paper's experiments, regardless of which hooks are enabled.  With
        ``hooks.access_paths_only`` the call ends after the collector and
        the result has no plan.
        """
        with timed() as timer:
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

        elapsed = timer.seconds
        self.call_count += 1
        self._total_seconds += elapsed
        if len(self.call_log) >= self.MAX_CALL_LOG:
            del self.call_log[0]
        self.call_log.append(
            CallRecord(
                query_name=query.name,
                elapsed_seconds=elapsed,
                enable_nestloop=nestloop,
                used_hooks=hooks.keep_all_ioc_plans or hooks.keep_all_access_paths,
            )
        )
        return OptimizationResult(
            query=prepared,
            plan=best_plan,
            ioc_plans=ioc_plans,
            access_paths=exported,
            elapsed_seconds=elapsed,
        )

    def cost(self, query: Query, enable_nestloop: Optional[bool] = None) -> float:
        """Convenience wrapper returning only the optimal plan's cost."""
        return self.optimize(query, enable_nestloop=enable_nestloop).cost

    # -- instrumentation ---------------------------------------------------------------

    def reset_counters(self) -> None:
        """Forget call counts and timings (used between experiment phases)."""
        self.call_count = 0
        self.call_log = []
        self._total_seconds = 0.0

    @property
    def total_optimization_seconds(self) -> float:
        """Wall-clock seconds spent inside :meth:`optimize` since the last reset."""
        return self._total_seconds
