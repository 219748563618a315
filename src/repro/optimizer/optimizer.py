"""The top-level optimizer: the entry point every "optimizer call" goes through.

:class:`Optimizer` ties together the pipeline of Figure 2 (preprocessor ->
sub-query planner -> grouping planner -> access-path collector -> join
planner), exposes the knobs the paper's designers need (``enable_nestloop``,
what-if index overlays via the catalog, PINUM's hooks) and -- crucially for
the experiments -- counts every call so the INUM-vs-PINUM comparison can be
reported both in wall-clock time and in number of optimizer invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.catalog.catalog import Catalog
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.plan import AccessPath, PlanNode
from repro.optimizer.subquery_planner import SubqueryPlanner
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
    ) -> OptimizationResult:
        """Optimize ``query`` and return the chosen plan (plus hook exports).

        Every invocation counts as one "optimizer call" for the purposes of
        the paper's experiments, regardless of which hooks are enabled.
        """
        with timed() as timer:
            nestloop = (
                self.options.enable_nestloop if enable_nestloop is None else enable_nestloop
            )
            active_hooks = hooks or OptimizerHooks.disabled()
            active_hooks.reset()

            prepared = self._preprocessor.preprocess(query)
            planner = SubqueryPlanner(self.catalog, self.cost_model, enable_nestloop=nestloop)
            outcome = planner.plan(prepared, active_hooks)

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
                used_hooks=active_hooks.keep_all_ioc_plans or active_hooks.keep_all_access_paths,
            )
        )
        return OptimizationResult(
            query=prepared,
            plan=outcome.best_plan,
            ioc_plans=dict(outcome.ioc_plans),
            access_paths=list(active_hooks.collected_access_paths),
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
