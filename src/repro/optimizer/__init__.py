"""A PostgreSQL-style bottom-up dynamic-programming query optimizer.

The architecture mirrors Figure 2 of the paper:

* :mod:`repro.query.preprocessor` -- the Query Preprocessor,
* :mod:`repro.optimizer.access_paths` -- the Access Path Collector,
* :mod:`repro.optimizer.joinplanner` -- the dynamic-programming Join Planner,
* :mod:`repro.optimizer.grouping_planner` -- the Grouping Planner,
* :mod:`repro.optimizer.optimizer` -- the top-level entry point, which runs
  the stages above in order (it is also the Sub-query Planner: queries
  without complex sub-queries plan as one top-level query),

plus the pieces they share: the cost model, selectivity estimation, plan
nodes, interesting orders, the ``enable_nestloop`` switch and the optimizer
hooks (:mod:`repro.optimizer.hooks`) PINUM uses to harvest intermediate
plans and access paths (Figure 3).
"""

from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import (
    InterestingOrderCombination,
    enumerate_combinations,
    interesting_orders_for,
)
from repro.optimizer.optimizer import OptimizationResult, Optimizer, OptimizerOptions
from repro.optimizer.plan import AccessPath, PlanNode
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.whatif import WhatIfCallCache, WhatIfCallStatistics, WhatIfOptimizer

__all__ = [
    "AccessPath",
    "CostModel",
    "CostParameters",
    "InterestingOrderCombination",
    "OptimizationResult",
    "Optimizer",
    "OptimizerHooks",
    "OptimizerOptions",
    "PlanNode",
    "SelectivityEstimator",
    "WhatIfCallCache",
    "WhatIfCallStatistics",
    "WhatIfOptimizer",
    "enumerate_combinations",
    "interesting_orders_for",
]
