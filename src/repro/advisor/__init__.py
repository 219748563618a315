"""The index-selection tool (Section V-E).

A deliberately simple greedy advisor, matching the paper's prototype: analyse
the workload to produce a large candidate-index set, then iteratively add the
candidate with the largest workload benefit until the space budget is
exhausted.  The advisor's benefit oracle is pluggable: the raw optimizer
(slow, one what-if call per candidate per iteration), the INUM cache or the
PINUM cache (fast, arithmetic only after the cache is built) -- which is
exactly the trade-off Figures 4 and 6/7 quantify.
"""

from repro.advisor.advisor import (
    AdvisorOptions,
    AdvisorResult,
    IndexAdvisor,
    validate_tuning_limits,
)
from repro.advisor.benefit import (
    CacheBackedWorkloadCostModel,
    IncrementalWorkloadEvaluator,
    OptimizerWorkloadCostModel,
    WorkloadCostModel,
)
from repro.advisor.candidates import DEFAULT_MAX_CANDIDATES, CandidateGenerator
from repro.advisor.greedy import GreedySelector, SelectionStatistics, SelectionStep
from repro.advisor.lazy_greedy import LazyGreedySelector

__all__ = [
    "AdvisorOptions",
    "DEFAULT_MAX_CANDIDATES",
    "AdvisorResult",
    "CacheBackedWorkloadCostModel",
    "CandidateGenerator",
    "GreedySelector",
    "IncrementalWorkloadEvaluator",
    "IndexAdvisor",
    "LazyGreedySelector",
    "OptimizerWorkloadCostModel",
    "SelectionStatistics",
    "SelectionStep",
    "WorkloadCostModel",
    "validate_tuning_limits",
]
