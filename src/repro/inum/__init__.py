"""INUM: the plan-cache baseline (Papadomanolakis, Dash, Ailamaki, VLDB'07).

INUM builds, per query, a cache of optimizer plans keyed by interesting-order
combination and afterwards answers what-if questions ("what would this query
cost under index configuration C?") with simple arithmetic over the cached
internal costs and per-index access costs -- no further optimizer calls.

This package contains the cache data structures shared with PINUM, the
classic cache builder (one optimizer call per interesting-order combination,
one call per candidate index for access costs) and the cache-based cost
model.  PINUM (:mod:`repro.pinum`) fills exactly the same cache with one or
two optimizer calls.
"""

from repro.inum.atomic_config import AtomicConfiguration, enumerate_atomic_configurations
from repro.inum.access_costs import AccessCostInfo, AccessCostTable
from repro.inum.cache import CacheBuildStatistics, CacheEntry, CachedSlot, InumCache
from repro.inum.cache_builder import InumCacheBuilder, InumBuilderOptions
from repro.inum.combinations import covering_configuration, covering_indexes_for
from repro.inum.compiled import IndexSetMemo, compile_cache, numpy_available
from repro.inum.cost_estimation import CostEstimate, InumCostModel
from repro.inum.serialization import (
    CacheStore,
    cache_from_dict,
    cache_to_dict,
    load_cache,
    save_cache,
)
from repro.inum.workload_builder import (
    WorkloadBuildReport,
    WorkloadBuildResult,
    build_one_cache,
)

__all__ = [
    "build_one_cache",
    "cache_from_dict",
    "cache_to_dict",
    "compile_cache",
    "load_cache",
    "numpy_available",
    "save_cache",
    "AccessCostInfo",
    "AccessCostTable",
    "AtomicConfiguration",
    "CacheBuildStatistics",
    "CacheEntry",
    "CacheStore",
    "CachedSlot",
    "CostEstimate",
    "IndexSetMemo",
    "InumBuilderOptions",
    "InumCache",
    "InumCacheBuilder",
    "InumCostModel",
    "WorkloadBuildReport",
    "WorkloadBuildResult",
    "covering_configuration",
    "covering_indexes_for",
    "enumerate_atomic_configurations",
]
