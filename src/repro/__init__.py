"""Reproduction of "Caching All Plans with Just One Optimizer Call" (PINUM).

The package is organised as a layered system:

* :mod:`repro.catalog` -- schema, statistics and (what-if) index metadata.
* :mod:`repro.storage` -- page/tuple layout math, synthetic data, in-memory
  relations and B-tree-like structures used by the executor.
* :mod:`repro.query` -- query AST, builder, parser and preprocessor.
* :mod:`repro.optimizer` -- a PostgreSQL-style bottom-up dynamic-programming
  optimizer (access-path collector, join planner, grouping planner) with the
  hook points PINUM relies on.
* :mod:`repro.executor` -- iterator-model plan execution with simulated I/O.
* :mod:`repro.inum` -- the INUM plan-cache baseline (one optimizer call per
  interesting-order combination).
* :mod:`repro.pinum` -- the paper's contribution: filling the same cache with
  one or two optimizer calls by harvesting intermediate DP plans.
* :mod:`repro.advisor` -- a greedy index-selection tool driven by the cache.
* :mod:`repro.api` -- the service layer: long-lived
  :class:`~repro.api.session.TuningSession` objects with warm caches and
  incremental re-tuning, typed request/response messages, plugin registries
  and the ``repro serve`` JSON frontend.
* :mod:`repro.workloads` -- the synthetic star-schema workload and a
  TPC-H-like schema used by the paper's motivation section.
* :mod:`repro.bench` -- experiment harness utilities.
"""

from repro.catalog import Catalog, Column, ColumnType, Index, Table, TableStatistics
from repro.query import DmlKind, DmlStatement, Query, QueryBuilder, parse_statement
from repro.optimizer import Optimizer, OptimizerOptions, WhatIfCallCache
from repro.inum import (
    AtomicConfiguration,
    CacheStore,
    InumCache,
    InumCacheBuilder,
    InumCostModel,
)
from repro.pinum import PinumCacheBuilder
from repro.advisor import IndexAdvisor, AdvisorOptions
from repro.api import (
    EvaluateRequest,
    ExplainRequest,
    RecommendRequest,
    TuningSession,
    WhatIfRequest,
)
from repro.workloads import MixedWorkload, StarSchemaWorkload, TpchLikeWorkload, build_tpch_like_catalog

__version__ = "1.2.0"

__all__ = [
    "AdvisorOptions",
    "EvaluateRequest",
    "ExplainRequest",
    "RecommendRequest",
    "TuningSession",
    "WhatIfRequest",
    "AtomicConfiguration",
    "CacheStore",
    "Catalog",
    "DmlKind",
    "DmlStatement",
    "Column",
    "ColumnType",
    "Index",
    "IndexAdvisor",
    "InumCache",
    "InumCacheBuilder",
    "InumCostModel",
    "MixedWorkload",
    "Optimizer",
    "OptimizerOptions",
    "PinumCacheBuilder",
    "Query",
    "QueryBuilder",
    "StarSchemaWorkload",
    "TpchLikeWorkload",
    "Table",
    "TableStatistics",
    "WhatIfCallCache",
    "build_tpch_like_catalog",
    "parse_statement",
    "__version__",
]
