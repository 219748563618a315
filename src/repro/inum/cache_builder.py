"""The classic INUM cache builder: one optimizer call per interesting-order
combination, one per candidate index for access costs.

This is the baseline the paper improves on.  Filling the cache for the
paper's TPC-H query 5 example takes 648 calls (one per IOC) even though only
64 of the resulting plans are distinct; the access-cost phase adds one call
per candidate index.  The builder records each phase's optimizer calls (the
change in ``Optimizer.call_count``) and wall-clock time in the cache's
:class:`~repro.inum.cache.CacheBuildStatistics` so the Figure 4 comparison
can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.catalog.index import Index
from repro.inum.cache import CacheEntry, InumCache
from repro.inum.combinations import candidate_probe_indexes, covering_configuration
from repro.obs.instruments import BUILD_SECONDS
from repro.obs.trace import get_tracer
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import enumerate_combinations, interesting_orders_by_table
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache, WhatIfOptimizer
from repro.query.ast import Query
from repro.util.errors import PlanningError
from repro.util.timing import timed


@dataclass
class InumBuilderOptions:
    """Knobs of the classic builder.

    ``include_nestloop_plans`` issues a second optimizer call per IOC with
    nested loops enabled, caching the NLJ variant as well -- INUM "caches two
    optimal plans for each interesting order combination, one with nested
    loop joins and one without" (Section V-D), so this defaults to on; turn
    it off to reproduce the paper's one-call-per-IOC accounting of Section IV
    at the price of less accurate estimates for NLJ-friendly configurations.
    ``covering_probe_indexes`` makes each probing configuration use *covering*
    indexes (interesting-order column first, then every other referenced
    column of the table) instead of single-column ones; covering indexes make
    index access paths attractive to the optimizer, so the per-IOC calls
    return a richer variety of plans -- the setting INUM uses in practice and
    the one the Section IV redundancy numbers refer to.
    """

    include_nestloop_plans: bool = True
    covering_probe_indexes: bool = False


class InumCacheBuilder:
    """Builds an :class:`InumCache` the pre-PINUM way.

    ``call_cache`` optionally routes every what-if probe through a shared
    :class:`~repro.optimizer.whatif.WhatIfCallCache`; probes the cache has
    seen before (identical configuration and flags) are answered from memory
    and recorded as ``whatif_cache_hits`` (probes minus optimizer calls) in
    the build statistics.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        options: Optional[InumBuilderOptions] = None,
        call_cache: Optional[WhatIfCallCache] = None,
    ) -> None:
        self._whatif = call_cache if call_cache is not None else WhatIfOptimizer(optimizer)
        self._options = options or InumBuilderOptions()

    # -- plan cache -------------------------------------------------------------

    def build_cache(
        self,
        query: Query,
        candidate_indexes: Optional[Sequence[Index]] = None,
    ) -> InumCache:
        """Fill the plan cache and the access-cost table for ``query``.

        Access costs are collected *first*: their per-index probes warm the
        call cache, so the plan phase's single-order covering configurations
        (the same probes, per Section IV's redundancy observation) become
        memoized hits when a :class:`WhatIfCallCache` is in use.  Without a
        call cache the phase order is irrelevant.
        """
        with get_tracer().span("inum.build_cache", query=query.name, builder="inum"):
            cache = InumCache(query)
            self.collect_access_costs(query, cache, candidate_indexes)
            self.build_plan_cache(query, cache)
            cache.validate()
        return cache

    def build_plan_cache(self, query: Query, cache: Optional[InumCache] = None) -> InumCache:
        """Phase 1: one optimizer call per interesting-order combination."""
        cache = cache if cache is not None else InumCache(query)
        orders_by_table = interesting_orders_by_table(query)
        combinations = enumerate_combinations(query, orders_by_table)

        calls_before = self._whatif.optimizer.call_count
        probes = 0
        with timed(BUILD_SECONDS, builder="inum", phase="plans") as timer:
            for ioc in combinations:
                configuration = covering_configuration(
                    query, ioc,
                    include_referenced_columns=self._options.covering_probe_indexes,
                )
                result = self._whatif.optimize_with_configuration(
                    query, configuration.indexes, enable_nestloop=False
                )
                probes += 1
                cache.add_entry(CacheEntry.from_plan(result.plan, orders_by_table, source="inum"))

                if self._options.include_nestloop_plans:
                    nlj_result = self._whatif.optimize_with_configuration(
                        query, configuration.indexes, enable_nestloop=True
                    )
                    probes += 1
                    if nlj_result.plan.uses_nested_loop:
                        cache.add_entry(
                            CacheEntry.from_plan(nlj_result.plan, orders_by_table, source="inum")
                        )

        calls = self._whatif.optimizer.call_count - calls_before
        cache.build_stats.optimizer_calls_plans += calls
        cache.build_stats.whatif_cache_hits += probes - calls
        cache.build_stats.seconds_plans += timer.seconds
        cache.build_stats.combinations_enumerated = len(combinations)
        return cache

    # -- access costs ---------------------------------------------------------------

    def collect_access_costs(
        self,
        query: Query,
        cache: InumCache,
        candidate_indexes: Optional[Sequence[Index]] = None,
    ) -> None:
        """Phase 2: one optimizer call per candidate index (plus one for the heaps).

        "Naively, the optimizer can be queried with a single index per each
        table in the query and the access cost can be determined by parsing
        the generated plan" (Section V-B).  Each per-index call here is a
        full re-optimization; the access path of the probed index is then
        read from the call's path exports (the parsing step).
        """
        candidates = list(candidate_indexes) if candidate_indexes is not None else (
            candidate_probe_indexes(query)
        )
        calls_before = self._whatif.optimizer.call_count
        probes = 0

        with timed(BUILD_SECONDS, builder="inum", phase="access_costs") as timer:
            # Heap (sequential-scan) costs: a single call, no indexes visible.
            hooks = OptimizerHooks(keep_all_access_paths=True)
            result = self._whatif.optimize_with_configuration(
                query, [], enable_nestloop=False, hooks=hooks
            )
            probes += 1
            for path in result.access_paths:
                if path.method == "seqscan":
                    cache.access_costs.add_path(path)

            # One optimizer call per candidate index.
            for index in candidates:
                if index.table not in query.tables:
                    continue
                result = self._whatif.optimize_with_configuration(
                    query, [index], enable_nestloop=False, hooks=hooks
                )
                probes += 1
                recorded = False
                for path in result.access_paths:
                    if path.index is not None and path.index.key == index.key:
                        cache.access_costs.add_path(path)
                        recorded = True
                if not recorded:
                    raise PlanningError(
                        f"optimizer call for index {index.name!r} produced no access path"
                    )

        calls = self._whatif.optimizer.call_count - calls_before
        cache.build_stats.optimizer_calls_access_costs += calls
        cache.build_stats.whatif_cache_hits += probes - calls
        cache.build_stats.seconds_access_costs += timer.seconds
