"""The PINUM cache builder: the whole plan cache from one (or two) optimizer calls.

Section V-D: "if the optimizer is invoked with all possible interesting
orders, then the join planner maintains the optimal plans for every useful
interesting order combination until the last level".  The builder therefore

1. makes one call with every interesting order covered by a what-if index and
   nested loops disabled, harvesting a finalized plan per interesting-order
   combination via the ``keep_all_ioc_plans`` hook (with the subsumption rule
   pruning combinations that can never win),
2. optionally makes one more call with nested loops *enabled* to harvest the
   NLJ plan variants that become optimal at low access costs ("If we use INUM
   we need to request separate plans for when nested-loop joins are disabled,
   so we need to make two calls"), and
3. collects every candidate index's access cost with a single further call
   (:class:`~repro.pinum.access_costs.PinumAccessCostCollector`).

The produced :class:`~repro.inum.cache.InumCache` is interchangeable with one
built by :class:`~repro.inum.cache_builder.InumCacheBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.catalog.index import Index
from repro.inum.cache import CacheEntry, InumCache
from repro.obs.instruments import BUILD_SECONDS
from repro.obs.trace import get_tracer
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import combination_count, interesting_orders_by_table
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache, WhatIfOptimizer
from repro.pinum.access_costs import PinumAccessCostCollector
from repro.query.ast import Query
from repro.util.errors import ReproError
from repro.util.timing import timed


@dataclass
class PinumBuilderOptions:
    """Knobs of the PINUM builder.

    ``subsumption_pruning`` toggles the Section V-D rule (ablation A1).
    ``nestloop_calls`` is the number of extra calls made with nested loops
    enabled to harvest NLJ plan variants: 0 (skip them), or 1 (the paper's
    "two calls" total); anything else is rejected.  ``collect_access_costs``
    can be disabled when the caller only needs the plan cache.
    """

    subsumption_pruning: bool = True
    nestloop_calls: int = 1
    collect_access_costs: bool = True

    def __post_init__(self) -> None:
        if type(self.nestloop_calls) is not int or self.nestloop_calls not in (0, 1):
            raise ReproError(f"nestloop_calls must be 0 or 1, got {self.nestloop_calls!r}")


class PinumCacheBuilder:
    """Builds an :class:`InumCache` by harvesting intermediate optimizer plans.

    ``call_cache`` optionally routes the (already few) what-if calls through
    a shared :class:`~repro.optimizer.whatif.WhatIfCallCache`, so rebuilding
    the same query's cache -- e.g. across advisor runs in one process --
    costs no optimizer calls at all.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        options: Optional[PinumBuilderOptions] = None,
        call_cache: Optional[WhatIfCallCache] = None,
    ) -> None:
        self._whatif = call_cache if call_cache is not None else WhatIfOptimizer(optimizer)
        self._options = options or PinumBuilderOptions()
        self._access_collector = PinumAccessCostCollector(optimizer, whatif=self._whatif)

    # -- public API --------------------------------------------------------------

    def build_cache(
        self,
        query: Query,
        candidate_indexes: Optional[Sequence[Index]] = None,
    ) -> InumCache:
        """Fill plan cache and access-cost table for ``query``."""
        with get_tracer().span("inum.build_cache", query=query.name, builder="pinum"):
            cache = InumCache(query)
            self.build_plan_cache(query, cache)
            if self._options.collect_access_costs:
                self._access_collector.collect(query, cache, candidate_indexes)
            cache.validate()
        return cache

    def build_plan_cache(self, query: Query, cache: Optional[InumCache] = None) -> InumCache:
        """Phase 1: one call (plus ``nestloop_calls``) fills the whole plan cache."""
        cache = cache if cache is not None else InumCache(query)
        orders_by_table = interesting_orders_by_table(query)
        # "invoked with all possible interesting orders": one covering what-if
        # index per interesting order of every table, all visible at once.
        probing_indexes = probing_index_set(query)

        calls_before = self._whatif.optimizer.call_count
        probes = 1 + self._options.nestloop_calls

        with timed(BUILD_SECONDS, builder="pinum", phase="plans") as timer:
            # Call 1: nested loops off, harvest one plan per IOC.  Optional
            # call 2: nested loops on, harvest the NLJ variants that are
            # attractive at low access costs.
            hooks = OptimizerHooks(
                keep_all_ioc_plans=True, subsumption_pruning=self._options.subsumption_pruning
            )
            for nestloop in (False, True)[:probes]:
                result = self._whatif.optimize_with_configuration(
                    query, probing_indexes, enable_nestloop=nestloop, hooks=hooks
                )
                for plan in result.ioc_plans.values():
                    if plan.uses_nested_loop or not nestloop:
                        entry = CacheEntry.from_plan(plan, orders_by_table, source="pinum")
                        cache.add_entry(entry)

        calls = self._whatif.optimizer.call_count - calls_before
        cache.build_stats.optimizer_calls_plans += calls
        cache.build_stats.whatif_cache_hits += probes - calls
        cache.build_stats.seconds_plans += timer.seconds
        # The IOCs the query has, as INUM counts them; the harvest keeps
        # fewer (subsumption pruning), which ``cache.entry_count`` shows.
        cache.build_stats.combinations_enumerated = combination_count(query, orders_by_table)
        return cache

def probing_index_set(query: Query) -> List[Index]:
    """The full set of covering what-if indexes PINUM's single call uses.

    One single-column hypothetical index per interesting order of every table
    in the query (the access-path collector then offers the join planner the
    best path per order, which is all the DP needs to keep per-IOC plans).
    """
    indexes: List[Index] = []
    seen = set()
    for table, orders in interesting_orders_by_table(query).items():
        for order in orders:
            index = Index(table=table, columns=[order], hypothetical=True)
            if index.key not in seen:
                seen.add(index.key)
                indexes.append(index)
    return indexes
