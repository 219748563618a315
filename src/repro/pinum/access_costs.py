"""Single-call access-cost collection (Section V-C).

The stock Access Path Collector computes an access path for every visible
index anyway, but keeps only the cheapest per interesting order.  With the
``keep_all_access_paths`` hook the discarded paths are exported, so the
access cost of an arbitrarily large candidate-index set is obtained with one
optimizer call -- versus one call per index for the classic approach, the
"5 times faster for finding the index access costs" half of Figure 4.

The paths exist before the first join level, so the call also sets the
``access_paths_only`` stop: it runs no join DP and returns no plan, and it
is still counted as one optimizer call (in ``Optimizer.call_count``, and
through it in ``optimizer_calls_access_costs``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.catalog.index import Index
from repro.inum.cache import InumCache
from repro.inum.combinations import candidate_probe_indexes
from repro.obs.instruments import BUILD_SECONDS
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache, WhatIfOptimizer
from repro.query.ast import Query
from repro.util.timing import timed


class PinumAccessCostCollector:
    """Collects every candidate index's access cost with one optimizer call.

    ``whatif`` lets the caller share a what-if interface (typically a
    memoizing :class:`~repro.optimizer.whatif.WhatIfCallCache`) instead of
    this collector creating its own.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        whatif: Optional[Union[WhatIfOptimizer, WhatIfCallCache]] = None,
    ) -> None:
        self._whatif = whatif if whatif is not None else WhatIfOptimizer(optimizer)

    def collect(
        self,
        query: Query,
        cache: InumCache,
        candidate_indexes: Optional[Sequence[Index]] = None,
    ) -> int:
        """Populate ``cache.access_costs``; returns the optimizer calls made (1, or 0 from memory).

        The single call is made with *all* candidate indexes visible at once
        and ``keep_all_access_paths`` enabled; the exported paths include the
        sequential-scan path of every table, so heap costs come for free.
        It stops before the join DP (``access_paths_only``).
        """
        candidates = self._candidates(query, candidate_indexes)
        calls_before = self._whatif.optimizer.call_count
        with timed(BUILD_SECONDS, builder="pinum", phase="access_costs") as timer:
            hooks = OptimizerHooks(keep_all_access_paths=True, access_paths_only=True)
            result = self._whatif.optimize_with_configuration(
                query, candidates, enable_nestloop=False, hooks=hooks
            )
            for path in result.access_paths:
                cache.access_costs.add_path(path)
        calls = self._whatif.optimizer.call_count - calls_before
        cache.build_stats.optimizer_calls_access_costs += calls
        cache.build_stats.whatif_cache_hits += 1 - calls
        cache.build_stats.seconds_access_costs += timer.seconds
        return calls

    @staticmethod
    def _candidates(
        query: Query, candidate_indexes: Optional[Sequence[Index]]
    ) -> List[Index]:
        if candidate_indexes is None:
            return candidate_probe_indexes(query)
        return [index for index in candidate_indexes if index.table in query.tables]
