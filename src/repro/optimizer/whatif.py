"""The what-if interface: cost a query under a hypothetical index configuration.

This is the designer-facing API of Section V-A: given a set of (possibly
hypothetical) indexes, ask the optimizer for the query's optimal plan and
cost with exactly that set visible.  The set is an argument of the call
(``Optimizer.optimize(..., indexes=...)``), never catalog state, so an
answer is a function of (query, configuration, flags) -- the key the memo
below relies on.  INUM's classic cache builder and all of the accuracy
experiments consume this interface; PINUM's point is to need far fewer
passes through it.

:class:`WhatIfCallCache` adds a memoization layer on top: the Section IV
observation is that cache construction asks the optimizer many *identical*
questions, so a workload-scale build wraps the what-if interface once and
every repeated (query, configuration, flags) probe is answered from memory
instead of re-optimizing.  Sessions can also share their plain answers
through one :class:`SharedAnswers` map (the shared tier's ``PublishedMap``):
a local miss reads it, and fresh answers are promoted in one batch per
request by :meth:`WhatIfCallCache.publish_shared`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

from repro.catalog.index import Index
from repro.obs.instruments import WHATIF_CALLS
from repro.obs.trace import get_tracer
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.maintenance import MaintenanceCostModel
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.query.ast import DmlStatement, Query, Statement
from repro.util.fingerprint import configuration_signature, query_fingerprint

#: Hot-path children resolved once: a memo hit costs one counter bump, not
#: a label lookup per call.
_CALLS_HIT = WHATIF_CALLS.labels(result="hit")
_CALLS_SHARED_HIT = WHATIF_CALLS.labels(result="shared_hit")
_CALLS_MAINTENANCE_HIT = WHATIF_CALLS.labels(result="maintenance_hit")
_CALLS_MAINTENANCE_MISS = WHATIF_CALLS.labels(result="maintenance_miss")


class WhatIfOptimizer:
    """Thin wrapper around :class:`Optimizer` for configuration probing."""

    def __init__(self, optimizer: Optimizer) -> None:
        #: The wrapped optimizer, whose ``call_count`` counts every call.
        self.optimizer = optimizer
        self._maintenance: Optional[MaintenanceCostModel] = None

    @property
    def maintenance_model(self) -> MaintenanceCostModel:
        """The maintenance cost model over the optimizer's catalog (lazy)."""
        if self._maintenance is None:
            self._maintenance = MaintenanceCostModel(self.optimizer.catalog)
        return self._maintenance

    def maintenance_cost(self, statement: DmlStatement, index: Index) -> float:
        """Per-execution cost ``statement`` pays to maintain ``index``."""
        return self.maintenance_model.index_maintenance_cost(statement, index)

    def statement_base_cost(self, statement: DmlStatement) -> float:
        """Index-independent heap cost of one execution of ``statement``."""
        return self.maintenance_model.base_cost(statement)

    def statement_cost(
        self,
        statement: Statement,
        indexes: Sequence[Index],
    ) -> float:
        """Cost of one read *or* write statement under the configuration.

        Queries are priced by the optimizer exactly as
        :meth:`cost_with_configuration`.  DML statements are priced as read
        phase (the shadow SELECT locating the affected rows, optimized under
        the same configuration) plus heap cost plus the maintenance of every
        given index on the target table.
        """
        if not isinstance(statement, DmlStatement):
            return self.cost_with_configuration(statement, indexes)
        shadow = statement.shadow_query()
        cost = 0.0
        if shadow is not None:
            cost += self.cost_with_configuration(shadow, indexes)
        cost += self.statement_base_cost(statement)
        for index in indexes:
            cost += self.maintenance_cost(statement, index)
        return cost

    def optimize_with_configuration(
        self,
        query: Query,
        indexes: Sequence[Index],
        enable_nestloop: Optional[bool] = None,
        hooks: Optional[OptimizerHooks] = None,
    ) -> OptimizationResult:
        """Optimize ``query`` as if ``indexes`` were the only indexes.

        The given configuration is the *only* visible index set -- the
        semantics INUM needs when probing an atomic configuration.
        """
        return self.optimizer.optimize(
            query, hooks=hooks, enable_nestloop=enable_nestloop, indexes=indexes
        )

    def cost_with_configuration(
        self,
        query: Query,
        indexes: Sequence[Index],
        enable_nestloop: Optional[bool] = None,
    ) -> float:
        """Optimal cost of ``query`` under the hypothetical configuration."""
        return self.optimize_with_configuration(
            query, indexes, enable_nestloop=enable_nestloop
        ).cost


# -- the memoization layer ---------------------------------------------------------


@dataclass
class WhatIfCallStatistics:
    """What one :class:`WhatIfCallCache` answered from memory.

    ``hits`` counts optimizer probes answered without a call; the calls
    themselves are counted once, by the optimizer (``optimizer.call_count``),
    so a probe count is ``hits`` plus the change in that count.  The (far
    cheaper) memoized maintenance-cost questions of update-aware tuning are
    counted separately, hits and misses both, since no optimizer call stands
    behind them.
    """

    hits: int = 0
    maintenance_hits: int = 0
    maintenance_misses: int = 0

    # The record_* methods are the only increment paths: they bump the
    # dataclass field and the registry family in the same statement.

    def record_hit(self, shared: bool = False) -> None:
        self.hits += 1
        (_CALLS_SHARED_HIT if shared else _CALLS_HIT).inc()

    def record_maintenance_hit(self) -> None:
        self.maintenance_hits += 1
        _CALLS_MAINTENANCE_HIT.inc()

    def record_maintenance_miss(self) -> None:
        self.maintenance_misses += 1
        _CALLS_MAINTENANCE_MISS.inc()


#: Hook signature: ``None`` for a plain call, otherwise the four switches
#: (``subsumption_pruning`` is normalised away when ``keep_all_ioc_plans`` is
#: off, where it has no effect).
HooksSignature = Optional[Tuple[bool, bool, Optional[bool], bool]]


def _hooks_signature(hooks: Optional[OptimizerHooks]) -> HooksSignature:
    if hooks is None:
        return None
    return (
        hooks.keep_all_access_paths,
        hooks.keep_all_ioc_plans,
        hooks.subsumption_pruning if hooks.keep_all_ioc_plans else None,
        hooks.access_paths_only,
    )


class SharedAnswers(Protocol):
    """A cross-session answer map; the tier's ``PublishedMap`` is one.

    Only *plain* answers (no hooks) and maintenance costs are shared.  A
    hooked answer exists to fill a plan cache, and the tier already shares
    the caches built from them; publishing the answers too would hold every
    build's per-IOC plans for the server's lifetime.  Plain keys are
    3-tuples and maintenance keys 2-tuples, so the two never collide.
    """

    def lookup(self, key: Hashable) -> Optional[object]: ...

    def promote(self, items: Mapping[Hashable, object]) -> Mapping[Hashable, object]: ...


class WhatIfCallCache:
    """Memoizing wrapper around :meth:`WhatIfOptimizer.optimize_with_configuration`.

    Entries are keyed by (query fingerprint, configuration signature,
    ``enable_nestloop``) plus the hook signature of the call.
    Identical probe configurations -- across interesting-order combinations,
    across INUM/PINUM builders, across advisor evaluations -- stop paying for
    re-optimization.

    One asymmetry is exploited deliberately: the hooks only *export* extra
    information (all access paths, all per-IOC plans); they never change the
    plan the optimizer returns.  A hook-less request can therefore be served
    from a result that was produced with ``keep_all_access_paths`` enabled.
    Requests *with* hooks still require a result collected under the same
    hook signature, because a hook-less result lacks the exported data, and
    ``keep_all_ioc_plans`` results are never reused for hook-less requests
    (the DP keeps extra states in that mode, so plan tie-breaking can differ),
    nor are ``access_paths_only`` results, which carry no plan at all.

    What it keeps, and for how long: every answer it computed or adopted
    from the shared map, until :meth:`forget` drops the answers about one
    query (a session calls it when it removes the last statement reading
    that query) or :meth:`clear` drops them all.  Maintenance costs are a
    few floats per (statement, index) and are kept for the cache's lifetime.
    A fresh shareable answer also waits in a buffer until the next
    :meth:`publish_shared`.
    """

    def __init__(
        self,
        whatif: Union[WhatIfOptimizer, Optimizer],
        shared: Optional[SharedAnswers] = None,
    ) -> None:
        if isinstance(whatif, Optimizer):
            whatif = WhatIfOptimizer(whatif)
        self._whatif = whatif
        #: The underlying optimizer, whose ``call_count`` counts the misses.
        self.optimizer = whatif.optimizer
        self._entries: Dict[tuple, List[Tuple[HooksSignature, OptimizationResult]]] = {}
        self._maintenance_memo: Dict[tuple, float] = {}
        #: Optional cross-session map: a shareable local miss reads it, a
        #: shareable computation waits in ``_unpublished`` for the batch.
        self._shared = shared
        self._unpublished: Dict[tuple, object] = {}
        self.statistics = WhatIfCallStatistics()

    def publish_shared(self) -> None:
        """Promote every fresh shareable answer in one batch.

        One batch per request, not one promotion per answer: a promotion
        copies the published snapshot, so promoting per miss would be
        quadratic over a long run of optimizer-priced evaluations.
        """
        if self._unpublished:
            self._shared.promote(self._unpublished)
            self._unpublished = {}

    def __len__(self) -> int:
        return sum(len(results) for results in self._entries.values())

    def clear(self) -> None:
        """Drop all memoized results (statistics are kept)."""
        self._entries.clear()
        self._maintenance_memo.clear()

    def forget(self, query: Query) -> None:
        """Drop every memoized optimizer answer about ``query``.

        Answers are keyed by fingerprint, so this forgets them for every
        query with the same SQL.  The shared map is not touched.
        """
        fingerprint = query_fingerprint(query)
        for key in [key for key in self._entries if key[0] == fingerprint]:
            del self._entries[key]

    def optimize_with_configuration(
        self,
        query: Query,
        indexes: Sequence[Index],
        enable_nestloop: Optional[bool] = None,
        hooks: Optional[OptimizerHooks] = None,
    ) -> OptimizationResult:
        """Same contract as the wrapped what-if optimizer, memoized."""
        key = (
            query_fingerprint(query),
            configuration_signature(indexes),
            enable_nestloop,
        )
        signature = _hooks_signature(hooks)
        tracer = get_tracer()
        cached = self._lookup(key, signature)
        if cached is not None:
            self.statistics.record_hit()
            tracer.add("whatif.memo_hits")
            return cached
        share = self._shared is not None and signature is None
        if share:
            shared_hit = self._shared.lookup(key)
            if shared_hit is not None:
                # Adopt locally so later probes skip the snapshot walk.
                self._entries.setdefault(key, []).append((signature, shared_hit))
                self.statistics.record_hit(shared=True)
                tracer.add("whatif.memo_hits")
                return shared_hit
        with tracer.span("whatif.optimize", query_fp=key[0][:12]):
            result = self._whatif.optimize_with_configuration(
                query, indexes, enable_nestloop=enable_nestloop, hooks=hooks
            )
        self._entries.setdefault(key, []).append((signature, result))
        if share:
            self._unpublished[key] = result
        return result

    def cost_with_configuration(
        self,
        query: Query,
        indexes: Sequence[Index],
        enable_nestloop: Optional[bool] = None,
    ) -> float:
        """Optimal cost of ``query`` under the configuration, memoized."""
        return self.optimize_with_configuration(
            query, indexes, enable_nestloop=enable_nestloop
        ).cost

    # -- update-aware probes -----------------------------------------------

    def maintenance_costs(
        self, statement: DmlStatement, indexes: Sequence[Index]
    ) -> List[float]:
        """Memoized per-execution maintenance cost of each index for ``statement``.

        Keyed by (statement fingerprint, index signature): the same
        (statement, index) question arrives once per cache build, once per
        recommend and once per what-if request, and the arithmetic only
        depends on catalog statistics, which are fixed for the cache's
        lifetime.  The statement is fingerprinted once for the whole batch.
        """
        fingerprint = query_fingerprint(statement)
        return [
            self._maintenance_probe(
                (fingerprint, configuration_signature([index])),
                self._whatif.maintenance_cost, statement, index,
            )
            for index in indexes
        ]

    def maintenance_cost(self, statement: DmlStatement, index: Index) -> float:
        """:meth:`maintenance_costs` for a single index."""
        return self.maintenance_costs(statement, [index])[0]

    def statement_base_cost(self, statement: DmlStatement) -> float:
        """Memoized index-independent heap cost of ``statement``."""
        return self._maintenance_probe(
            (query_fingerprint(statement), None),
            self._whatif.statement_base_cost, statement,
        )

    def _maintenance_probe(self, key: tuple, compute, *arguments) -> float:
        """``compute(*arguments)`` through the local memo and the shared map."""
        cost = self._maintenance_memo.get(key)
        if cost is not None:
            self.statistics.record_maintenance_hit()
            return cost
        if self._shared is not None:
            cost = self._shared.lookup(key)
            if cost is not None:
                self.statistics.record_maintenance_hit()
                self._maintenance_memo[key] = cost
                return cost
        cost = compute(*arguments)
        self.statistics.record_maintenance_miss()
        self._maintenance_memo[key] = cost
        if self._shared is not None:
            self._unpublished[key] = cost
        return cost

    def statement_cost(
        self,
        statement: "Statement",
        indexes: Sequence[Index],
    ) -> float:
        """Memoized cost of a read or write statement under the configuration.

        The read phase (the query itself, or a DML statement's shadow
        SELECT) goes through the memoized optimizer probe; the write phase
        through the memoized maintenance questions.
        """
        if not isinstance(statement, DmlStatement):
            return self.cost_with_configuration(statement, indexes)
        shadow = statement.shadow_query()
        cost = 0.0
        if shadow is not None:
            cost += self.cost_with_configuration(shadow, indexes)
        cost += self.statement_base_cost(statement)
        relevant = [index for index in indexes if index.table == statement.table]
        for charge in self.maintenance_costs(statement, relevant):
            cost += charge
        return cost

    def _lookup(self, key: tuple, signature: HooksSignature) -> Optional[OptimizationResult]:
        """The stored result under ``key`` compatible with ``signature``, if any."""
        results = self._entries.get(key, ())
        for stored_signature, result in results:
            if stored_signature == signature:
                return result
        if signature is None:
            # Serve a plain request from an access-path-export result: the
            # exported paths are extra payload, the plan is identical.  A call
            # stopped before the join DP has no plan to serve.
            for stored_signature, result in results:
                if stored_signature is not None and not (
                    stored_signature[1] or stored_signature[3]
                ):
                    return result
        return None
