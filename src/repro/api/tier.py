"""The shared read-only cache tier, and the one way to get a plan cache.

The paper's INUM caches exist so an advisor can answer tuning questions
interactively instead of paying optimizer calls per question; *where a plan
cache comes from* is therefore the one decision every front door has to
make.  :meth:`PlanCachePool.acquire` is its only implementation -- the
session's ``recommend``/``evaluate``, ``build_query_cache`` and
``build_workload_caches`` (hence the CLI's ``cache`` and ``cache-workload``)
all call it -- and per statement the first source that has the cache wins:

1. a key already loaded or built earlier in the same call (source
   ``deduplicated``: an identical-SQL sibling),
2. the session's own pool (``reused``),
3. the process-wide :class:`SharedCacheTier` (``shared``: another tenant
   already paid the build),
4. the persistent :class:`~repro.inum.serialization.CacheStore`
   (``from_store``),
5. a fresh :func:`~repro.inum.workload_builder.build_one_cache` (``built``,
   saved back to the store).

Pool insert, tier promotion, what-if publication and source accounting then
happen once, at the end of the call.

A concurrent server multiplies the caching economy only if the warm state is
*shared*: N tenants over the same catalog must not pay N x cache builds or
hold N copies of the compiled arenas.  :class:`SharedCacheTier` is that tier:

* **namespaces** keyed by catalog *fingerprint* (schema, statistics,
  permanent indexes) and optimizer fingerprint (cost parameters, planner
  revision), so sessions over equal-but-distinct
  :class:`~repro.catalog.catalog.Catalog` objects still share, while a
  session whose optimizer prices plans differently never sees another's
  answers,
* three :class:`PublishedMap` instances per namespace -- bounded,
  copy-on-write, first-promotion-wins dicts -- holding the **plan caches**
  (:class:`~repro.inum.cache.InumCache`), the **compiled workload arenas**
  and the **what-if answers** (plain optimizer results and maintenance
  costs).  That is the tier's only sharing primitive.

A session sees the cache and arena maps through a :class:`LocalPool`: a
small LRU of its own references in front of the (optional) shared map.  Its
:class:`~repro.optimizer.whatif.WhatIfCallCache` reads the what-if map on a
local miss and promotes its fresh answers in one batch per request.  The
persistent store is not shared: each session opens its own
:class:`~repro.inum.serialization.CacheStore`, and what it loads is
promoted like any other cache.

Sessions keep *mutable* workload state (queries, weights, budget, DML
maintenance profiles) to themselves; only immutable-after-build artifacts
are pooled or promoted.  A pooled cache is never written: the session puts
a DML statement's pool-specific maintenance profile on a
:meth:`~repro.inum.cache.InumCache.detached_copy`.

Task-safety model (CPython): tier reads are lock-free against published
snapshots; promotions serialize on a per-map lock.  Compiled arenas
are shared across sessions because evaluation is read-only up to their
internal :class:`~repro.inum.compiled.IndexSetMemo`, whose entries are
deterministic functions of the key -- a racing double-compute stores the
same value twice, never a wrong one.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.inum.cache import CacheBuildStatistics
from repro.inum.serialization import CacheStore
from repro.inum.workload_builder import (
    QueryBuildOutcome,
    WorkloadBuildReport,
    WorkloadBuildResult,
    build_one_cache,
    rename_cache,
)
from repro.obs.instruments import TIER_LOOKUPS, TIER_PROMOTIONS
from repro.optimizer.whatif import WhatIfCallCache
from repro.util.fingerprint import (
    catalog_fingerprint,
    index_set_fingerprint,
    optimizer_fingerprint,
    query_fingerprint,
)
from repro.util.timing import timed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import SessionStatistics
    from repro.catalog.catalog import Catalog
    from repro.catalog.index import Index
    from repro.inum.cache import InumCache
    from repro.optimizer.optimizer import Optimizer, OptimizerOptions
    from repro.query.ast import Statement

#: Identity of one plan cache: (query fingerprint, builder, candidate-set
#: fingerprint).  Everything that can make a cache unusable is in the key, so
#: a pool or tier hit never returns a stale cache.
CacheKey = Tuple[str, str, Optional[str]]


def cache_keys(
    statements: Sequence["Statement"],
    per_query_candidates: Mapping[str, Optional[Sequence["Index"]]],
    builder: str,
) -> Dict[str, CacheKey]:
    """Each statement's pool/tier key, by statement name."""
    return {
        statement.name: (
            query_fingerprint(statement),
            builder,
            index_set_fingerprint(per_query_candidates[statement.name]),
        )
        for statement in statements
    }


class PublishedMap:
    """One kind of tier artifact: a bounded, copy-on-write, first-wins dict.

    Reads go against the published snapshot (replaced wholesale, never
    mutated); writes serialize on the lock.  An already-published key is
    left alone -- equal keys imply equal content -- so a racing double-build
    cannot flap the shared object's identity under other sessions' feet.
    Past ``capacity`` the oldest promotions are dropped.  ``hits`` count
    lookups answered with a published value (for plan caches each one is a
    whole build some tenant did not pay), ``promotions`` first-time
    publications.
    """

    def __init__(self, kind: str, capacity: int) -> None:
        self._capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._snapshot: Dict[Hashable, object] = {}
        self.hits = 0
        self.promotions = 0
        # Metric children resolved once: lookups sit on the recommend hot path.
        self._hit = TIER_LOOKUPS.labels(kind=kind, result="hit")
        self._miss = TIER_LOOKUPS.labels(kind=kind, result="miss")
        self._promoted = TIER_PROMOTIONS.labels(kind=kind)

    def lookup(self, key: Hashable) -> Optional[object]:
        """The published value under ``key`` (lock-free snapshot read)."""
        value = self._snapshot.get(key)
        if value is None:
            self._miss.inc()
        else:
            self.hits += 1
            self._hit.inc()
        return value

    def promote(self, items: Mapping[Hashable, object]) -> Dict[Hashable, object]:
        """Publish ``items``; returns the *published* value per key.

        For a key someone else promoted first that is their object, which
        the caller should adopt in place of its own.
        """
        with self._lock:
            fresh = {
                key: value for key, value in items.items() if key not in self._snapshot
            }
            if fresh:
                merged = {**self._snapshot, **fresh}
                for stale in list(merged)[: max(0, len(merged) - self._capacity)]:
                    del merged[stale]
                self._snapshot = merged
                self.promotions += len(fresh)
                self._promoted.inc(len(fresh))
            published = self._snapshot
        return {key: published.get(key, value) for key, value in items.items()}

    def __len__(self) -> int:
        return len(self._snapshot)


class TierNamespace:
    """The shared artifacts of one (catalog, optimizer) fingerprint pair.

    Plan caches are keyed by :data:`CacheKey`, arenas by
    :func:`repro.inum.arena.arena_fingerprint` and what-if answers by the
    :class:`~repro.optimizer.whatif.WhatIfCallCache` keys, so a tier hit is
    exactly as safe as a session-local hit.

    Arenas get a small bound: an arena spans a whole workload, so every
    workload delta of every tenant promotes a fresh one that only that
    tenant will ask for again (and keeps in its own pool); what is worth
    sharing is the handful of base workloads, adopted right after they are
    promoted.  An arena is ~0.4 MB at 11 statements, so a generous bound
    would hold every delta arena for the server's life.
    """

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.caches = PublishedMap("cache", 2048)
        self.arenas = PublishedMap("arena", 8)
        self.whatif = PublishedMap("whatif", 65536)
        self.sessions_attached = 0


class LocalPool:
    """One session's references to pooled artifacts: a small LRU, optionally
    in front of a :class:`PublishedMap`.

    Reads consult the session-local LRU first and fall back to the shared
    map (adopting what they find); writes are promoted and the pool keeps
    the published winner.  Eviction only ever drops the session's own
    reference, so one session cycling through workloads can never evict an
    artifact other sessions rely on (the shared map applies its own bound).
    """

    def __init__(self, capacity: int, published: Optional[PublishedMap] = None) -> None:
        self._capacity = max(1, capacity)
        self._published = published
        self._local: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[object]:
        value = self._local.get(key)
        if value is not None:
            self._local.move_to_end(key)
        elif self._published is not None:
            value = self._published.lookup(key)
            if value is not None:
                self._remember(key, value)
        return value

    def update(self, items: Mapping[Hashable, object]) -> Mapping[Hashable, object]:
        """Insert (and publish) ``items``; returns what the pool now holds."""
        if self._published is not None:
            items = self._published.promote(items)
        for key, value in items.items():
            self._remember(key, value)
        return items

    def _remember(self, key: Hashable, value: object) -> None:
        self._local[key] = value
        self._local.move_to_end(key)
        while len(self._local) > self._capacity:
            self._local.popitem(last=False)

    def __contains__(self, key: object) -> bool:
        return key in self._local

    def __len__(self) -> int:
        return len(self._local)


class PlanCachePool:
    """One session's plan caches, and the only place they come from.

    Owns the session-local pool, the namespace it shares through and the
    persistent store it loads from; :meth:`acquire` is the single lookup
    chain described in the module docstring.
    """

    def __init__(
        self,
        optimizer: "Optimizer",
        call_cache: WhatIfCallCache,
        statistics: "SessionStatistics",
        *,
        capacity: int,
        namespace: Optional[TierNamespace] = None,
        store: Optional[CacheStore] = None,
    ) -> None:
        self._optimizer = optimizer
        self._call_cache = call_cache
        self._statistics = statistics
        self.namespace = namespace
        self.store = store
        self._caches = LocalPool(
            capacity, namespace.caches if namespace is not None else None
        )

    def __len__(self) -> int:
        return len(self._caches)

    def acquire(
        self,
        statements: Sequence["Statement"],
        per_query_candidates: Mapping[str, Optional[List["Index"]]],
        builder: str,
        *,
        use_call_cache: bool = True,
        keys: Optional[Mapping[str, CacheKey]] = None,
    ) -> WorkloadBuildResult:
        """One plan cache per statement, from the cheapest source that has it.

        ``per_query_candidates`` maps statement names to the candidates each
        cache covers (its identity); ``keys`` passes the matching
        :func:`cache_keys` when the caller already computed them.
        ``use_call_cache=False`` builds without the session's memoising
        what-if layer (the paper's un-memoised call counts).  The report
        carries one outcome per statement, in order, whatever its source;
        caches come back attached to the statements' own names.
        """
        if keys is None:
            keys = cache_keys(statements, per_query_candidates, builder)
        call_cache = self._call_cache if use_call_cache else None
        caches: Dict[str, "InumCache"] = {}
        outcomes: List[QueryBuildOutcome] = []
        # Keys loaded or built by this call -> (first statement name, cache).
        fresh: Dict[CacheKey, Tuple[str, "InumCache"]] = {}
        with timed() as wall:
            for statement in statements:
                name = statement.name
                key = keys[name]
                deduped_from = None
                if key in fresh:
                    source = "deduplicated"
                    deduped_from, cache = fresh[key]
                else:
                    source = "reused" if key in self._caches else "shared"
                    cache = self._caches.get(key)
                    if cache is None and self.store is not None:
                        source = "from_store"
                        cache = self.store.load(statement, builder, per_query_candidates[name])
                    if cache is None:
                        source = "built"
                        cache = build_one_cache(
                            self._optimizer, call_cache, builder, statement,
                            per_query_candidates[name],
                        )
                        if self.store is not None:
                            self.store.save(statement, cache, builder, per_query_candidates[name])
                    if source in ("from_store", "built"):
                        fresh[key] = (name, cache)
                if cache.query.name != name:
                    cache = rename_cache(cache, statement)
                caches[name] = cache
                outcomes.append(QueryBuildOutcome(
                    name, builder, source,
                    CacheBuildStatistics() if deduped_from else cache.build_stats,
                    deduped_from=deduped_from,
                ))
        if fresh:
            self._caches.update({key: cache for key, (_, cache) in fresh.items()})
            self._call_cache.publish_shared()

        report = WorkloadBuildReport(
            builder=builder, outcomes=outcomes, wall_seconds=wall.seconds
        )
        for source, count in Counter(outcome.source for outcome in outcomes).items():
            self._statistics.record_caches(source, count)
        return WorkloadBuildResult(caches=caches, report=report)


class SharedCacheTier:
    """Process-wide shared read-only tier for concurrent tuning sessions.

    Hand one instance to every :class:`~repro.api.session.TuningSession`
    (``shared_tier=``) -- or let :class:`~repro.api.server.TuningServer` do
    it -- and N sessions over the same catalog share one copy of the plan
    caches, compiled arenas and what-if answers.
    The first session pays each build; every later session's
    ``recommend`` is answered with 0 cache builds (reported as
    ``caches_shared`` in its statistics).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._namespaces: Dict[str, TierNamespace] = {}

    def namespace_for(
        self, catalog: "Catalog", optimizer: "OptimizerOptions"
    ) -> TierNamespace:
        """The (lazily created) namespace serving ``catalog`` under ``optimizer``.

        Keyed by both fingerprints, so every artifact a namespace holds --
        plan caches, arenas, what-if answers -- came from an optimizer that
        prices plans the same way.  A :class:`CacheStore` names its
        directory by the same string.
        """
        fingerprint = f"{catalog_fingerprint(catalog)}.{optimizer_fingerprint(optimizer)}"
        namespace = self._namespaces.get(fingerprint)
        if namespace is None:
            with self._lock:
                namespace = self._namespaces.get(fingerprint)
                if namespace is None:
                    namespace = TierNamespace(fingerprint)
                    self._namespaces[fingerprint] = namespace
        namespace.sessions_attached += 1
        return namespace

    @property
    def namespace_count(self) -> int:
        """How many (catalog, optimizer) namespaces the tier currently serves."""
        return len(self._namespaces)

    def namespaces(self) -> List[TierNamespace]:
        """The live namespaces (snapshot list, safe to iterate)."""
        return list(self._namespaces.values())

    def statistics_dict(self) -> Dict[str, object]:
        """Aggregated tier statistics (for ``server_stats`` and benchmarks)."""
        namespaces = self.namespaces()
        return {
            "catalogs": len(namespaces),
            "caches_published": sum(len(ns.caches) for ns in namespaces),
            "arenas_published": sum(len(ns.arenas) for ns in namespaces),
            "whatif_shared_hits": sum(ns.whatif.hits for ns in namespaces),
            "whatif_shared_promotions": sum(ns.whatif.promotions for ns in namespaces),
            "cache_hits": sum(ns.caches.hits for ns in namespaces),
            "cache_promotions": sum(ns.caches.promotions for ns in namespaces),
            "arena_hits": sum(ns.arenas.hits for ns in namespaces),
            "arena_promotions": sum(ns.arenas.promotions for ns in namespaces),
            "sessions_attached": sum(ns.sessions_attached for ns in namespaces),
        }
