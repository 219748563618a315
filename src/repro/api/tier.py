"""The shared read-only cache tier: one copy of the expensive state for N sessions.

The paper's INUM caches exist so an advisor can answer tuning questions
interactively instead of paying optimizer calls per question.  A concurrent
server multiplies that economy only if the warm state is *shared*: N tenants
over the same catalog must not pay N× cache builds or hold N copies of the
compiled arenas.  :class:`SharedCacheTier` is that process-wide tier:

* **per-catalog namespaces** keyed by catalog *fingerprint* (schema,
  statistics, permanent indexes), so sessions over equal-but-distinct
  :class:`~repro.catalog.catalog.Catalog` objects still share,
* **plan caches** (:class:`~repro.inum.cache.InumCache`), **compiled
  workload arenas** and **what-if optimizer results** published copy-on-write:
  readers see immutable snapshot dicts that are replaced wholesale under a
  single-writer lock, never mutated in place,
* **persistent-store pages**: one :class:`~repro.inum.serialization.PageCache`
  shared by every session's :class:`~repro.inum.serialization.CacheStore`,
  so a warm store is read and parsed once per process, not once per tenant.

Sessions keep *mutable* workload state (queries, weights, budget, DML
maintenance profiles) in per-session overlays; only immutable-after-build
artifacts are promoted into the tier.  A SELECT query's plan cache never
changes once built; DML caches are shallow-detached before a session writes
its pool-specific maintenance profile (see
:meth:`~repro.api.session.TuningSession._apply_maintenance`), so the shared
object stays pristine.

Task-safety model (CPython): tier reads are lock-free against published
snapshots; promotions serialize on a per-namespace lock.  Compiled arenas
are shared across sessions because evaluation is read-only up to their
internal :class:`~repro.inum.compiled.IndexSetMemo`, whose entries are
deterministic functions of the key -- a racing double-compute stores the
same value twice, never a wrong one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.inum.serialization import CacheStore, PageCache
from repro.obs.instruments import TIER_LOOKUPS, TIER_PROMOTIONS
from repro.optimizer.whatif import SharedWhatIfResults
from repro.util.fingerprint import catalog_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.catalog.catalog import Catalog
    from repro.inum.cache import InumCache

# Pre-resolved registry children: tier lookups sit on the recommend hot path,
# so the label resolution happens once at import, not per call.
_LOOKUP = {
    ("cache", True): TIER_LOOKUPS.labels(kind="cache", result="hit"),
    ("cache", False): TIER_LOOKUPS.labels(kind="cache", result="miss"),
    ("arena", True): TIER_LOOKUPS.labels(kind="arena", result="hit"),
    ("arena", False): TIER_LOOKUPS.labels(kind="arena", result="miss"),
}


#: Arenas published per catalog namespace.  An arena spans a whole workload,
#: so every workload delta of every tenant promotes a fresh one that only
#: that tenant will ask for again (and keeps in its own pool); what is worth
#: sharing is the handful of base workloads, adopted right after they are
#: promoted.  An arena is ~0.4 MB at 11 statements, so a generous bound
#: would hold every delta arena for the server's life.
DEFAULT_MAX_ARENAS = 8


@dataclass
class TierStatistics:
    """Cumulative accounting of one namespace's shared-tier traffic.

    ``cache_hits`` are session lookups answered with an already-promoted
    plan cache (each one is a whole cache build some tenant did not pay);
    ``cache_promotions`` count first-time publications.  The arena
    counters follow the same shape.
    """

    cache_hits: int = 0
    cache_promotions: int = 0
    arena_hits: int = 0
    arena_promotions: int = 0
    sessions_attached: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON form (for the server's ``server_stats`` operation)."""
        return {
            "cache_hits": self.cache_hits,
            "cache_promotions": self.cache_promotions,
            "arena_hits": self.arena_hits,
            "arena_promotions": self.arena_promotions,
            "sessions_attached": self.sessions_attached,
        }


class TierNamespace:
    """The shared artifacts of one catalog fingerprint.

    All reads go against published snapshot dicts (replaced, never mutated);
    all writes serialize on ``_lock``.  The cache keys are the session's
    :data:`~repro.api.session.CacheKey` -- (query fingerprint, builder,
    candidate-set fingerprint) -- so a tier hit is exactly as safe as a
    session-pool hit.
    """

    def __init__(
        self,
        fingerprint: str,
        *,
        max_caches: int = 2048,
        max_arenas: int = DEFAULT_MAX_ARENAS,
    ) -> None:
        self.fingerprint = fingerprint
        self.whatif = SharedWhatIfResults()
        self.statistics = TierStatistics()
        self._lock = threading.Lock()
        self._max_caches = max(1, max_caches)
        self._max_arenas = max(1, max_arenas)
        #: Published snapshots; replaced wholesale under ``_lock``.
        self._caches: Dict[tuple, "InumCache"] = {}
        #: Compiled workload arenas, keyed by the arena fingerprint
        #: (:func:`repro.inum.arena.arena_fingerprint`).
        self._arenas: Dict[str, object] = {}

    # -- plan caches -------------------------------------------------------

    def lookup_cache(self, key: tuple) -> Optional["InumCache"]:
        """The shared cache under ``key`` (lock-free snapshot read)."""
        cache = self._caches.get(key)
        if cache is not None:
            self.statistics.cache_hits += 1
        _LOOKUP[("cache", cache is not None)].inc()
        return cache

    def promote_caches(self, caches: Dict[tuple, "InumCache"]) -> int:
        """Publish a batch of freshly built caches; returns how many were new.

        Copy-on-write: the published dict is rebuilt and swapped in one
        assignment.  Already-promoted keys are left alone (first build wins;
        equal keys imply equal content), so a racing double-build cannot
        flap the shared object identity under other sessions' feet.
        """
        if not caches:
            return 0
        with self._lock:
            fresh = {key: cache for key, cache in caches.items() if key not in self._caches}
            if not fresh:
                return 0
            merged = dict(self._caches)
            merged.update(fresh)
            if len(merged) > self._max_caches:
                for stale in list(merged)[: len(merged) - self._max_caches]:
                    del merged[stale]
            self._caches = merged
            self.statistics.cache_promotions += len(fresh)
            TIER_PROMOTIONS.labels(kind="cache").inc(len(fresh))
            return len(fresh)

    @property
    def cache_count(self) -> int:
        """Plan caches currently published in this namespace."""
        return len(self._caches)

    # -- workload arenas ---------------------------------------------------

    def lookup_arena(self, arena_id: str) -> Optional[object]:
        """The shared arena under ``arena_id`` (lock-free)."""
        arena = self._arenas.get(arena_id)
        if arena is not None:
            self.statistics.arena_hits += 1
        _LOOKUP[("arena", arena is not None)].inc()
        return arena

    def promote_arena(self, arena_id: str, arena: object) -> object:
        """Publish one workload arena copy-on-write; returns the published one.

        First promotion wins, so a racing double-compile leaves every
        session holding the same object.  Oldest promotions are dropped past
        the namespace's arena bound.
        """
        with self._lock:
            published = self._arenas.get(arena_id)
            if published is not None:
                return published
            merged = dict(self._arenas)
            merged[arena_id] = arena
            if len(merged) > self._max_arenas:
                for stale in list(merged)[: len(merged) - self._max_arenas]:
                    del merged[stale]
            self._arenas = merged
            self.statistics.arena_promotions += 1
            TIER_PROMOTIONS.labels(kind="arena").inc()
            return arena

    @property
    def arena_count(self) -> int:
        """Workload arenas currently published in this namespace."""
        return len(self._arenas)


class ArenaPool:
    """One session's compiled arenas: a small LRU, optionally over a namespace.

    Implements the dict subset
    :class:`~repro.advisor.benefit.CacheBackedWorkloadCostModel` uses.  Reads
    consult the session-local LRU first and fall back to the namespace
    snapshot; writes land in the LRU *and* are promoted.  Eviction only ever
    drops the session's own reference, so one session cycling through
    workloads can never evict an arena other sessions rely on (the namespace
    applies its own copy-on-write bound instead).
    """

    def __init__(self, capacity: int, namespace: Optional[TierNamespace] = None) -> None:
        self._capacity = max(1, capacity)
        self._namespace = namespace
        self._local: "OrderedDict[str, object]" = OrderedDict()

    def get(self, arena_id: str, default: object = None) -> object:
        arena = self._local.get(arena_id)
        if arena is not None:
            self._local.move_to_end(arena_id)
            return arena
        if self._namespace is not None:
            arena = self._namespace.lookup_arena(arena_id)
            if arena is not None:
                self._remember(arena_id, arena)
                return arena
        return default

    def __setitem__(self, arena_id: str, arena: object) -> None:
        if self._namespace is not None:
            arena = self._namespace.promote_arena(arena_id, arena)
        self._remember(arena_id, arena)

    def _remember(self, arena_id: str, arena: object) -> None:
        self._local[arena_id] = arena
        while len(self._local) > self._capacity:
            self._local.popitem(last=False)

    def __contains__(self, arena_id: object) -> bool:
        return arena_id in self._local

    def __len__(self) -> int:
        return len(self._local)

    def clear(self) -> None:
        self._local.clear()


class SharedCacheTier:
    """Process-wide shared read-only tier for concurrent tuning sessions.

    Hand one instance to every :class:`~repro.api.session.TuningSession`
    (``shared_tier=``) -- or let :class:`~repro.api.server.TuningServer` do
    it -- and N sessions over the same catalog share one copy of the plan
    caches, compiled arenas, what-if results and parsed store pages.
    The first session pays each build; every later session's
    ``recommend`` is answered with 0 cache builds (reported as
    ``caches_shared`` in its statistics).
    """

    def __init__(
        self,
        *,
        max_caches_per_catalog: int = 2048,
        max_arenas_per_catalog: int = DEFAULT_MAX_ARENAS,
    ) -> None:
        self._lock = threading.Lock()
        self._max_caches = max_caches_per_catalog
        self._max_arenas = max_arenas_per_catalog
        self._namespaces: Dict[str, TierNamespace] = {}
        #: One parsed-page cache shared by every session's persistent store.
        self.page_cache = PageCache()
        self._stores: Dict[Tuple[str, str], CacheStore] = {}

    def namespace_for(self, catalog: "Catalog") -> TierNamespace:
        """The (lazily created) namespace serving ``catalog``'s fingerprint."""
        fingerprint = catalog_fingerprint(catalog)
        namespace = self._namespaces.get(fingerprint)
        if namespace is None:
            with self._lock:
                namespace = self._namespaces.get(fingerprint)
                if namespace is None:
                    namespace = TierNamespace(
                        fingerprint,
                        max_caches=self._max_caches,
                        max_arenas=self._max_arenas,
                    )
                    self._namespaces[fingerprint] = namespace
        namespace.statistics.sessions_attached += 1
        return namespace

    def store_for(self, cache_dir: object, catalog: "Catalog") -> CacheStore:
        """One persistent store per (directory, catalog), page cache shared.

        Sessions pointing at the same ``cache_dir`` get the *same*
        :class:`CacheStore` object, so its hit/save statistics aggregate
        across tenants and every parsed page lands in the shared
        :class:`PageCache` exactly once.
        """
        key = (str(Path(cache_dir).resolve()), catalog_fingerprint(catalog))
        store = self._stores.get(key)
        if store is None:
            with self._lock:
                store = self._stores.get(key)
                if store is None:
                    store = CacheStore(cache_dir, catalog, page_cache=self.page_cache)
                    self._stores[key] = store
        return store

    @property
    def namespace_count(self) -> int:
        """How many catalog fingerprints the tier currently serves."""
        return len(self._namespaces)

    def namespaces(self) -> List[TierNamespace]:
        """The live namespaces (snapshot list, safe to iterate)."""
        return list(self._namespaces.values())

    def statistics_dict(self) -> Dict[str, object]:
        """Aggregated tier statistics (for ``server_stats`` and benchmarks)."""
        namespaces = self.namespaces()
        totals = TierStatistics()
        for namespace in namespaces:
            stats = namespace.statistics
            totals.cache_hits += stats.cache_hits
            totals.cache_promotions += stats.cache_promotions
            totals.arena_hits += stats.arena_hits
            totals.arena_promotions += stats.arena_promotions
            totals.sessions_attached += stats.sessions_attached
        return {
            "catalogs": len(namespaces),
            "caches_published": sum(ns.cache_count for ns in namespaces),
            "arenas_published": sum(ns.arena_count for ns in namespaces),
            "whatif_shared_hits": sum(ns.whatif.hits for ns in namespaces),
            "whatif_shared_promotions": sum(ns.whatif.promotions for ns in namespaces),
            "store_page_hits": self.page_cache.hits,
            "store_page_misses": self.page_cache.misses,
            **totals.to_dict(),
        }
