"""Serialization of plan caches: JSON round-trips and the persistent store.

The paper motivates cheap cache construction partly by *online* physical
design, where caches must be built (and kept) per query as the workload
arrives.  Persisting a cache between designer runs makes the construction
cost a one-time expense; this module provides the stable on-disk format and
the :class:`CacheStore` that manages a directory of such caches keyed by
catalog, optimizer and query fingerprints.  A store holds no parsed pages
in memory: each load reads its file, and a session keeps what it loaded in
its own cache pool (and, on a server, publishes it to the shared tier).

Only the information the cost model needs is stored: per-entry internal
costs, symbolic leaf slots and the access-cost table.  A cache keeps no plan
trees, only their structural summaries, so a round-tripped cache answers
`estimate()` identically and reports the same ``unique_plan_count()``.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.inum.access_costs import AccessCostInfo
from repro.inum.cache import CacheBuildStatistics, CacheEntry, CachedSlot, InumCache
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.maintenance import MaintenanceProfile
from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.plan import PlanSummary
from repro.query.ast import Query
from repro.util.errors import PlanningError
from repro.util.fingerprint import (
    catalog_fingerprint,
    index_set_fingerprint,
    optimizer_fingerprint,
    query_fingerprint,
)

#: Format version written into every serialized cache.
FORMAT_VERSION = 1

#: Format version of the :class:`CacheStore` envelope around a cache.
STORE_FORMAT_VERSION = 1


def cache_to_dict(cache: InumCache) -> Dict[str, Any]:
    """Convert a cache into a JSON-able dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "query_name": cache.query.name,
        "maintenance": None if cache.maintenance is None else cache.maintenance.to_dict(),
        "entries": [_entry_to_dict(entry) for entry in cache.entries],
        "access_costs": [_access_cost_to_dict(info)
                         for table in cache.access_costs.tables()
                         for info in cache.access_costs.entries_for_table(table)],
        "build_stats": {
            "optimizer_calls_plans": cache.build_stats.optimizer_calls_plans,
            "optimizer_calls_access_costs": cache.build_stats.optimizer_calls_access_costs,
            "seconds_plans": cache.build_stats.seconds_plans,
            "seconds_access_costs": cache.build_stats.seconds_access_costs,
            "combinations_enumerated": cache.build_stats.combinations_enumerated,
            "whatif_cache_hits": cache.build_stats.whatif_cache_hits,
        },
    }


def cache_from_dict(payload: Dict[str, Any], query: Query) -> InumCache:
    """Rebuild a cache from :func:`cache_to_dict`'s output.

    ``query`` must be the same query the cache was built for (matched by
    name); the caller owns query storage because queries are first-class
    objects in this library, not strings.
    """
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise PlanningError(f"unsupported cache format version {version!r}")
    if payload.get("query_name") != query.name:
        raise PlanningError(
            f"cache was built for query {payload.get('query_name')!r}, "
            f"not {query.name!r}"
        )
    cache = InumCache(query)
    maintenance = payload.get("maintenance")
    if maintenance is not None:
        cache.maintenance = MaintenanceProfile.from_dict(maintenance)
    for entry_payload in payload.get("entries", []):
        cache.add_entry(_entry_from_dict(entry_payload))
    for info_payload in payload.get("access_costs", []):
        cache.access_costs.add(_access_cost_from_dict(info_payload))
    # Only known keys are read: files written when the statistics also
    # carried copies of other counts load unchanged (FORMAT_VERSION 1).
    stats = payload.get("build_stats", {})
    cache.build_stats = CacheBuildStatistics(
        optimizer_calls_plans=int(stats.get("optimizer_calls_plans", 0)),
        optimizer_calls_access_costs=int(stats.get("optimizer_calls_access_costs", 0)),
        seconds_plans=float(stats.get("seconds_plans", 0.0)),
        seconds_access_costs=float(stats.get("seconds_access_costs", 0.0)),
        combinations_enumerated=int(stats.get("combinations_enumerated", 0)),
        whatif_cache_hits=int(stats.get("whatif_cache_hits", 0)),
    )
    return cache


def save_cache(cache: InumCache, path: str) -> None:
    """Write a cache to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cache_to_dict(cache), handle, indent=2, sort_keys=True)


def load_cache(path: str, query: Query) -> InumCache:
    """Read a cache previously written by :func:`save_cache`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return cache_from_dict(payload, query)


# -- the persistent cache store ----------------------------------------------------


class CacheStore:
    """A persistent, versioned directory of per-query plan caches.

    Layout::

        <root>/
          <catalog fingerprint>.<optimizer fingerprint>/
            <query fingerprint>.<builder>.json

    Each file wraps :func:`cache_to_dict`'s payload in an envelope recording
    the store format version, the catalog fingerprint the cache was built
    against, the fingerprint of the optimizer that built it (``optimizer``:
    its options, ``None`` for the defaults), the query fingerprint, the
    builder that produced it and a digest of the candidate-index set whose
    access costs were collected.  A lookup only succeeds when *all* of those
    match.  Changing the schema, the statistics or the optimizer (other cost
    parameters, an older planner revision) changes the directory name --
    the shared tier's namespace key -- so every old cache is invisible and
    two optimizers sharing one root never overwrite each other's files.  A
    cache whose envelope names another catalog or optimizer (or was written
    before envelopes recorded the optimizer), another candidate set or
    another builder is rejected as stale.  Corrupt or unreadable files are
    treated as misses, never as errors.
    """

    #: Process-wide counter so concurrent saves never share a scratch file.
    _scratch_ids = itertools.count()

    def __init__(
        self,
        root: Union[str, Path],
        catalog: Catalog,
        optimizer: Optional[OptimizerOptions] = None,
    ) -> None:
        self.root = Path(root)
        self.catalog_fingerprint = catalog_fingerprint(catalog)
        self.optimizer_fingerprint = optimizer_fingerprint(optimizer or OptimizerOptions())
        #: Files found but refused as stale (another catalog, optimizer,
        #: builder or candidate set).  Loads and saves are counted by the
        #: session (``SessionStatistics.caches_from_store`` / ``caches_built``).
        self.stale_rejections = 0
        #: This (catalog, optimizer) pair's directory.
        self.directory = self.root / f"{self.catalog_fingerprint}.{self.optimizer_fingerprint}"

    def path_for(self, query: Query, builder: str = "pinum") -> Path:
        """Where a query's cache lives for the given builder."""
        return self.directory / f"{query_fingerprint(query)}.{builder}.json"

    # -- load / save ------------------------------------------------------

    def load(
        self,
        query: Query,
        builder: str = "pinum",
        candidate_indexes: Optional[Sequence[Index]] = None,
    ) -> Optional[InumCache]:
        """The stored cache for ``query``, or ``None`` on any mismatch.

        ``candidate_indexes`` must be the set the caller is about to build
        with; a stored cache whose access costs were collected for a
        different set is stale (it could not answer configuration questions
        about the new candidates) and is rejected.
        """
        path = self.path_for(query, builder)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            return self._unwrap(envelope, query, builder, candidate_indexes)
        except PlanningError:
            self.stale_rejections += 1
            return None

    def save(
        self,
        query: Query,
        cache: InumCache,
        builder: str = "pinum",
        candidate_indexes: Optional[Sequence[Index]] = None,
    ) -> Path:
        """Persist ``cache`` atomically; returns the file path.

        An unusable store location (``root`` is a file, permissions, a full
        disk) raises :class:`PlanningError` rather than leaking the raw
        :class:`OSError` -- a misconfigured ``--cache-dir`` should produce a
        one-line CLI error, not a traceback.
        """
        path = self.path_for(query, builder)
        envelope = {
            "store_format_version": STORE_FORMAT_VERSION,
            "catalog_fingerprint": self.catalog_fingerprint,
            "optimizer_fingerprint": self.optimizer_fingerprint,
            "query_fingerprint": query_fingerprint(query),
            "builder": builder,
            "candidate_fingerprint": index_set_fingerprint(candidate_indexes),
            "cache": cache_to_dict(cache),
        }
        # A unique scratch name per write: two sessions saving the same page
        # concurrently must not interleave into one half-written temp file
        # (each os.replace is atomic, so last-writer-wins is safe).
        scratch = path.with_suffix(f".tmp{next(self._scratch_ids)}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(scratch, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, indent=2, sort_keys=True)
            os.replace(scratch, path)
        except OSError as error:
            raise PlanningError(f"cannot write cache store file {path}: {error}") from None
        return path

    def clear(self) -> int:
        """Delete every cache stored for this catalog and optimizer; returns the count."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def stored_count(self) -> int:
        """Number of cache files currently stored for this catalog and optimizer."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    # -- internals --------------------------------------------------------

    def _unwrap(
        self,
        envelope: Dict[str, Any],
        query: Query,
        builder: str,
        candidate_indexes: Optional[Sequence[Index]],
    ) -> InumCache:
        if envelope.get("store_format_version") != STORE_FORMAT_VERSION:
            raise PlanningError("unsupported store format version")
        if envelope.get("catalog_fingerprint") != self.catalog_fingerprint:
            raise PlanningError("cache was built against a different catalog")
        if envelope.get("optimizer_fingerprint") != self.optimizer_fingerprint:
            raise PlanningError("cache was built by a different optimizer")
        if envelope.get("query_fingerprint") != query_fingerprint(query):
            raise PlanningError("cache was built for a different query")
        if envelope.get("builder") != builder:
            raise PlanningError("cache was built by a different builder")
        if envelope.get("candidate_fingerprint") != index_set_fingerprint(candidate_indexes):
            raise PlanningError("cache was built for a different candidate set")
        payload = dict(envelope.get("cache") or {})
        # The store matches queries by fingerprint (canonical SQL); the
        # caller's name for the same statement may differ from the one the
        # cache was saved under.
        payload["query_name"] = query.name
        return cache_from_dict(payload, query)


# -- entry / slot / access-cost conversion helpers --------------------------------


def _entry_to_dict(entry: CacheEntry) -> Dict[str, Any]:
    return {
        "ioc": {table: order for table, order in entry.ioc.as_dict().items()},
        "internal_cost": entry.internal_cost,
        "uses_nestloop": entry.uses_nestloop,
        "source": entry.source,
        "slots": [
            {
                "table": slot.table,
                "required_order": slot.required_order,
                "multiplier": slot.multiplier,
                "parameterized": slot.parameterized,
            }
            for slot in entry.slots
        ],
        "summary": _summary_to_dict(entry.summary),
    }


def _entry_from_dict(payload: Dict[str, Any]) -> CacheEntry:
    slots = tuple(
        CachedSlot(
            table=slot["table"],
            required_order=slot.get("required_order"),
            multiplier=float(slot.get("multiplier", 1.0)),
            parameterized=bool(slot.get("parameterized", False)),
        )
        for slot in payload.get("slots", [])
    )
    return CacheEntry(
        ioc=InterestingOrderCombination(dict(payload["ioc"])),
        internal_cost=float(payload["internal_cost"]),
        slots=slots,
        uses_nestloop=bool(payload.get("uses_nestloop", False)),
        source=str(payload.get("source", "unknown")),
        summary=_summary_from_dict(payload.get("summary")),
    )


def _summary_to_dict(summary: Optional[PlanSummary]) -> Optional[Dict[str, Any]]:
    if summary is None:
        return None
    return {
        "operators": list(summary.operators),
        "leaves": [list(leaf) for leaf in summary.leaves],
        "internal_cost": summary.internal_cost,
    }


def _summary_from_dict(payload: Optional[Dict[str, Any]]) -> Optional[PlanSummary]:
    if payload is None:
        return None
    return PlanSummary(
        operators=tuple(payload.get("operators", [])),
        leaves=tuple(tuple(leaf) for leaf in payload.get("leaves", [])),
        internal_cost=float(payload.get("internal_cost", 0.0)),
    )


def _access_cost_to_dict(info: AccessCostInfo) -> Dict[str, Any]:
    return {
        "table": info.table,
        "index_key": None if info.index_key is None else [info.index_key[0], list(info.index_key[1])],
        "full_cost": info.full_cost,
        "probe_cost": info.probe_cost,
        "provided_order": info.provided_order,
        "covering": info.covering,
        "rows": info.rows,
    }


def _access_cost_from_dict(payload: Dict[str, Any]) -> AccessCostInfo:
    raw_key = payload.get("index_key")
    index_key = None if raw_key is None else (raw_key[0], tuple(raw_key[1]))
    return AccessCostInfo(
        table=payload["table"],
        index_key=index_key,
        full_cost=float(payload["full_cost"]),
        probe_cost=None if payload.get("probe_cost") is None else float(payload["probe_cost"]),
        provided_order=payload.get("provided_order"),
        covering=bool(payload.get("covering", False)),
        rows=float(payload.get("rows", 0.0)),
    )
