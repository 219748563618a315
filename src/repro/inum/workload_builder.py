"""Workload-scale cache construction: build every query's plan cache at once.

The per-query builders (:class:`~repro.inum.cache_builder.InumCacheBuilder`,
:class:`~repro.pinum.cache_builder.PinumCacheBuilder`) answer "how cheaply
can *one* cache be filled?".  A physical-design tool needs caches for a whole
workload, so this module builds them in one serial in-process pass that
saves work along two axes:

* **memoization** -- every what-if probe is routed through one shared
  :class:`~repro.optimizer.whatif.WhatIfCallCache`, and queries with
  identical SQL (a fixture of real workloads, where the same template
  arrives over and over) are fingerprint-deduplicated and built once, and
* **persistence** -- with a :class:`~repro.inum.serialization.CacheStore`
  attached, caches built by a previous run are loaded instead of rebuilt
  (and freshly built ones are saved), making construction a one-time cost
  per (catalog, query, candidate-set) combination.

The result is a :class:`WorkloadBuildResult`: one
:class:`~repro.inum.cache.InumCache` per query plus a
:class:`WorkloadBuildReport` merging the per-query build statistics into the
workload-level accounting the benchmarks and the CLI report.

This builder is the tail of the plan-cache lookup chain: sessions (and
through them the CLI) reach it only via
:meth:`repro.api.tier.PlanCachePool.acquire`, which hands it the statements
neither the session pool nor the shared tier could answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.inum.cache import CacheBuildStatistics, InumCache
from repro.inum.cache_builder import InumCacheBuilder
from repro.inum.dml import build_statement_cache
from repro.inum.serialization import CacheStore, cache_from_dict, cache_to_dict
from repro.obs.instruments import BUILD_QUERIES
from repro.obs.trace import get_tracer
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache
from repro.pinum.cache_builder import PinumCacheBuilder
from repro.query.ast import DmlStatement, Query
from repro.util.errors import ReproError, validate_name
from repro.util.fingerprint import query_fingerprint
from repro.util.timing import timed


#: Per-query plan-cache builders by ``WorkloadBuilderOptions.builder`` name:
#: classes constructed as ``builder(optimizer, options=None, call_cache=None)``
#: with a ``build_cache(query, candidate_indexes)`` method.  A plain dict: a
#: new builder is one assignment away.
CACHE_BUILDERS = {"pinum": PinumCacheBuilder, "inum": InumCacheBuilder}


@dataclass
class WorkloadBuilderOptions:
    """Knobs of a workload-scale build.

    ``builder`` selects the per-query builder (a :data:`CACHE_BUILDERS`
    name, validated here).  ``use_call_cache`` toggles the memoizing what-if
    layer shared by every query of the build (off, a build reports the
    paper's un-memoised optimizer-call counts).
    """

    builder: str = "pinum"
    use_call_cache: bool = True

    def __post_init__(self) -> None:
        validate_name("cache builder", self.builder, CACHE_BUILDERS)


@dataclass
class QueryBuildOutcome:
    """How one query's cache was obtained."""

    query_name: str
    builder: str
    #: ``"built"`` (fresh optimizer work), ``"from_store"`` (loaded from the
    #: persistent cache store) or ``"deduplicated"`` (identical SQL to an
    #: earlier query; its cache was shared); the pool in front of the
    #: builder adds ``"reused"`` (session pool) and ``"shared"`` (tier).
    source: str
    stats: CacheBuildStatistics
    deduped_from: Optional[str] = None


@dataclass
class WorkloadBuildReport:
    """Workload-level merge of the per-query build statistics."""

    builder: str
    outcomes: List[QueryBuildOutcome] = field(default_factory=list)
    #: Wall-clock seconds of the whole build, store lookups included.
    wall_seconds: float = 0.0

    def outcome_for(self, query_name: str) -> Optional[QueryBuildOutcome]:
        """The outcome recorded for ``query_name`` (if any)."""
        for outcome in self.outcomes:
            if outcome.query_name == query_name:
                return outcome
        return None

    def _built(self) -> List[QueryBuildOutcome]:
        return [outcome for outcome in self.outcomes if outcome.source == "built"]

    def count(self, source: str) -> int:
        """How many queries' caches came from ``source``."""
        return sum(1 for outcome in self.outcomes if outcome.source == source)

    @property
    def queries_total(self) -> int:
        """Number of queries in the workload."""
        return len(self.outcomes)

    @property
    def queries_built(self) -> int:
        """Queries whose cache was freshly constructed this run."""
        return self.count("built")

    @property
    def queries_from_store(self) -> int:
        """Queries answered from the persistent cache store."""
        return self.count("from_store")

    @property
    def queries_deduplicated(self) -> int:
        """Queries sharing an identical-SQL sibling's cache."""
        return self.count("deduplicated")

    @property
    def optimizer_calls(self) -> int:
        """Optimizer calls actually spent this run (fresh builds only)."""
        return sum(outcome.stats.optimizer_calls_total for outcome in self._built())

    @property
    def build_seconds(self) -> float:
        """Summed per-query build seconds of the fresh builds."""
        return sum(outcome.stats.seconds_total for outcome in self._built())

    @property
    def whatif_cache_hits(self) -> int:
        """What-if probes answered from the memoization layer this run."""
        return sum(outcome.stats.whatif_cache_hits for outcome in self._built())

    @property
    def whatif_hit_rate(self) -> float:
        """Hit fraction of the memoizing what-if layer across fresh builds."""
        requests = sum(outcome.stats.whatif_requests for outcome in self._built())
        if not requests:
            return 0.0
        return self.whatif_cache_hits / requests


@dataclass
class WorkloadBuildResult:
    """Caches for every workload query plus the build report."""

    caches: Dict[str, InumCache]
    report: WorkloadBuildReport

    def cache_for(self, query: Query) -> InumCache:
        """The cache built for ``query`` (by name)."""
        try:
            return self.caches[query.name]
        except KeyError:
            raise ReproError(f"no cache was built for query {query.name!r}") from None


class WorkloadCacheBuilder:
    """Builds the plan caches of an entire workload.

    It needs a ``catalog`` or an ``optimizer`` (whose catalog it then
    uses).  ``store`` attaches a persistent :class:`CacheStore` consulted
    before and updated after every build.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        options: Optional[WorkloadBuilderOptions] = None,
        *,
        store: Optional[CacheStore] = None,
        optimizer: Optional[Optimizer] = None,
        call_cache: Optional[WhatIfCallCache] = None,
    ) -> None:
        if catalog is None and optimizer is None:
            raise ReproError("WorkloadCacheBuilder needs a catalog or an optimizer")
        self._catalog = catalog if catalog is not None else optimizer.catalog
        #: Builds reuse this optimizer when given (so session options and
        #: call counters stay with the caller).
        self._optimizer = optimizer
        #: Builds route their what-if probes through this cache when given
        #: (e.g. a session-lifetime cache warmed by earlier builds) instead
        #: of a fresh per-build one.
        self._call_cache = call_cache
        self.options = options or WorkloadBuilderOptions()
        self.store = store

    @property
    def catalog(self) -> Catalog:
        """The catalog the caches are built against."""
        return self._catalog

    def build(
        self,
        queries: Sequence[Query],
        candidate_indexes: Optional[Sequence[Index]] = None,
        *,
        per_query_candidates: Optional[Dict[str, Optional[List[Index]]]] = None,
    ) -> WorkloadBuildResult:
        """Build (or load) one cache per query in ``queries``.

        ``candidate_indexes`` is the workload-wide candidate pool; each
        query's build only sees the candidates touching its tables (the same
        filtering the advisor's cost models apply).  ``None`` falls back to
        the builders' default probe indexes.  ``per_query_candidates``
        overrides that filtering with an explicit per-query-name candidate
        mapping -- the session API uses this to build each query's cache for
        exactly the candidate set its cache key was fingerprinted with.
        """
        if not queries:
            raise ReproError("the workload must contain at least one query")
        opts = self.options
        with get_tracer().span(
            "inum.build_workload",
            builder=opts.builder,
            queries=len(queries),
        ) as span, timed() as wall:
            result = self._build(list(queries), candidate_indexes, per_query_candidates, wall)
        report = result.report
        span.set(
            built=report.queries_built,
            from_store=report.queries_from_store,
            deduplicated=report.queries_deduplicated,
        )
        return result

    def _build(
        self,
        queries: List[Query],
        candidate_indexes: Optional[Sequence[Index]],
        per_query_candidates: Optional[Dict[str, Optional[List[Index]]]],
        wall: timed,
    ) -> WorkloadBuildResult:
        opts = self.options

        plans = self._plan_queries(queries)
        if per_query_candidates is None:
            per_query_candidates = {
                query.name: self._relevant_candidates(query, candidate_indexes)
                for query, _ in plans
            }
        else:
            missing = [
                query.name for query, _ in plans if query.name not in per_query_candidates
            ]
            if missing:
                raise ReproError(
                    f"per_query_candidates is missing entries for: {', '.join(missing)}"
                )

        caches: Dict[str, InumCache] = {}
        outcomes: Dict[str, QueryBuildOutcome] = {}

        # 1. Persistent store lookups for the primaries.
        to_build: List[Query] = []
        for query, deduped_from in plans:
            if deduped_from is not None:
                continue
            stored = None
            if self.store is not None:
                stored = self.store.load(
                    query, opts.builder, per_query_candidates[query.name]
                )
            if stored is not None:
                caches[query.name] = stored
                outcomes[query.name] = QueryBuildOutcome(
                    query.name, opts.builder, "from_store", stored.build_stats
                )
            else:
                to_build.append(query)

        # 2. Fresh builds, one shared optimizer and what-if cache.
        optimizer = self._optimizer if self._optimizer is not None else Optimizer(self._catalog)
        call_cache = None
        if opts.use_call_cache:
            call_cache = (
                self._call_cache if self._call_cache is not None else WhatIfCallCache(optimizer)
            )
        for query in to_build:
            cache = _build_one_cache(
                optimizer, call_cache, opts, query, per_query_candidates[query.name]
            )
            caches[query.name] = cache
            outcomes[query.name] = QueryBuildOutcome(
                query.name, opts.builder, "built", cache.build_stats
            )
            if self.store is not None:
                self.store.save(query, cache, opts.builder, per_query_candidates[query.name])

        # 3. Share caches across identical-SQL duplicates.
        for query, deduped_from in plans:
            if deduped_from is None:
                continue
            caches[query.name] = rename_cache(caches[deduped_from], query)
            outcomes[query.name] = QueryBuildOutcome(
                query.name, opts.builder, "deduplicated",
                CacheBuildStatistics(), deduped_from=deduped_from,
            )

        report = WorkloadBuildReport(
            builder=opts.builder,
            outcomes=[outcomes[query.name] for query in queries],
            wall_seconds=wall.elapsed(),
        )
        for outcome in report.outcomes:
            BUILD_QUERIES.labels(source=outcome.source).inc()
        return WorkloadBuildResult(caches=caches, report=report)

    # -- internals ---------------------------------------------------------

    def _plan_queries(self, queries: List[Query]) -> List[Tuple[Query, Optional[str]]]:
        """Pair each query with the name of its identical-SQL primary (or None)."""
        plans: List[Tuple[Query, Optional[str]]] = []
        primary_by_fingerprint: Dict[str, str] = {}
        for query in queries:
            fingerprint = query_fingerprint(query)
            primary = primary_by_fingerprint.get(fingerprint)
            if primary is None:
                primary_by_fingerprint[fingerprint] = query.name
                plans.append((query, None))
            else:
                plans.append((query, primary))
        return plans

    @staticmethod
    def _relevant_candidates(
        query: Query, candidates: Optional[Sequence[Index]]
    ) -> Optional[List[Index]]:
        if candidates is None:
            return None
        return [index for index in candidates if index.table in query.tables]


def _build_one_cache(
    optimizer: Optimizer,
    call_cache: Optional[WhatIfCallCache],
    options: WorkloadBuilderOptions,
    query: Query,
    candidates: Optional[Sequence[Index]],
) -> InumCache:
    """Build a single statement's cache with the configured per-query builder.

    The builder class comes from :data:`CACHE_BUILDERS` and runs with its
    default options.  DML statements build their *shadow* query
    through the same builder and carry a maintenance profile on top
    (:mod:`repro.inum.dml`); the shared what-if layer memoizes both kinds of
    probe.
    """
    builder = CACHE_BUILDERS[options.builder](optimizer, None, call_cache=call_cache)
    if isinstance(query, DmlStatement):
        return build_statement_cache(
            query,
            candidates,
            optimizer.catalog,
            builder.build_cache,
            whatif=call_cache,
        )
    return builder.build_cache(query, candidates)


def rename_cache(cache: InumCache, query: Query) -> InumCache:
    """A copy of ``cache`` re-attached to ``query`` (identical SQL, other name).

    Used for identical-SQL deduplication here and by the session pool when a
    warm cache is reused under a different query name.
    """
    payload = cache_to_dict(cache)
    payload["query_name"] = query.name
    return cache_from_dict(payload, query)
