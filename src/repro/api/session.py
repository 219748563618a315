"""Long-lived tuning sessions: the service-oriented face of the advisor.

The paper's economics are "build the plan caches once, answer many what-if
and tuning questions with arithmetic" -- but the one-shot
:class:`~repro.advisor.advisor.IndexAdvisor` re-assembled the world on every
``recommend()`` call.  A :class:`TuningSession` owns the expensive state for
its whole lifetime:

* the catalog and one :class:`~repro.optimizer.optimizer.Optimizer`,
* a memoizing :class:`~repro.optimizer.whatif.WhatIfCallCache` shared by
  every cache build and what-if probe the session performs,
* a :class:`~repro.api.tier.PlanCachePool` of per-query plan caches keyed
  by (query fingerprint, builder, candidate-set fingerprint) -- plus the
  workload arenas compiled from them -- reused across requests, in front
  of the optional shared tier and the optional persistent
  :class:`~repro.inum.serialization.CacheStore`.

Every request that needs plan caches runs one pipeline: candidate plan ->
cache keys -> :meth:`~repro.api.tier.PlanCachePool.acquire` (the lookup
chain, described once in :mod:`repro.api.tier`) -> maintenance profiles ->
cost model.  ``recommend``, ``evaluate`` and the CLI's cache commands
(``build_query_cache``, ``build_workload_caches``) reach a cache builder no
other way.

Requests are typed messages (:mod:`repro.api.requests`): ``recommend``
re-tunes the current workload, ``evaluate`` prices an index set from the
warm caches, ``what_if`` asks the real optimizer, ``explain`` plans one
query.  The workload is mutable -- :meth:`add_queries`,
:meth:`remove_queries`, :meth:`set_budget` -- and re-tuning after a mutation
is *incremental*: only queries whose (query, builder, candidate-set) key is
new get caches built; everything else is answered from the session pool or
the persistent store, and selection re-runs on the already-compiled arena.

Two candidate policies (by name, through
:data:`~repro.advisor.advisor.CANDIDATE_POLICIES`) control the delta behaviour:

* ``"workload"`` -- the one-shot advisor's semantics: one workload-wide
  candidate pool, each query's cache built for the pool members touching its
  tables.  Exact CLI compatibility, but adding a query that contributes new
  candidates on a shared table invalidates its neighbours' caches.
* ``"per_query"`` -- each query's cache is built for the candidates derived
  from *that query alone* (the classic INUM arrangement), so workload
  mutations rebuild exactly the delta.  Selection still runs over the
  deduplicated union of all per-query candidates; an index unknown to some
  query's cache simply cannot improve that query, which matches the scalar
  model's treatment of uncollected access costs.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.advisor.advisor import (
    CANDIDATE_POLICIES,
    COST_MODELS,
    SELECTORS,
    AdvisorOptions,
    AdvisorResult,
    validate_tuning_limits,
)
from repro.advisor.benefit import CacheBackedWorkloadCostModel, OptimizerWorkloadCostModel
from repro.advisor.candidates import (
    CandidateGenerator,
    CandidatePlan,
    per_query_candidate_policy,  # noqa: F401 - re-exported from its old home
    pooled_candidate_plan,
    prune_write_dominated,
    workload_candidate_policy,  # noqa: F401 - re-exported from its old home
)
from repro.advisor.greedy import SelectionStatistics
from repro.api.tier import (
    LocalPool,
    PlanCachePool,
    SharedCacheTier,
    TierNamespace,
    cache_keys,
)
from repro.api.requests import (
    UNSET,
    EvaluateRequest,
    EvaluateResponse,
    ExplainRequest,
    ExplainResponse,
    RecommendRequest,
    RecommendResponse,
    WhatIfRequest,
    WhatIfResponse,
    WorkloadResponse,
)
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.inum.cache import InumCache
from repro.inum.serialization import CacheStore
from repro.inum.workload_builder import WorkloadBuildReport, WorkloadBuildResult
from repro.obs.instruments import RECOMMEND_SECONDS, SESSION_CACHES
from repro.obs.trace import get_tracer
from repro.optimizer.maintenance import MaintenanceProfile, build_profiles
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache
from repro.query.ast import DmlStatement, Query, Statement
from repro.util.errors import AdvisorError
from repro.util.fingerprint import (
    index_set_fingerprint,
    query_fingerprint,
    template_fingerprint,
)
from repro.util.timing import timed
from repro.workloads.compress import compress_workload


# -- session statistics ------------------------------------------------------------


@dataclass
class SessionStatistics:
    """Cumulative accounting of one session's cache traffic.

    ``caches_built`` cost fresh optimizer work, ``caches_from_store`` were
    loaded from the persistent store, ``caches_deduplicated`` shared an
    identical-SQL sibling's build, ``caches_reused`` were answered from
    the session's in-memory pool without touching builder or store, and
    ``caches_shared`` came from the process-wide
    :class:`~repro.api.tier.SharedCacheTier` (another session's build).
    """

    recommend_calls: int = 0
    caches_built: int = 0
    caches_from_store: int = 0
    caches_deduplicated: int = 0
    caches_reused: int = 0
    caches_shared: int = 0

    def record_caches(self, source: str, count: int = 1) -> None:
        """Count cache acquisitions: the field and the registry in one step.

        ``source`` is one of ``built`` / ``from_store`` / ``deduplicated`` /
        ``reused`` / ``shared`` -- the one vocabulary of the builder report's
        outcomes, these fields and the ``repro_session_caches_total`` label.
        :meth:`repro.api.tier.PlanCachePool.acquire` is the only caller.
        """
        field_name = f"caches_{source}"
        setattr(self, field_name, getattr(self, field_name) + count)
        SESSION_CACHES.labels(source=source).inc(count)


# -- the session -------------------------------------------------------------------


class TuningSession:
    """A long-lived index-tuning service over one catalog.

    ``options`` carries the session defaults (budget, cost model, selector,
    engine, candidate policy, cache_dir); individual
    :class:`~repro.api.requests.RecommendRequest` fields override them per
    call.
    """

    #: Cap on pooled plan caches (least recently used goes first), so a
    #: long-lived serve process cannot grow without bound.  A request larger
    #: than the cap still completes: it holds its own references.
    DEFAULT_MAX_POOLED_CACHES = 512

    #: Arenas the session keeps (least recently used goes first).  An arena
    #: spans the whole workload, so every workload delta compiles a new one
    #: that is never asked for again once the delta is undone; the only
    #: arena ever re-requested is the one before the delta.  Measured on the
    #: benchmark's ``warm_retune`` / ``serve_mixed`` / ``online_trace``
    #: traffic with an unbounded pool: every hit was at LRU depth 1 or 2
    #: (198 / 101 / 49 hits, none deeper), so two is all the traffic uses;
    #: recompiling from warm caches takes milliseconds anyway.
    MAX_POOLED_ARENAS = 2

    def __init__(
        self,
        catalog: Catalog,
        queries: Sequence[Statement] = (),
        *,
        options: Optional[AdvisorOptions] = None,
        optimizer: Optional[Optimizer] = None,
        generator: Optional[CandidateGenerator] = None,
        max_pooled_caches: int = DEFAULT_MAX_POOLED_CACHES,
        shared_tier: Optional[SharedCacheTier] = None,
    ) -> None:
        self._catalog = catalog
        self._options = options or AdvisorOptions()
        self._optimizer = optimizer or Optimizer(catalog)
        self._generator = generator or CandidateGenerator(catalog)
        #: The process-wide shared read-only tier (None for a solo session).
        #: The session itself stays single-threaded; the tier is what makes
        #: N sessions share builds without sharing mutable state.
        self._shared_tier = shared_tier
        # The tier namespace and the store are keyed by the optimizer too:
        # an answer cached under other cost parameters is never handed out.
        optimizer_options = self._optimizer.options
        namespace = store = None
        if shared_tier is not None:
            namespace = shared_tier.namespace_for(catalog, optimizer_options)
        if self._options.cache_dir is not None:
            store = CacheStore(self._options.cache_dir, catalog, optimizer=optimizer_options)
        self._call_cache = WhatIfCallCache(
            self._optimizer,
            shared=namespace.whatif if namespace is not None else None,
        )
        self._queries: Dict[str, Statement] = {}
        self.statistics = SessionStatistics()
        #: Where every plan cache of this session comes from.
        self._pool = PlanCachePool(
            self._optimizer,
            self._call_cache,
            self.statistics,
            capacity=max_pooled_caches,
            namespace=namespace,
            store=store,
        )
        #: Compiled workload arenas, keyed by arena fingerprint.  Tier-backed
        #: sessions adopt arenas other tenants compiled (the namespace is
        #: keyed by catalog and optimizer fingerprint).
        self._arena_pool = LocalPool(
            self.MAX_POOLED_ARENAS, namespace.arenas if namespace is not None else None
        )
        self._model = None
        self._model_signature: Optional[tuple] = None
        #: The most recent recommend outcome (for the serve ``stats`` op's
        #: selector telemetry -- selector, optimality gap, solver nodes).
        self.last_result: Optional[AdvisorResult] = None
        #: Monotonic observability timestamps (``server_stats`` surfaces
        #: them): when the session was created and when it last recommended.
        #: An online re-tune's time is the watcher's
        #: (:attr:`repro.online.OnlineTuner.last_retune_at`).
        self.created_at: float = time.monotonic()
        self.last_recommend_at: Optional[float] = None
        #: Stats of the most recent workload compression (an
        #: ``add_queries(compress=True)`` fold or a compressed recommend);
        #: ``None`` until one happens.  Serve's ``add_queries`` op surfaces
        #: it so clients see the fold ratio they just paid for.
        self.last_compression: Optional[Dict[str, object]] = None
        if queries:
            self.add_queries(queries)

    # -- introspection -----------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        """The catalog this session tunes against."""
        return self._catalog

    @property
    def optimizer(self) -> Optimizer:
        """The session's optimizer (shared by every request)."""
        return self._optimizer

    @property
    def options(self) -> AdvisorOptions:
        """The session's current default options."""
        return self._options

    @property
    def store(self) -> Optional[CacheStore]:
        """The persistent cache store (``None`` without ``cache_dir``)."""
        return self._pool.store

    @property
    def call_cache(self) -> WhatIfCallCache:
        """The session-lifetime memoizing what-if layer."""
        return self._call_cache

    @property
    def shared_tier(self) -> Optional[SharedCacheTier]:
        """The process-wide shared tier (``None`` for a solo session)."""
        return self._shared_tier

    @property
    def tier_namespace(self) -> Optional[TierNamespace]:
        """This session's catalog namespace in the shared tier (if any)."""
        return self._pool.namespace

    @property
    def queries(self) -> List[Statement]:
        """The current workload, in insertion order."""
        return list(self._queries.values())

    @property
    def query_names(self) -> List[str]:
        """Names of the current workload queries, in insertion order."""
        return list(self._queries)

    def cached_query_count(self) -> int:
        """Plan caches currently warm in the session pool."""
        return len(self._pool)

    def describe(self) -> WorkloadResponse:
        """The session's workload and tuning state (for ``repro serve``)."""
        weights = self._options.weight_map()
        return WorkloadResponse(
            queries=[
                {
                    "name": query.name,
                    "sql": query.to_sql(),
                    "kind": query.kind.value if query.is_dml else "select",
                    "weight": weights.get(query.name, 1.0),
                }
                for query in self._queries.values()
            ],
            space_budget_bytes=self._options.space_budget_bytes,
            caches_warm=len(self._pool),
        )

    # -- workload mutation -------------------------------------------------

    def add_queries(
        self,
        queries: Sequence[Statement],
        *,
        compress: bool = False,
        weights: Optional[Dict[str, float]] = None,
    ) -> List[str]:
        """Append statements (queries or DML) to the workload; returns the names.

        Names must be unique within the session (the caches, cost models and
        reports are keyed by name).

        ``compress=True`` folds the incoming batch by template fingerprint
        first (:func:`~repro.workloads.compress.compress_workload`): one
        fingerprint-named representative per template enters the workload
        with the cluster's multiplicity merged into the session's statement
        weights, and re-adding instances of a template already in the
        session just bumps its weight -- so a statement stream can be fed
        in batches without the workload growing past the template count.
        ``weights`` (compress only) maps incoming statement names to
        frequencies, default 1.0 each; the returned names are the
        representatives, one per distinct template.
        """
        if not compress:
            if weights is not None:
                raise AdvisorError(
                    "add_queries(weights=...) requires compress=True "
                    "(use set_weights for uncompressed workloads)"
                )
            incoming = list(queries)
            # Validate the whole batch before touching the workload, so a
            # duplicate in the middle never leaves a half-applied mutation.
            seen: set = set()
            for query in incoming:
                if query.name in self._queries or query.name in seen:
                    raise AdvisorError(
                        f"a query named {query.name!r} is already in the session workload"
                    )
                seen.add(query.name)
            for query in incoming:
                self._queries[query.name] = query
            if incoming:
                self._invalidate_model()
            return [query.name for query in incoming]

        compressed = compress_workload(list(queries), weights)
        # Check every cluster before inserting any (atomic, as above).
        for cluster in compressed.clusters:
            existing = self._queries.get(cluster.representative.name)
            if existing is not None and template_fingerprint(existing) != cluster.fingerprint:
                raise AdvisorError(
                    f"a statement named {cluster.representative.name!r} is already "
                    "in the session workload with a different template"
                )
        self.last_compression = compressed.stats()
        merged = self._options.weight_map()
        for cluster in compressed.clusters:
            name = cluster.representative.name
            if name in self._queries:
                merged[name] = merged.get(name, 1.0) + cluster.weight
            else:
                self._queries[name] = cluster.representative
                merged[name] = cluster.weight
        if compressed.clusters:
            self._options = dataclasses.replace(
                self._options, statement_weights=merged or None
            )
            self._invalidate_model()
        return [cluster.representative.name for cluster in compressed.clusters]

    def remove_queries(self, names: Sequence[str]) -> List[str]:
        """Remove queries by name; returns the removed names.

        The removed queries' caches stay in the session pool, so re-adding a
        query later is free.  Their memoised optimizer answers do not: the
        what-if layer forgets every answer about a removed statement's read
        query (the query itself, or a DML statement's shadow query) unless a
        remaining statement reads the same SQL.  So the answers behind a
        delta re-tune live as long as the statement that asked for them; the
        shared tier's copies are untouched.
        """
        targets = [str(name) for name in names]
        # Validate the whole batch before touching the workload (atomic, as
        # for add_queries).
        for position, name in enumerate(targets):
            if name not in self._queries:
                raise AdvisorError(
                    f"no query named {name!r} in the session workload "
                    f"(current: {', '.join(repr(n) for n in self._queries) or 'empty'})"
                )
            if name in targets[:position]:
                raise AdvisorError(f"query {name!r} is named twice in one remove_queries call")
        removed = [self._queries.pop(name) for name in targets]
        kept = {query_fingerprint(read) for read in map(_read_query, self._queries.values())
                if read is not None}
        for read in map(_read_query, removed):
            if read is not None and query_fingerprint(read) not in kept:
                self._call_cache.forget(read)
        # Weights die with their statement: a future statement re-using the
        # name must not silently inherit the old frequency.
        weights = self._options.weight_map()
        if any(name in weights for name in targets):
            for name in targets:
                weights.pop(name, None)
            self._options = dataclasses.replace(
                self._options, statement_weights=weights or None
            )
        if targets:
            self._invalidate_model()
        return targets

    def set_budget(self, space_budget_bytes: int) -> None:
        """Change the space budget for subsequent recommends.

        The budget only affects selection, never the caches, so no rebuild
        happens -- the next :meth:`recommend` re-runs selection on the warm
        engines.
        """
        validate_tuning_limits(space_budget_bytes=space_budget_bytes)
        self._options = dataclasses.replace(
            self._options, space_budget_bytes=space_budget_bytes
        )

    def configure(self, **overrides: object) -> AdvisorOptions:
        """Replace option fields for subsequent requests; returns the options.

        ``dataclasses.replace`` re-runs :class:`AdvisorOptions.__post_init__`,
        so every override gets the same eager validation as construction.
        Caches are never touched -- options only steer how the next
        :meth:`recommend` selects and evaluates (the online daemon uses this
        to put a watched session on the ``per_query`` candidate policy).
        """
        self._options = dataclasses.replace(self._options, **overrides)
        return self._options

    def set_weights(self, weights: Dict[str, float], replace: bool = False) -> Dict[str, float]:
        """Merge per-statement execution-frequency weights into the session.

        Names must belong to the current workload (mirroring
        :meth:`remove_queries`); values must be >= 0.  ``replace=True``
        discards previously set weights first.  Weights only affect how
        selection sums statement costs, never the caches, so the next
        :meth:`recommend` re-tunes on warm state.  Returns the effective
        weight mapping.
        """
        for name in weights:
            if name not in self._queries:
                raise AdvisorError(
                    f"no statement named {name!r} in the session workload "
                    f"(current: {', '.join(repr(n) for n in self._queries) or 'empty'})"
                )
        merged = {} if replace else self._options.weight_map()
        merged.update({str(name): weight for name, weight in weights.items()})
        # dataclasses.replace re-runs __post_init__, which validates values.
        self._options = dataclasses.replace(
            self._options, statement_weights=merged or None
        )
        return self._options.weight_map()

    # -- requests ----------------------------------------------------------

    def recommend(self, request: Optional[RecommendRequest] = None) -> RecommendResponse:
        """Recommend an index set for the current workload.

        Cache construction is incremental: only queries without a matching
        cache in the session pool (or the persistent store) cost optimizer
        work; selection always re-runs so budget or option changes take
        effect.

        ``request.trace=True`` records the call as a span tree -- root
        ``session.recommend`` decomposing into ``recommend.build`` /
        ``recommend.evaluate`` / ``recommend.select`` children -- returned
        on ``response.trace`` and handed to any tracer sinks.  Untraced
        calls skip all of it (the span calls are shared no-ops).
        """
        request = request or RecommendRequest()
        tracer = get_tracer()
        with tracer.span("session.recommend", root=request.trace) as span, timed() as timer:
            response = self._recommend(request, tracer)
            self._call_cache.publish_shared()
            span.set(
                selector=response.result.selector,
                engine=response.result.engine,
                selected=len(response.result.selected_indexes),
            )
        self.statistics.recommend_calls += 1
        self.last_recommend_at = time.monotonic()
        RECOMMEND_SECONDS.labels(selector=response.result.selector).observe(timer.seconds)
        if request.trace:
            response.trace = span.to_dict() or None
        return response

    def _recommend(self, request: RecommendRequest, tracer) -> RecommendResponse:
        options = self._effective_options(request)
        workload = self._workload()

        with tracer.span("recommend.build") as build_span:
            compression_stats: Optional[Dict[str, object]] = None
            if options.compress:
                # Tune a template-folded view: one weighted representative per
                # template.  The session workload itself is untouched -- only
                # this call's cost model and selection see the compressed shape.
                compressed = compress_workload(workload, options.weight_map() or None)
                workload = compressed.statements
                options = dataclasses.replace(
                    options, statement_weights=compressed.weights or None
                )
                compression_stats = compressed.stats()
                self.last_compression = compression_stats

            cost_model, plan, report, profiles = self._cost_model(
                workload, options, request.candidates
            )
            build_span.set(queries=len(workload), candidates=len(plan.pool))

        selector = SELECTORS[options.selector](self._catalog, cost_model, options)
        with tracer.span("recommend.evaluate", phase="baseline"):
            per_query_before = cost_model.per_query_costs([])
            cost_before = cost_model.weighted_total(per_query_before)
            # Drop write-dominated candidates before selection (a no-op for
            # a read-only workload, which has no profiles).
            pool, pruned_for_writes = prune_write_dominated(
                plan.pool, workload, cost_model.weights, per_query_before, profiles
            )
        with tracer.span("recommend.select", selector=options.selector):
            steps = selector.select(pool)
        selection_stats: SelectionStatistics = selector.statistics
        selected = [step.chosen for step in steps]
        with tracer.span("recommend.evaluate", phase="selected"):
            per_query_after = cost_model.per_query_costs(selected)
            cost_after = cost_model.weighted_total(per_query_after)
        total_bytes = sum(self._catalog.index_size_bytes(index) for index in selected)

        result = AdvisorResult(
            selected_indexes=selected,
            steps=steps,
            candidate_count=len(plan.pool),
            workload_cost_before=cost_before,
            workload_cost_after=cost_after,
            per_query_cost_before=per_query_before,
            per_query_cost_after=per_query_after,
            total_index_bytes=total_bytes,
            preparation_optimizer_calls=report.optimizer_calls,
            preparation_seconds=report.wall_seconds,
            selector=options.selector,
            engine=getattr(cost_model, "engine_backend", "optimizer"),
            selection_seconds=selection_stats.seconds,
            selection_candidate_evaluations=selection_stats.candidate_evaluations,
            selection_query_evaluations=selection_stats.query_evaluations,
            candidates_pruned_for_writes=pruned_for_writes,
            optimality_gap=selection_stats.optimality_gap,
            nodes_explored=selection_stats.nodes_explored,
            incumbent_source=selection_stats.incumbent_source,
            compression=compression_stats,
        )
        self.last_result = result
        return RecommendResponse(
            result=result,
            candidate_policy=(
                "explicit" if request.candidates is not None else options.candidate_policy
            ),
            caches_built=report.count("built"),
            caches_from_store=report.count("from_store"),
            caches_deduplicated=report.count("deduplicated"),
            caches_reused=report.count("reused"),
            caches_shared=report.count("shared"),
            compression=compression_stats,
        )

    def evaluate(self, request: EvaluateRequest) -> EvaluateResponse:
        """Price the workload under ``request.indexes`` from the warm caches.

        The total is weighted by the session's statement weights; per-query
        costs stay per-execution.  DML statements answer from their
        maintenance-carrying caches, so *candidate* indexes are charged
        their write cost exactly as during selection.  An index outside the
        candidate set has no maintenance column (nor collected access
        costs) and contributes zero on both sides -- use :meth:`what_if`
        to price an ad-hoc index exactly.
        """
        workload = self._workload()
        cost_model = self._cost_model(workload, self._options, reuse=True)[0]
        indexes = list(request.indexes)
        per_query = cost_model.per_query_costs(indexes)
        self._call_cache.publish_shared()
        return EvaluateResponse(
            total_cost=cost_model.weighted_total(per_query),
            per_query_costs=per_query,
            total_index_bytes=sum(
                self._catalog.index_size_bytes(index) for index in indexes
            ),
        )

    def what_if(self, request: WhatIfRequest) -> WhatIfResponse:
        """Ask the optimizer (memoized) what the workload would cost.

        DML statements are priced as shadow read phase (a real optimizer
        probe) plus heap and index maintenance from the memoized
        maintenance model; the total applies the session's statement
        weights.  Every requested index is validated against the catalog
        first, so an unknown table or column fails the request (a
        ``CatalogError``, as :meth:`evaluate` raises) instead of being
        dropped from the configuration.
        """
        indexes = list(request.indexes)
        for index in indexes:
            self._catalog.validate_index(index)
        workload = self._workload()
        calls_before = self._optimizer.call_count
        weights = self._options.weight_map()
        per_query: Dict[str, float] = {}
        for query in workload:
            relevant = [index for index in indexes if index.table in query.tables]
            per_query[query.name] = self._call_cache.statement_cost(query, relevant)
        self._call_cache.publish_shared()
        return WhatIfResponse(
            total_cost=sum(
                weights.get(query.name, 1.0) * per_query[query.name]
                for query in workload
            ),
            per_query_costs=per_query,
            optimizer_calls=self._optimizer.call_count - calls_before,
        )

    def explain(self, request: ExplainRequest) -> ExplainResponse:
        """Optimize one query (by workload name or ad-hoc SQL) and report the plan.

        A DML statement explains its shadow read phase (how the affected
        rows are located); INSERT has no plan to explain and errors.
        """
        statement = self._resolve_query(request)
        query = statement
        if isinstance(statement, DmlStatement):
            query = statement.shadow_query()
            if query is None:
                raise AdvisorError(
                    f"statement {statement.name!r} ({statement.kind.value.upper()}) has "
                    "no read phase to explain"
                )
        result = self._optimizer.optimize(
            query, enable_nestloop=not request.disable_nestloop
        )
        return ExplainResponse(
            query_name=statement.name,
            sql=statement.to_sql(),
            plan=result.plan.explain(),
            cost=result.cost,
        )

    # -- cache construction (also the CLI compatibility surface) -----------

    def build_workload_caches(
        self,
        builder: str = "pinum",
        *,
        candidates: Optional[Sequence[Index]] = None,
        max_candidates: object = UNSET,
        use_call_cache: bool = True,
    ) -> WorkloadBuildResult:
        """Acquire every workload query's plan cache, reporting sources.

        This is the ``repro cache-workload`` path: the same lookup chain as
        :meth:`recommend` (:meth:`~repro.api.tier.PlanCachePool.acquire`:
        identical SQL earlier in the call, session pool, shared tier, store,
        then a fresh build) over
        the ``"workload"`` policy's candidate plan, so a following
        :meth:`recommend` with that policy reuses every cache.  The report
        has one row per statement whatever its source.
        """
        workload = self._workload()
        plan = pooled_candidate_plan(
            self._generator.for_workload(workload) if candidates is None else candidates,
            workload,
            self._options.max_candidates if max_candidates is UNSET else max_candidates,
        )
        return self._pool.acquire(
            workload, plan.per_query, builder, use_call_cache=use_call_cache
        )

    def build_query_cache(
        self,
        query: Query,
        builder: str = "pinum",
        *,
        candidates: Optional[Sequence[Index]] = None,
        use_call_cache: bool = False,
    ) -> InumCache:
        """Acquire one query's plan cache (the ``repro cache`` path).

        ``query`` need not be part of the session workload; the cache goes
        through the same lookup chain as everything else and lands in the
        session pool either way.  ``use_call_cache=False`` (the default)
        makes a fresh build report the paper's un-memoised optimizer-call
        counts.
        """
        if candidates is None:
            candidates = self._generator.for_query(query)
        return self._pool.acquire(
            [query],
            {query.name: list(candidates)},
            builder,
            use_call_cache=use_call_cache,
        ).caches[query.name]

    # -- internals ---------------------------------------------------------

    def _effective_options(self, request: RecommendRequest) -> AdvisorOptions:
        """Session options with the request's non-default fields applied."""
        overrides: Dict[str, object] = {}
        if request.space_budget_bytes is not None:
            overrides["space_budget_bytes"] = request.space_budget_bytes
        if request.cost_model is not None:
            overrides["cost_model"] = request.cost_model
        if request.selector is not None:
            overrides["selector"] = request.selector
        if request.engine is not None:
            overrides["engine"] = request.engine
        if request.candidate_policy is not None:
            overrides["candidate_policy"] = request.candidate_policy
        if request.max_candidates is not UNSET:
            overrides["max_candidates"] = request.max_candidates
        if request.min_relative_benefit is not None:
            overrides["min_relative_benefit"] = request.min_relative_benefit
        if request.ilp_gap is not None:
            overrides["ilp_gap"] = request.ilp_gap
        if request.ilp_time_limit is not UNSET:
            overrides["ilp_time_limit"] = request.ilp_time_limit
        if request.compress is not None:
            overrides["compress"] = request.compress
        if request.statement_weights is not None:
            # Same validation set_weights applies: a typo'd name must fail
            # loudly, not silently price the workload without the weight.
            for name in request.statement_weights:
                if name not in self._queries:
                    raise AdvisorError(
                        f"no statement named {name!r} in the session workload "
                        f"(current: {', '.join(repr(n) for n in self._queries) or 'empty'})"
                    )
            merged = self._options.weight_map()
            merged.update(request.statement_weights)
            overrides["statement_weights"] = merged or None
        if not overrides:
            return self._options
        # dataclasses.replace re-runs __post_init__, so request overrides get
        # the same eager name validation as session options.
        return dataclasses.replace(self._options, **overrides)

    def _workload(self) -> List[Statement]:
        """The current workload; every request that prices it needs one statement."""
        if not self._queries:
            raise AdvisorError("the workload must contain at least one query")
        return self.queries

    def _invalidate_model(self) -> None:
        self._model = None
        self._model_signature = None

    def _cost_model(
        self,
        workload: Sequence[Statement],
        options: AdvisorOptions,
        candidates: Optional[Sequence[Index]] = None,
        *,
        reuse: bool = False,
    ) -> Tuple[object, CandidatePlan, WorkloadBuildReport, Dict[str, MaintenanceProfile]]:
        """The one per-request pipeline, ending in a cost model.

        Candidate plan -> cache keys -> :meth:`PlanCachePool.acquire` ->
        maintenance profiles -> model.  Returns the model, the plan, the
        acquisition report (empty for a cost model that uses no plan caches)
        and each DML statement's maintenance profile over the *pool*.

        ``reuse=True`` (``evaluate``) hands back the last-built model when
        its full signature -- workload, cost model, engine, weights, pool and
        every per-query cache key -- matches what ``options`` would build
        right now; anything else (a previous request's overrides, explicit
        candidates, a mutated workload) would answer from caches that never
        collected the right access costs, so the model is rebuilt (warm: the
        cache pool still serves every unchanged query).

        A DML statement must charge maintenance for every pool candidate on
        its table -- any of them may be selected -- but baking that set into
        the cache identity would rebuild warm DML caches on every pool
        perturbation.  Profiles are cheap catalog arithmetic (memoized by
        the session's what-if layer), so they are computed here, once per
        request and outside the cache key; the profile digest is folded into
        the cache id the arena fingerprint is computed from instead, so an
        arena compiled for an older pool is never reused with stale
        maintenance columns.
        """
        if candidates is not None:
            plan = pooled_candidate_plan(candidates, workload, options.max_candidates)
        else:
            policy = CANDIDATE_POLICIES[options.candidate_policy]
            plan = policy(self._generator, workload, options.max_candidates)
        # The builder of this cost model's plan caches (None: it has none).
        builder = COST_MODELS[options.cost_model]
        # Computed once per request: the signature, the pool lookup and the
        # arena identity all read this one mapping.
        keys = cache_keys(workload, plan.per_query, builder or options.cost_model)
        signature = (
            tuple(keys),
            options.cost_model,
            options.engine,
            options.statement_weights,
            # The pool itself is part of the model's identity: DML
            # maintenance profiles are computed over it, so a model built
            # under a request's pool override must not answer for the
            # session's configured pool.
            index_set_fingerprint(plan.pool),
            tuple(keys.values()),
        )
        report = WorkloadBuildReport(builder=builder or options.cost_model)
        if reuse and signature == self._model_signature:
            return self._model, plan, report, {}

        profiles = build_profiles(
            self._catalog,
            [statement for statement in workload if statement.is_dml],
            plan.pool,
            whatif=self._call_cache,
        )
        if builder is None:
            self._model = OptimizerWorkloadCostModel(
                self._optimizer,
                workload,
                whatif=self._call_cache,
                weights=options.weight_map(),
            )
        else:
            result = self._pool.acquire(workload, plan.per_query, builder, keys=keys)
            report = result.report
            caches = result.caches
            cache_ids = {
                name: ":".join(str(part) for part in key) for name, key in keys.items()
            }
            for name, profile in profiles.items():
                # Pooled (possibly tier-shared) caches are never written: the
                # pool-specific profile goes on a detached copy (entries and
                # access costs stay shared).
                caches[name] = caches[name].detached_copy()
                caches[name].maintenance = profile
                cache_ids[name] += f"|maint:{profile.digest()}"
            self._model = CacheBackedWorkloadCostModel(
                workload,
                caches,
                builder,
                options.engine,
                preparation_optimizer_calls=report.optimizer_calls,
                preparation_seconds=report.wall_seconds,
                cache_ids=cache_ids,
                weights=options.weight_map(),
                arena_cache=self._arena_pool,
            )
        self._model_signature = signature
        return self._model, plan, report, profiles

    def _resolve_query(self, request: ExplainRequest) -> Query:
        if (request.query is None) == (request.sql is None):
            raise AdvisorError("explain needs exactly one of 'query' (a workload name) or 'sql'")
        if request.query is not None:
            query = self._queries.get(request.query)
            if query is None:
                raise AdvisorError(
                    f"no query named {request.query!r} in the session workload "
                    f"(current: {', '.join(repr(n) for n in self._queries) or 'empty'})"
                )
            return query
        from repro.query.parser import parse_statement

        return parse_statement(request.sql, name="adhoc")


def _read_query(statement: Statement) -> Optional[Query]:
    """The query the optimizer is asked about for ``statement``: the query
    itself, a DML statement's shadow query, or ``None`` (no read phase)."""
    if isinstance(statement, DmlStatement):
        return statement.shadow_query()
    return statement
