"""Long-lived tuning sessions: the service-oriented face of the advisor.

The paper's economics are "build the plan caches once, answer many what-if
and tuning questions with arithmetic" -- but the one-shot
:class:`~repro.advisor.advisor.IndexAdvisor` re-assembled the world on every
``recommend()`` call.  A :class:`TuningSession` owns the expensive state for
its whole lifetime:

* the catalog and one :class:`~repro.optimizer.optimizer.Optimizer`,
* a memoizing :class:`~repro.optimizer.whatif.WhatIfCallCache` shared by
  every cache build and what-if probe the session performs,
* a pool of per-query plan caches keyed by (query fingerprint, builder,
  candidate-set fingerprint) -- plus the workload arenas compiled from
  them -- reused across requests, and
* an optional persistent :class:`~repro.inum.serialization.CacheStore` so
  the pool survives the process.

Requests are typed messages (:mod:`repro.api.requests`): ``recommend``
re-tunes the current workload, ``evaluate`` prices an index set from the
warm caches, ``what_if`` asks the real optimizer, ``explain`` plans one
query.  The workload is mutable -- :meth:`add_queries`,
:meth:`remove_queries`, :meth:`set_budget` -- and re-tuning after a mutation
is *incremental*: only queries whose (query, builder, candidate-set) key is
new get caches built; everything else is answered from the session pool or
the persistent store, and selection re-runs on the already-compiled arena.

Two candidate policies (pluggable through
:data:`~repro.api.registry.CANDIDATE_POLICIES`) control the delta behaviour:

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
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.advisor.advisor import AdvisorOptions, AdvisorResult, validate_tuning_limits
from repro.advisor.benefit import CostModelRequest
from repro.advisor.candidates import CandidateGenerator, prune_write_dominated
from repro.advisor.greedy import SelectionStatistics
from repro.api.registry import CACHE_BUILDERS, CANDIDATE_POLICIES, COST_MODELS, SELECTORS
from repro.api.tier import ArenaPool, SharedCacheTier, TierNamespace
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
from repro.inum.dml import build_statement_cache
from repro.inum.serialization import CacheStore
from repro.inum.workload_builder import (
    WorkloadBuilderOptions,
    WorkloadBuildResult,
    WorkloadCacheBuilder,
    rename_cache,
)
from repro.obs.instruments import (
    RECOMMEND_SECONDS,
    SESSION_CACHES,
    SESSION_RECOMMENDS,
    SESSION_RETUNES,
)
from repro.obs.trace import get_tracer
from repro.optimizer.maintenance import build_profiles, profile_for
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

#: Identity of one pooled cache: (query fingerprint, builder, candidate-set
#: fingerprint).  Everything that can make a cache unusable is in the key, so
#: pool lookups never return stale caches.
CacheKey = Tuple[str, str, Optional[str]]


def _call_selector_factory(factory, catalog, cost_model, options: AdvisorOptions):
    """Invoke a selector factory, passing ``options`` when it accepts them.

    The registry's factory contract is positional ``(catalog, cost_model,
    space_budget_bytes, min_relative_benefit)``; factories that declare an
    ``options`` keyword (or ``**kwargs``) additionally receive the effective
    :class:`AdvisorOptions`, which is how the ILP selector learns its
    ``ilp_gap``/``ilp_time_limit`` without breaking third-party factories
    registered against the original signature.
    """
    try:
        parameters = inspect.signature(factory).parameters
        accepts_options = "options" in parameters or any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        accepts_options = False
    if accepts_options:
        return factory(
            catalog,
            cost_model,
            options.space_budget_bytes,
            options.min_relative_benefit,
            options=options,
        )
    return factory(
        catalog,
        cost_model,
        options.space_budget_bytes,
        options.min_relative_benefit,
    )


# -- candidate policies ------------------------------------------------------------


@dataclass
class CandidatePlan:
    """What one recommend call selects over and what each cache must cover."""

    #: The candidate set the greedy search runs over, in generation order.
    pool: List[Index]
    #: Per query (by name), the candidates its plan cache collects access
    #: costs for -- the cache's fingerprint identity.
    per_query: Dict[str, List[Index]]


def workload_candidate_policy(
    generator: CandidateGenerator,
    queries: Sequence[Query],
    max_candidates: Optional[int],
) -> CandidatePlan:
    """The one-shot advisor's policy: one workload-wide candidate pool.

    Each query's cache covers the pool members touching its tables -- the
    same filtering :class:`~repro.inum.workload_builder.WorkloadCacheBuilder`
    applies, so store keys are shared with ``repro cache-workload``.
    """
    pool = generator.for_workload(queries)
    if max_candidates is not None:
        pool = pool[:max_candidates]
    per_query = {
        query.name: [index for index in pool if index.table in query.tables]
        for query in queries
    }
    return CandidatePlan(pool=pool, per_query=per_query)


def per_query_candidate_policy(
    generator: CandidateGenerator,
    queries: Sequence[Query],
    max_candidates: Optional[int],
) -> CandidatePlan:
    """The delta-friendly policy: each query's cache covers its own candidates.

    A query's candidate set depends only on the query itself, so workload
    mutations leave every other query's cache key untouched and re-tuning
    builds exactly the delta.  The selection pool is the deduplicated union
    in workload order (truncation applies to the pool only, never to the
    per-query sets, so cache keys stay stable under ``max_candidates``).

    DML statements participate like everything else: their cache identity
    is their *shadow* query's own candidates, so workload mutations never
    churn warm DML caches.  Their maintenance profile -- which must cover
    every pool candidate on their table, not just their own -- is cheap
    catalog arithmetic and is recomputed per recommend outside the cache
    key (see ``TuningSession._apply_maintenance``).
    """
    per_query = {query.name: generator.for_query(query) for query in queries}
    pool: List[Index] = []
    seen = set()
    for query in queries:
        for index in per_query[query.name]:
            if index.key not in seen:
                seen.add(index.key)
                pool.append(index)
    if max_candidates is not None:
        pool = pool[:max_candidates]
    return CandidatePlan(pool=pool, per_query=per_query)


def explicit_candidate_plan(
    candidates: Sequence[Index],
    queries: Sequence[Query],
    max_candidates: Optional[int],
) -> CandidatePlan:
    """Plan for a caller-supplied candidate list (bypasses generation)."""
    pool = list(candidates)
    if max_candidates is not None:
        pool = pool[:max_candidates]
    per_query = {
        query.name: [index for index in pool if index.table in query.tables]
        for query in queries
    }
    return CandidatePlan(pool=pool, per_query=per_query)


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
    #: Online re-tunes the transition gate accepted / rejected against this
    #: session (:meth:`TuningSession.note_retune`); 0/0 unless watched.
    retunes_accepted: int = 0
    retunes_rejected: int = 0

    def record_caches(self, source: str, count: int = 1) -> None:
        """Count cache acquisitions: the field and the registry in one step.

        ``source`` is one of ``built`` / ``from_store`` / ``deduplicated`` /
        ``reused`` / ``shared`` -- the same vocabulary as the fields and the
        ``repro_session_caches_total`` label, so the per-session dataclass
        and the process-wide family can never disagree.
        """
        if count:
            field_name = f"caches_{source}"
            setattr(self, field_name, getattr(self, field_name) + count)
            SESSION_CACHES.labels(source=source).inc(count)

    def snapshot(self) -> "SessionStatistics":
        """A copy (for before/after deltas in tests and benchmarks)."""
        return dataclasses.replace(self)


# -- the session -------------------------------------------------------------------


class TuningSession:
    """A long-lived index-tuning service over one catalog.

    ``options`` carries the session defaults (budget, cost model, selector,
    engine, candidate policy, jobs, cache_dir); individual
    :class:`~repro.api.requests.RecommendRequest` fields override them per
    call.  ``catalog_factory`` enables parallel cache builds exactly as for
    the one-shot advisor.
    """

    #: Soft cap on pooled plan caches.  When an insert pushes the pool past
    #: this, entries not referenced by the current request are evicted
    #: (oldest first), so a long-lived serve process cannot grow without
    #: bound.
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
        catalog_factory: Optional[Callable[[], Catalog]] = None,
        generator: Optional[CandidateGenerator] = None,
        max_pooled_caches: int = DEFAULT_MAX_POOLED_CACHES,
        shared_tier: Optional[SharedCacheTier] = None,
    ) -> None:
        self._catalog = catalog
        self._options = options or AdvisorOptions()
        self._optimizer = optimizer or Optimizer(catalog)
        self._catalog_factory = catalog_factory
        self._generator = generator or CandidateGenerator(catalog)
        #: The process-wide shared read-only tier (None for a solo session).
        #: The session itself stays single-threaded; the tier is what makes
        #: N sessions share builds without sharing mutable state.
        self._shared_tier = shared_tier
        self._tier_ns = shared_tier.namespace_for(catalog) if shared_tier is not None else None
        if self._options.cache_dir is None:
            self._store = None
        elif shared_tier is not None:
            self._store = shared_tier.store_for(self._options.cache_dir, catalog)
        else:
            self._store = CacheStore(self._options.cache_dir, catalog)
        self._call_cache = WhatIfCallCache(
            self._optimizer,
            shared=self._tier_ns.whatif if self._tier_ns is not None else None,
        )
        self._whatif_cost_memo: Dict[tuple, float] = {}
        self._queries: Dict[str, Statement] = {}
        self._max_pooled_caches = max(1, max_pooled_caches)
        self._cache_pool: Dict[CacheKey, InumCache] = {}
        #: Compiled workload arenas, keyed by arena fingerprint.  Tier-backed
        #: sessions adopt arenas other tenants compiled (the namespace is
        #: keyed by catalog fingerprint).
        self._arena_pool = ArenaPool(self.MAX_POOLED_ARENAS, self._tier_ns)
        self._model = None
        self._model_signature: Optional[tuple] = None
        self.statistics = SessionStatistics()
        #: The most recent recommend outcome (for the serve ``stats`` op's
        #: selector telemetry -- selector, optimality gap, solver nodes).
        self.last_result: Optional[AdvisorResult] = None
        #: Monotonic observability timestamps (``server_stats`` surfaces
        #: them): when the session was created, when it last recommended,
        #: and when the online daemon last re-tuned it.
        self.created_at: float = time.monotonic()
        self.last_recommend_at: Optional[float] = None
        self.last_retune_at: Optional[float] = None
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
        return self._store

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
        return self._tier_ns

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
        return len(self._cache_pool)

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
            caches_warm=len(self._cache_pool),
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
        self.last_compression = compressed.stats()
        merged = self._options.weight_map()
        for cluster in compressed.clusters:
            name = cluster.representative.name
            existing = self._queries.get(name)
            if existing is None:
                self._queries[name] = cluster.representative
                merged[name] = cluster.weight
                continue
            if template_fingerprint(existing) != cluster.fingerprint:
                raise AdvisorError(
                    f"a statement named {name!r} is already in the session "
                    "workload with a different template"
                )
            merged[name] = merged.get(name, 1.0) + cluster.weight
        if compressed.clusters:
            self._options = dataclasses.replace(
                self._options, statement_weights=merged or None
            )
            self._invalidate_model()
        return [cluster.representative.name for cluster in compressed.clusters]

    def remove_queries(self, names: Sequence[str]) -> List[str]:
        """Remove queries by name; returns the removed names.

        The removed queries' caches stay in the session pool, so re-adding a
        query later is free.
        """
        targets = [str(name) for name in names]
        # Validate the whole batch before touching the workload (atomic, as
        # for add_queries).
        for name in targets:
            if name not in self._queries:
                raise AdvisorError(
                    f"no query named {name!r} in the session workload "
                    f"(current: {', '.join(repr(n) for n in self._queries) or 'empty'})"
                )
        for name in targets:
            del self._queries[name]
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

    def note_retune(self, accepted: bool) -> None:
        """Record one online re-tune against this session (daemon callback)."""
        if accepted:
            self.statistics.retunes_accepted += 1
        else:
            self.statistics.retunes_rejected += 1
        SESSION_RETUNES.labels(outcome="accepted" if accepted else "rejected").inc()
        self.last_retune_at = time.monotonic()

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
            span.set(
                selector=response.result.selector,
                engine=response.result.engine,
                selected=len(response.result.selected_indexes),
            )
        self.statistics.recommend_calls += 1
        self.last_recommend_at = time.monotonic()
        SESSION_RECOMMENDS.inc()
        RECOMMEND_SECONDS.labels(selector=response.result.selector).observe(timer.seconds)
        if request.trace:
            response.trace = span.to_dict() or None
        return response

    def _recommend(self, request: RecommendRequest, tracer) -> RecommendResponse:
        options = self._effective_options(request)
        workload = self.queries
        if not workload:
            raise AdvisorError("the workload must contain at least one query")

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

            if request.candidates is not None:
                plan = explicit_candidate_plan(
                    request.candidates, workload, options.max_candidates
                )
            else:
                policy = CANDIDATE_POLICIES.get(options.candidate_policy)
                plan = policy(self._generator, workload, options.max_candidates)

            before = self.statistics.snapshot()
            cost_model, preparation_calls, preparation_seconds = self._build_cost_model(
                workload, plan, options
            )
            build_span.set(queries=len(workload), candidates=len(plan.pool))

        selector_factory = SELECTORS.get(options.selector)
        selector = _call_selector_factory(
            selector_factory,
            self._catalog,
            cost_model,
            options,
        )
        with tracer.span("recommend.evaluate", phase="baseline"):
            per_query_before = cost_model.per_query_costs([])
            cost_before = cost_model.weighted_total(per_query_before)
            pool, pruned_for_writes = self._prune_candidates(
                workload, plan.pool, cost_model, per_query_before
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
            preparation_optimizer_calls=preparation_calls,
            preparation_seconds=preparation_seconds,
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
        after = self.statistics
        return RecommendResponse(
            result=result,
            candidate_policy=(
                "explicit" if request.candidates is not None else options.candidate_policy
            ),
            caches_built=after.caches_built - before.caches_built,
            caches_from_store=after.caches_from_store - before.caches_from_store,
            caches_deduplicated=after.caches_deduplicated - before.caches_deduplicated,
            caches_reused=after.caches_reused - before.caches_reused,
            caches_shared=after.caches_shared - before.caches_shared,
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
        workload = self.queries
        if not workload:
            raise AdvisorError("the workload must contain at least one query")
        cost_model = self._current_cost_model(workload)
        indexes = list(request.indexes)
        per_query = cost_model.per_query_costs(indexes)
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
        weights.
        """
        workload = self.queries
        if not workload:
            raise AdvisorError("the workload must contain at least one query")
        calls_before = self._optimizer.call_count
        weights = self._options.weight_map()
        indexes = list(request.indexes)
        per_query: Dict[str, float] = {}
        for query in workload:
            relevant = [index for index in indexes if index.table in query.tables]
            per_query[query.name] = self._call_cache.statement_cost(
                query, relevant, exclusive=True
            )
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
        jobs: Optional[int] = None,
        candidates: Optional[Sequence[Index]] = None,
        max_candidates: object = UNSET,
        use_call_cache: bool = True,
    ) -> WorkloadBuildResult:
        """Build (or load) every workload query's plan cache, reporting sources.

        This is the ``repro cache-workload`` path: the whole workload goes
        through one :class:`WorkloadCacheBuilder` pass (store consulted,
        identical SQL deduplicated, ``jobs`` fanning out) and the results
        are registered in the session pool so a following :meth:`recommend`
        with the ``"workload"`` policy reuses them without rebuilding.
        """
        workload = self.queries
        if not workload:
            raise AdvisorError("the workload must contain at least one query")
        CACHE_BUILDERS.validate(builder)
        cap = self._options.max_candidates if max_candidates is UNSET else max_candidates
        if candidates is None:
            plan = workload_candidate_policy(self._generator, workload, cap)
        else:
            plan = explicit_candidate_plan(candidates, workload, cap)
        per_query = plan.per_query
        workload_builder = WorkloadCacheBuilder(
            self._catalog,
            WorkloadBuilderOptions(
                builder=builder,
                jobs=jobs if jobs is not None else self._options.jobs,
                use_call_cache=use_call_cache,
            ),
            catalog_factory=self._catalog_factory,
            store=self._store,
            optimizer=self._optimizer,
            call_cache=self._call_cache if use_call_cache else None,
        )
        result = workload_builder.build(workload, per_query_candidates=per_query)
        active = set()
        promoted: Dict[CacheKey, InumCache] = {}
        for query in workload:
            key = self._cache_key(query, builder, per_query[query.name])
            self._cache_pool[key] = result.caches[query.name]
            promoted[key] = result.caches[query.name]
            active.add(key)
        self._prune_cache_pool(active)
        if self._tier_ns is not None:
            self._tier_ns.promote_caches(promoted)
            self._call_cache.publish_shared()
        report = result.report
        self.statistics.record_caches("built", report.queries_built)
        self.statistics.record_caches("from_store", report.queries_from_store)
        self.statistics.record_caches("deduplicated", report.queries_deduplicated)
        return result

    def build_query_cache(
        self,
        query: Query,
        builder: str = "pinum",
        *,
        candidates: Optional[Sequence[Index]] = None,
        use_call_cache: bool = False,
    ) -> InumCache:
        """Build one query's plan cache (the ``repro cache`` path).

        ``query`` need not be part of the session workload; the cache is
        registered in the session pool either way.  A pool hit returns the
        warm cache without optimizer work.
        """
        CACHE_BUILDERS.validate(builder)
        if candidates is None:
            candidates = self._generator.for_query(query)
        candidate_list = list(candidates)
        key = self._cache_key(query, builder, candidate_list)
        cached = self._cache_pool.get(key)
        if cached is not None:
            self.statistics.record_caches("reused")
            return self._attach(cached, query)
        if self._tier_ns is not None:
            shared = self._tier_ns.lookup_cache(key)
            if shared is not None:
                self._cache_pool[key] = shared
                self.statistics.record_caches("shared")
                return self._attach(shared, query)
        builder_class = CACHE_BUILDERS.get(builder)
        instance = builder_class(
            self._optimizer,
            None,
            call_cache=self._call_cache if use_call_cache else None,
        )
        if isinstance(query, DmlStatement):
            cache = build_statement_cache(
                query,
                candidate_list,
                self._catalog,
                instance.build_cache,
                whatif=self._call_cache if use_call_cache else None,
            )
        else:
            cache = instance.build_cache(query, candidate_list)
        self._cache_pool[key] = cache
        self._prune_cache_pool({key})
        if self._store is not None:
            self._store.save(query, cache, builder, candidate_list)
        if self._tier_ns is not None:
            self._tier_ns.promote_caches({key: cache})
            self._call_cache.publish_shared()
        self.statistics.record_caches("built")
        return cache

    def clear_caches(self) -> int:
        """Drop every warm cache and compiled arena; returns the cache count."""
        dropped = len(self._cache_pool)
        self._cache_pool.clear()
        self._arena_pool.clear()
        self._invalidate_model()
        return dropped

    # -- internals ---------------------------------------------------------

    def _prune_candidates(
        self,
        workload: Sequence[Query],
        pool: List[Index],
        cost_model,
        baseline_costs: Dict[str, float],
    ) -> Tuple[List[Index], int]:
        """Drop write-dominated candidates before selection (no-op read-only)."""
        dml = [statement for statement in workload if statement.is_dml]
        if not dml:
            return pool, 0
        profiles = build_profiles(self._catalog, dml, pool, whatif=self._call_cache)
        return prune_write_dominated(
            pool, workload, cost_model.weights, baseline_costs, profiles
        )

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

    @staticmethod
    def _cache_key(
        query: Query, builder: str, candidates: Optional[Sequence[Index]]
    ) -> CacheKey:
        return (
            query_fingerprint(query),
            builder,
            index_set_fingerprint(list(candidates) if candidates is not None else None),
        )

    @staticmethod
    def _attach(cache: InumCache, query: Query) -> InumCache:
        """The pooled cache re-attached to ``query``'s name when they differ."""
        if cache.query.name == query.name:
            return cache
        return rename_cache(cache, query)

    def _invalidate_model(self) -> None:
        self._model = None
        self._model_signature = None

    def _prune_cache_pool(self, active_keys: set) -> None:
        """Bound the cache pool, never evicting ``active_keys``."""
        if len(self._cache_pool) <= self._max_pooled_caches:
            return
        for key in list(self._cache_pool):
            if len(self._cache_pool) <= self._max_pooled_caches:
                break
            if key not in active_keys:
                del self._cache_pool[key]

    def _ensure_caches(
        self,
        workload: Sequence[Query],
        plan: CandidatePlan,
        options: AdvisorOptions,
        builder: str,
    ) -> Tuple[Dict[str, InumCache], Dict[str, str], int, float]:
        """Warm the session pool for ``workload``; returns (caches, ids, calls, secs).

        Only queries whose cache key is missing from the pool are routed
        through the :class:`WorkloadCacheBuilder` (which itself consults the
        persistent store before building).  ``ids`` maps query names to
        stable cache identities for the arena pool.
        """
        keys: Dict[str, CacheKey] = {
            query.name: self._cache_key(query, builder, plan.per_query[query.name])
            for query in workload
        }
        missing: List[Query] = []
        for query in workload:
            if keys[query.name] in self._cache_pool:
                self.statistics.record_caches("reused")
                continue
            shared = (
                self._tier_ns.lookup_cache(keys[query.name])
                if self._tier_ns is not None
                else None
            )
            if shared is not None:
                # Another session already paid this build: adopt the shared
                # object (read-only; DML maintenance is applied on a
                # detached copy, see _apply_maintenance).
                self._cache_pool[keys[query.name]] = shared
                self.statistics.record_caches("shared")
                continue
            missing.append(query)

        preparation_calls = 0
        preparation_seconds = 0.0
        if missing:
            workload_builder = WorkloadCacheBuilder(
                self._catalog,
                WorkloadBuilderOptions(builder=builder, jobs=options.jobs),
                catalog_factory=self._catalog_factory,
                store=self._store,
                optimizer=self._optimizer,
                call_cache=self._call_cache,
            )
            result = workload_builder.build(
                missing,
                per_query_candidates={
                    query.name: plan.per_query[query.name] for query in missing
                },
            )
            for query in missing:
                self._cache_pool[keys[query.name]] = result.caches[query.name]
            report = result.report
            preparation_calls = report.optimizer_calls
            preparation_seconds = report.wall_seconds
            self.statistics.record_caches("built", report.queries_built)
            self.statistics.record_caches("from_store", report.queries_from_store)
            self.statistics.record_caches("deduplicated", report.queries_deduplicated)
            if self._tier_ns is not None:
                self._tier_ns.promote_caches(
                    {keys[query.name]: result.caches[query.name] for query in missing}
                )
                self._call_cache.publish_shared()

        self._prune_cache_pool(set(keys.values()))
        caches = {
            query.name: self._attach(self._cache_pool[keys[query.name]], query)
            for query in workload
        }
        cache_ids = {name: ":".join(str(part) for part in key) for name, key in keys.items()}
        return caches, cache_ids, preparation_calls, preparation_seconds

    def _apply_maintenance(
        self,
        workload: Sequence[Query],
        plan: CandidatePlan,
        caches: Dict[str, InumCache],
        cache_ids: Dict[str, str],
    ) -> None:
        """Refresh each DML cache's maintenance profile over the *pool*.

        A DML statement must charge maintenance for every pool candidate on
        its table -- any of them may be selected -- but baking that set
        into the cache identity would rebuild warm DML caches on every pool
        perturbation.  Profiles are cheap catalog arithmetic (memoized by
        the session's what-if layer), so they are recomputed here, outside
        the cache key; the profile digest is folded into the cache id the
        arena fingerprint is computed from instead, so an arena compiled for
        an older pool is never reused with stale maintenance columns.
        """
        for statement in workload:
            if not statement.is_dml:
                continue
            profile = profile_for(
                statement, plan.pool, self._catalog, self._call_cache
            )
            if self._tier_ns is not None:
                # Never write a pool-specific profile onto a tier-shared
                # object: detach first (entries/access costs stay shared).
                caches[statement.name] = caches[statement.name].detached_copy()
            caches[statement.name].maintenance = profile
            cache_ids[statement.name] += f"|maint:{profile.digest()}"

    def _build_cost_model(
        self, workload: Sequence[Query], plan: CandidatePlan, options: AdvisorOptions
    ):
        """Resolve and build the cost model, warming caches when it needs them."""
        factory = COST_MODELS.get(options.cost_model)
        if getattr(factory, "uses_plan_caches", False):
            builder = getattr(factory, "cache_builder", options.cost_model)
            caches, cache_ids, calls, seconds = self._ensure_caches(
                workload, plan, options, builder
            )
            self._apply_maintenance(workload, plan, caches, cache_ids)
            request = CostModelRequest(
                optimizer=self._optimizer,
                queries=list(workload),
                candidates=plan.pool,
                engine=options.engine,
                caches=caches,
                preparation_optimizer_calls=calls,
                preparation_seconds=seconds,
                cache_ids=cache_ids,
                weights=options.weight_map(),
                arena_cache=self._arena_pool,
            )
        else:
            calls = 0
            seconds = 0.0
            request = CostModelRequest(
                optimizer=self._optimizer,
                queries=list(workload),
                candidates=plan.pool,
                engine=options.engine,
                call_cache=self._call_cache,
                cost_memo=self._whatif_cost_memo,
                weights=options.weight_map(),
            )
        model = factory(request)
        self._model = model
        self._model_signature = self._signature(workload, plan, options)
        return model, calls, seconds

    def _signature(
        self, workload: Sequence[Query], plan: CandidatePlan, options: AdvisorOptions
    ) -> tuple:
        return (
            tuple(query.name for query in workload),
            options.cost_model,
            options.engine,
            options.statement_weights,
            # The pool itself is part of the model's identity: DML
            # maintenance profiles are computed over it, so a model built
            # under a request's pool override must not answer for the
            # session's configured pool.
            index_set_fingerprint(plan.pool),
            tuple(
                self._cache_key(query, options.cost_model, plan.per_query[query.name])
                for query in workload
                if query.name in plan.per_query
            ),
        )

    def _current_cost_model(self, workload: Sequence[Query]):
        """A cost model reflecting the session's *configured* view.

        The last-built model is reused only when its full signature --
        workload, cost model, engine and every per-query cache key -- matches
        what the session options would build right now; anything else (a
        previous request's overrides, explicit candidates, a mutated
        workload) would answer from caches that never collected the right
        access costs, so the model is rebuilt (warm: the cache pool still
        serves every unchanged query).
        """
        options = self._options
        policy = CANDIDATE_POLICIES.get(options.candidate_policy)
        plan = policy(self._generator, workload, options.max_candidates)
        if self._model is not None and self._model_signature is not None:
            if self._model_signature == self._signature(workload, plan, options):
                return self._model
        model, _, _ = self._build_cost_model(workload, plan, options)
        return model

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
