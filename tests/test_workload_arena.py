"""The workload arena: one tensor family answers the whole workload.

Property tests pin the arena's evaluation -- single index sets, whole
batches and CELF frontiers, read-only and weighted-DML -- to the scalar
INUM arithmetic within 1e-9 on randomized plan caches (the same cache
strategy :mod:`test_inum_compiled` drives a one-query arena with).  The
retention suite checks that evicted arenas die without a cycle collection,
and the tier suite covers the one-copy adoption path sessions use.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advisor import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.catalog.index import Index
from repro.inum.access_costs import AccessCostInfo
from repro.inum.arena import WorkloadArena, arena_fingerprint, compile_arena
from repro.inum.cache import CachedSlot, CacheEntry, InumCache
from repro.inum.compiled import numpy_available
from repro.inum.cost_estimation import InumCostModel
from repro.api.tier import LocalPool, PublishedMap, TierNamespace
from repro.optimizer import Optimizer
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.maintenance import MaintenanceProfile
from repro.util.errors import PlanningError

from test_inum_compiled import _StubQuery, cache_with_indexes

_settings = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

#: Both fused backends when numpy is installed, the pure-Python one otherwise.
_BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


# ---------------------------------------------------------------------------
# Randomized workloads: 1-3 plan caches fused into one arena
# ---------------------------------------------------------------------------


@st.composite
def workload_with_indexes(draw):
    """Randomized caches fused into one workload, plus a probe index set.

    Each statement optionally carries a :class:`MaintenanceProfile` (the
    weighted-DML case), and the workload optionally carries a per-statement
    weight vector, so the strategy exercises every evaluate() signature.
    """
    count = draw(st.integers(min_value=1, max_value=3))
    queries, caches = [], {}
    pool = {}
    for position in range(count):
        cache, subset = draw(cache_with_indexes())
        cache.query.name = f"q{position}"
        if draw(st.booleans()):  # a weighted-DML statement
            cache.maintenance = MaintenanceProfile(
                statement=cache.query.name,
                base_cost=draw(st.floats(min_value=0.0, max_value=1e4)),
                per_index={
                    index.key: draw(st.floats(min_value=0.1, max_value=1e4))
                    for index in subset
                    if draw(st.booleans())
                },
            )
        queries.append(cache.query)
        caches[cache.query.name] = cache
        for index in subset:
            pool[index.key] = index
    subset = list(pool.values())
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.0, max_value=50.0),
                min_size=count,
                max_size=count,
            ),
        )
    )
    return queries, caches, subset, weights


def _reference_vector(queries, caches, subset):
    """Scalar per-query costs; PlanningError bubbles.

    :class:`InumCostModel` already folds each cache's maintenance profile
    into the estimate, so this is read + maintenance -- the same quantity
    :meth:`WorkloadArena.per_query_vector` reports.
    """
    vector = []
    for query in queries:
        cost, _ = InumCostModel(caches[query.name]).estimate_with_indexes_detail(
            subset
        )
        vector.append(cost)
    return vector


class TestArenaMatchesScalarArithmetic:
    @_settings
    @given(data=workload_with_indexes())
    def test_evaluate_matches_the_scalar_models(self, data):
        """evaluate/evaluate_detail/query_cost reproduce the scalar sums."""
        queries, caches, subset, weights = data
        try:
            vector = _reference_vector(queries, caches, subset)
        except PlanningError:
            vector = None
        for backend in _BACKENDS:
            arena = compile_arena(queries, caches, backend=backend)
            if vector is None:
                with pytest.raises(PlanningError):
                    arena.evaluate(subset, weights)
                continue
            expected = (
                sum(vector)
                if weights is None
                else sum(w * c for w, c in zip(weights, vector))
            )
            assert arena.evaluate(subset, weights) == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )
            detail = arena.evaluate_detail(subset)
            assert list(detail) == [query.name for query in queries]
            for name, want in zip(detail, vector):
                assert detail[name] == pytest.approx(want, rel=1e-9, abs=1e-9)
                assert arena.query_cost(name, subset) == pytest.approx(
                    want, rel=1e-9, abs=1e-9
                )

    @_settings
    @given(data=workload_with_indexes())
    def test_batch_matches_per_set_evaluation(self, data):
        """evaluate_batch's masked-min batch equals one evaluate() per set."""
        queries, caches, subset, weights = data
        sets = [subset, subset[: len(subset) // 2], [], list(reversed(subset))]
        for backend in _BACKENDS:
            arena = compile_arena(queries, caches, backend=backend)
            try:
                expected = [arena.evaluate(one, weights) for one in sets]
            except PlanningError:
                with pytest.raises(PlanningError):
                    arena.evaluate_batch(sets, weights)
                continue
            got = arena.evaluate_batch(sets, weights)
            assert len(got) == len(expected)
            for have, want in zip(got, expected):
                assert have == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert arena.evaluate_batch([], weights) == []

    @_settings
    @given(data=workload_with_indexes())
    def test_frontier_matches_full_evaluation(self, data):
        """The rank-1 frontier equals evaluating winners + [candidate]."""
        queries, caches, subset, weights = data
        winners = subset[: len(subset) // 2]
        candidates = list(subset[len(subset) // 2 :]) + [None]
        sets = [
            list(winners) + ([candidate] if candidate is not None else [])
            for candidate in candidates
        ]
        for backend in _BACKENDS:
            arena = compile_arena(queries, caches, backend=backend)
            try:
                expected_rows = [arena.per_query_vector(one) for one in sets]
                expected = [arena.evaluate(one, weights) for one in sets]
            except PlanningError:
                with pytest.raises(PlanningError):
                    arena.frontier_detail(winners, candidates, weights)
                continue
            totals, rows = arena.frontier_detail(winners, candidates, weights)
            assert arena.evaluate_frontier(winners, candidates, weights) == totals
            assert len(totals) == len(rows) == len(candidates)
            for have, want in zip(totals, expected):
                assert have == pytest.approx(want, rel=1e-9, abs=1e-9)
            for have_row, want_row in zip(rows, expected_rows):
                for have, want in zip(have_row, want_row):
                    assert have == pytest.approx(want, rel=1e-9, abs=1e-9)

    @needs_numpy
    @_settings
    @given(data=workload_with_indexes())
    def test_backends_agree_with_each_other(self, data):
        """The numpy and pure-Python arenas are interchangeable."""
        queries, caches, subset, weights = data
        python_arena = compile_arena(queries, caches, backend="python")
        numpy_arena = compile_arena(queries, caches, backend="numpy")
        try:
            expected = python_arena.evaluate(subset, weights)
        except PlanningError:
            with pytest.raises(PlanningError):
                numpy_arena.evaluate(subset, weights)
            return
        assert numpy_arena.evaluate(subset, weights) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )
        assert numpy_arena.query_names == python_arena.query_names
        assert numpy_arena.column_count == python_arena.column_count
        assert numpy_arena.entry_count == python_arena.entry_count

    @_settings
    @given(data=workload_with_indexes())
    def test_bound_terms_are_sound(self, data):
        """No index set between fixed and everything gains a query more
        than its slack plus the caps of the columns it adds."""
        queries, caches, subset, _ = data
        half = len(subset) // 2
        answers = []
        for backend in _BACKENDS:
            arena = compile_arena(queries, caches, backend=backend)
            fixed = [arena.column_for(index) for index in subset[:half]]
            free = [arena.column_for(index) for index in subset[half:]]
            fixed = [column for column in fixed if column is not None]
            free = [column for column in free if column is not None]
            try:
                arena.evaluate(subset[:half])
            except PlanningError:
                with pytest.raises(PlanningError):
                    arena.bound_terms(fixed, free)
                continue
            answers.append(arena.bound_terms(fixed, free))
            for query in range(arena.query_count):
                unit = [float(position == query) for position in range(arena.query_count)]
                terms = arena.bound_terms(fixed, free, unit)
                for count in range(len(free) + 1):
                    added = free[:count]
                    read = arena.bound_terms(fixed + added, [], unit).read_fixed
                    benefit = terms.read_fixed - read
                    allowance = terms.slack + sum(terms.caps[:count])
                    assert benefit <= allowance + 1e-9 * max(1.0, abs(benefit))
                assert terms.read_everything == pytest.approx(
                    arena.bound_terms(fixed + free, [], unit).read_fixed, rel=1e-12
                )
        if len(answers) == 2:
            python_terms, numpy_terms = answers
            for have, want in zip(numpy_terms[:3], python_terms[:3]):
                assert have == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert numpy_terms.caps == pytest.approx(python_terms.caps, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Layout validation, identity and memoization
# ---------------------------------------------------------------------------


def _tiny_workload(count=2):
    """A deterministic workload: one seqscan + one index path per table."""
    queries, caches = [], {}
    tables = ["alpha", "beta", "gamma"]
    for position in range(count):
        query = _StubQuery(tables[: position + 1])
        query.name = f"q{position}"
        cache = InumCache(query)
        for table in query.tables:
            cache.access_costs.add(
                AccessCostInfo(
                    table=table,
                    index_key=None,
                    full_cost=90.0 + position,
                    probe_cost=None,
                    provided_order=None,
                )
            )
            index = Index(table, ["a1"])
            cache.access_costs.add(
                AccessCostInfo(
                    table=table,
                    index_key=index.key,
                    full_cost=40.0 + position,
                    probe_cost=4.0,
                    provided_order="a1",
                )
            )
        cache.add_entry(
            CacheEntry(
                ioc=InterestingOrderCombination({t: None for t in query.tables}),
                internal_cost=10.0 * (position + 1),
                slots=tuple(
                    CachedSlot(
                        table=table,
                        required_order=None,
                        multiplier=1.0,
                        parameterized=False,
                    )
                    for table in query.tables
                ),
                uses_nestloop=False,
            )
        )
        queries.append(query)
        caches[query.name] = cache
    return queries, caches


class TestArenaLayout:
    def test_unknown_backend_is_an_error(self):
        queries, caches = _tiny_workload()
        with pytest.raises(PlanningError):
            compile_arena(queries, caches, backend="fortran")

    def test_missing_cache_is_an_error(self):
        queries, _ = _tiny_workload()
        with pytest.raises(PlanningError):
            compile_arena(queries, {}, backend="python")

    def test_empty_plan_cache_is_an_error(self):
        query = _StubQuery(["alpha"])
        query.name = "empty"
        with pytest.raises(PlanningError):
            compile_arena([query], {"empty": InumCache(query)}, backend="python")

    def test_shared_access_methods_use_one_global_column(self):
        """Both queries' (alpha, a1) paths collapse onto one arena column."""
        queries, caches = _tiny_workload(count=2)
        arena = compile_arena(queries, caches, backend="python")
        index = Index("alpha", ["a1"])
        assert arena.query_count == 2
        # alpha heap + alpha a1 + beta heap + beta a1: shared, not per-query.
        assert arena.column_count == 4
        assert arena.column_for(index) is not None
        assert arena.column_for(Index("alpha", ["uncollected"])) is None

    def test_a_repeated_index_set_builds_its_mask_once(self):
        queries, caches = _tiny_workload()
        arena = compile_arena(queries, caches, backend="python")
        memo = arena._mask_memo
        built = []
        build = memo._build

        def counting_build(indexes):
            built.append(list(indexes))
            return build(indexes)

        memo._build = counting_build
        index = Index("alpha", ["a1"])
        first = arena.evaluate([index])
        # The same set again, as a distinct object: answered from the memo.
        assert arena.evaluate([Index("alpha", ["a1"])]) == first
        assert built == [[index]]
        arena.evaluate([])
        assert len(built) == 2

    def test_fingerprint_identity(self):
        cache_ids = {"q0": "cache-a", "q1": "cache-b"}
        fingerprint = arena_fingerprint(["q0", "q1"], cache_ids, "numpy")
        assert fingerprint == arena_fingerprint(["q0", "q1"], cache_ids, "numpy")
        assert fingerprint.startswith("arena:")
        # Vector order, backend and cache identity (which folds in the
        # maintenance digest) all change the arena.
        assert arena_fingerprint(["q1", "q0"], cache_ids, "numpy") != fingerprint
        assert arena_fingerprint(["q0", "q1"], cache_ids, "python") != fingerprint
        assert (
            arena_fingerprint(
                ["q0", "q1"], {"q0": "cache-a|maint:x", "q1": "cache-b"}, "numpy"
            )
            != fingerprint
        )


# ---------------------------------------------------------------------------
# Tier integration: one arena copy for every session
# ---------------------------------------------------------------------------


class TestTierArenaSharing:
    """Arenas and plan caches sit in the same two classes: a
    :class:`PublishedMap` per namespace, a :class:`LocalPool` per session."""

    def test_published_map_promotes_once_and_counts_hits(self):
        namespace = TierNamespace("fingerprint")
        first, second = object(), object()
        assert namespace.arenas.promote({"arena:abc": first}) == {"arena:abc": first}
        assert namespace.arenas.promote({"arena:abc": second}) == {"arena:abc": first}
        assert namespace.arenas.lookup("arena:abc") is first, "first promotion wins"
        assert namespace.arenas.lookup("arena:missing") is None
        assert len(namespace.arenas) == 1
        assert (namespace.arenas.promotions, namespace.arenas.hits) == (1, 1)
        assert namespace.caches.promotions == 0

    def test_published_map_drops_its_oldest_past_the_bound(self):
        arenas = PublishedMap("arena", 3)
        for number in range(10):
            arenas.promote({f"arena:{number}": object()})
        assert len(arenas) == 3
        assert arenas.lookup("arena:9") is not None
        assert arenas.lookup("arena:0") is None

    def test_pools_share_through_the_namespace(self):
        namespace = TierNamespace("fingerprint")
        mine = LocalPool(2, namespace.arenas)
        theirs = LocalPool(2, namespace.arenas)
        marker = object()
        mine.update({"arena:x": marker})
        assert theirs.get("arena:x") is marker, "adopted through the namespace"
        # A session cycling its own pool never evicts the shared copy.
        mine.update({"arena:y": object()})
        mine.update({"arena:z": object()})
        assert "arena:x" not in mine
        assert theirs.get("arena:x") is marker
        assert namespace.arenas.lookup("arena:x") is marker

    def test_racing_promotion_adopts_the_first_arena(self):
        namespace = TierNamespace("fingerprint")
        first, second = object(), object()
        LocalPool(2, namespace.arenas).update({"arena:x": first})
        late = LocalPool(2, namespace.arenas)
        assert late.update({"arena:x": second}) == {"arena:x": first}
        assert late.get("arena:x") is first

    def test_pool_evicts_least_recently_used(self):
        pool = LocalPool(2)
        base = object()
        pool.update({"base": base})
        pool.update({"delta-1": object()})
        assert pool.get("base") is base  # the pre-delta arena is re-requested
        pool.update({"delta-2": object()})
        assert pool.get("base") is base
        assert pool.get("delta-1") is None
        assert len(pool) == 2


# ---------------------------------------------------------------------------
# Cost-model integration: every engine name but "scalar" is the arena
# ---------------------------------------------------------------------------


class TestArenaEngineIntegration:
    def test_cost_model_arena_matches_the_scalar_oracle(
        self, small_catalog, join_query, simple_query
    ):
        queries = [join_query, simple_query]
        candidates = CandidateGenerator(small_catalog).for_workload(queries)
        model = CacheBackedWorkloadCostModel.build(
            Optimizer(small_catalog), queries, candidates, mode="pinum", engine="scalar"
        )
        assert model.arena is None and model.engine_backend == "scalar"
        probes = [candidates[:0], candidates[:1], candidates[:3], candidates]
        expected = [
            (model.per_query_costs(probe), model.workload_cost(probe))
            for probe in probes
        ]

        for engine in ("arena", "auto", "python"):
            model.select_engine(engine)
            assert isinstance(model.arena, WorkloadArena)
            assert model.engine_backend == model.arena.backend
            for probe, (per_query, total) in zip(probes, expected):
                arena_per_query = model.per_query_costs(probe)
                assert set(arena_per_query) == set(per_query)
                for name, want in per_query.items():
                    assert arena_per_query[name] == pytest.approx(
                        want, rel=1e-9, abs=1e-9
                    )
                assert model.workload_cost(probe) == pytest.approx(
                    total, rel=1e-9, abs=1e-9
                )
                for query in queries:
                    assert model.query_cost(query, probe) == pytest.approx(
                        per_query[query.name], rel=1e-9, abs=1e-9
                    )


# ---------------------------------------------------------------------------
# Retention: an evicted arena dies by reference count, and stays small
# ---------------------------------------------------------------------------


class TestArenaRetention:
    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_a_dropped_arena_is_freed_without_a_cycle_collection(self, backend):
        queries, caches = _tiny_workload()
        gc.disable()
        try:
            arena = compile_arena(queries, caches, backend=backend)
            arena.evaluate([Index("alpha", ["a1"])])
            alive = weakref.ref(arena)
            del arena
            assert alive() is None, "the arena sits in a reference cycle"
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_dense_cost_rows_are_released_after_compilation(self, backend):
        queries, caches = _tiny_workload()
        arena = compile_arena(queries, caches, backend=backend)
        assert arena._layout.full_costs == [] and arena._layout.probe_costs == []
        if backend == "numpy":
            assert arena._layout.internal_costs == []
            assert arena._layout.full_weights == []
