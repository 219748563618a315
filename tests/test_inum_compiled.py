"""A one-query arena (``compile_cache``) against the scalar oracle.

``compile_cache(cache, backend)`` is the single-cache entry point of the
evaluation kernel.  The suite pins it to :class:`InumCostModel` -- the
reference oracle -- on a real cache and, as a hypothesis property, on
randomized caches (maintenance profiles included, infeasible index sets
raising on both sides) for every available backend.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.index import Index
from repro.inum import InumCacheBuilder, InumCostModel, compile_cache, numpy_available
from repro.inum import compiled as compiled_module
from repro.inum.access_costs import AccessCostInfo
from repro.inum.arena import WorkloadArena
from repro.inum.cache import CachedSlot, CacheEntry, InumCache
from repro.inum.compiled import IndexSetMemo
from repro.optimizer import Optimizer
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.maintenance import MaintenanceProfile
from repro.pinum import PinumCacheBuilder
from repro.util.errors import PlanningError

_settings = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)


@pytest.fixture
def candidates():
    return [
        Index("sales", ["s_customer"]),
        Index("sales", ["s_product"]),
        Index("sales", ["s_customer", "s_amount", "s_product"]),
        Index("customers", ["c_id"]),
        Index("customers", ["c_region", "c_id"]),
        Index("products", ["p_id"]),
        Index("products", ["p_category", "p_id", "p_price"]),
    ]


@pytest.fixture
def cache(small_catalog, join_query, candidates):
    return InumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)


def _backends():
    backends = ["python"]
    if numpy_available():
        backends.append("numpy")
    return backends


class TestBackendSelection:
    def test_auto_prefers_numpy_when_available(self, cache):
        arena = compile_cache(cache, backend="auto")
        expected = "numpy" if numpy_available() else "python"
        assert arena.backend == expected

    def test_the_result_is_a_one_query_arena(self, cache):
        arena = compile_cache(cache, backend="python")
        assert isinstance(arena, WorkloadArena)
        assert arena.backend == "python"
        assert arena.query_names == [cache.query.name]

    def test_unknown_backend_rejected(self, cache):
        with pytest.raises(PlanningError):
            compile_cache(cache, backend="fortran")

    def test_auto_degrades_without_numpy(self, cache, monkeypatch):
        monkeypatch.setattr(compiled_module, "_np", None)
        assert not compiled_module.numpy_available()
        assert compile_cache(cache, backend="auto").backend == "python"

    def test_numpy_backend_requires_numpy(self, cache, monkeypatch):
        monkeypatch.setattr(compiled_module, "_np", None)
        with pytest.raises(PlanningError):
            compile_cache(cache, backend="numpy")


class TestAgainstScalarModel:
    @pytest.mark.parametrize("backend", _backends())
    def test_matches_scalar_on_subsets(self, cache, candidates, backend):
        scalar = InumCostModel(cache)
        arena = compile_cache(cache, backend=backend)
        subsets = [
            [],
            candidates[:1],
            candidates[:3],
            candidates,
            [candidates[4], candidates[0], candidates[6]],
        ]
        for subset in subsets:
            expected = scalar.estimate_with_indexes(subset)
            assert arena.evaluate(subset) == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert arena.query_cost(cache.query.name, subset) == arena.evaluate(subset)

    @pytest.mark.parametrize("backend", _backends())
    def test_matches_pinum_cache_too(self, small_catalog, join_query, candidates, backend):
        cache = PinumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)
        scalar = InumCostModel(cache)
        arena = compile_cache(cache, backend=backend)
        for subset in ([], candidates[:2], candidates):
            assert arena.evaluate(subset) == pytest.approx(
                scalar.estimate_with_indexes(subset), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("backend", _backends())
    def test_unknown_indexes_ignored(self, cache, backend):
        arena = compile_cache(cache, backend=backend)
        stranger = Index("sales", ["s_quantity", "s_amount"])
        assert arena.evaluate([stranger]) == arena.evaluate([])

    @pytest.mark.parametrize("backend", _backends())
    def test_batch_matches_single_evaluations(self, cache, candidates, backend):
        arena = compile_cache(cache, backend=backend)
        sets = [[], candidates[:1], candidates[:4], candidates]
        batch = arena.evaluate_batch(sets)
        assert batch == pytest.approx([arena.evaluate(s) for s in sets], rel=1e-12)
        assert arena.evaluate_batch([]) == []


# ---------------------------------------------------------------------------
# Randomized plan caches (also fused into workloads by test_workload_arena)
# ---------------------------------------------------------------------------


class _StubQuery:
    """The minimal query surface an :class:`InumCache` needs (name + tables)."""

    def __init__(self, tables):
        self.name = "synthetic"
        self.tables = list(tables)


_cache_tables = ["alpha", "beta", "gamma"]
_cache_orders = [None, "k1", "k2"]
_cost = st.floats(min_value=0.1, max_value=1e6, allow_nan=False, allow_infinity=False)
_maybe_cost = st.one_of(st.none(), _cost)


@st.composite
def cache_with_indexes(draw):
    """A randomized plan cache plus the candidate indexes its costs cover."""
    tables = draw(st.lists(st.sampled_from(_cache_tables), min_size=1, max_size=3, unique=True))
    cache = InumCache(_StubQuery(tables))
    indexes = []
    for table in tables:
        # A stray provided_order on a heap record (possible in hand-built or
        # deserialized caches) must not make it satisfy ordered slots.
        cache.access_costs.add(
            AccessCostInfo(
                table=table,
                index_key=None,
                full_cost=draw(_cost),
                probe_cost=draw(_maybe_cost),
                provided_order=draw(st.sampled_from(_cache_orders)),
            )
        )
        for number in range(draw(st.integers(min_value=0, max_value=3))):
            index = Index(table, [f"col{number}"])
            cache.access_costs.add(
                AccessCostInfo(
                    table=table,
                    index_key=index.key,
                    full_cost=draw(_cost),
                    probe_cost=draw(_maybe_cost),
                    provided_order=draw(st.sampled_from(_cache_orders)),
                )
            )
            indexes.append(index)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        slots = []
        ioc_orders = {}
        for table in tables:
            ioc_orders[table] = draw(st.sampled_from(_cache_orders))
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                parameterized = draw(st.booleans())
                slots.append(
                    CachedSlot(
                        table=table,
                        required_order=draw(st.sampled_from(_cache_orders)),
                        multiplier=(
                            draw(st.floats(min_value=0.5, max_value=100.0))
                            if parameterized
                            else 1.0
                        ),
                        parameterized=parameterized,
                    )
                )
        cache.add_entry(
            CacheEntry(
                ioc=InterestingOrderCombination(ioc_orders),
                internal_cost=draw(_cost),
                slots=tuple(slots),
                uses_nestloop=draw(st.booleans()),
            )
        )
    subset = draw(
        st.lists(st.sampled_from(indexes), unique_by=lambda index: index.key, max_size=6)
        if indexes
        else st.just([])
    )
    if draw(st.booleans()):  # an index the cache never collected costs for
        subset = subset + [Index(tables[0], ["uncollected"])]
    return cache, subset


@st.composite
def cache_with_maintenance(draw):
    """:func:`cache_with_indexes`, sometimes as a DML statement's cache."""
    cache, subset = draw(cache_with_indexes())
    if draw(st.booleans()):
        cache.maintenance = MaintenanceProfile(
            statement=cache.query.name,
            base_cost=draw(st.floats(min_value=0.0, max_value=1e5)),
            per_index={
                index.key: draw(_cost) for index in subset if draw(st.booleans())
            },
        )
    return cache, subset


class TestOneQueryArenaProperty:
    @_settings
    @given(data=cache_with_maintenance())
    def test_backends_match_the_scalar_oracle(self, data):
        """Every backend reproduces the oracle's cost, or its PlanningError."""
        cache, subset = data
        try:
            expected = InumCostModel(cache).estimate_with_indexes(subset)
        except PlanningError:
            expected = None
        for backend in _backends():
            arena = compile_cache(cache, backend=backend)
            if expected is None:
                with pytest.raises(PlanningError):
                    arena.evaluate(subset)
                with pytest.raises(PlanningError):
                    arena.evaluate_batch([subset])
                continue
            assert arena.evaluate(subset) == pytest.approx(expected, rel=1e-9, abs=1e-9)
            batch = arena.evaluate_batch([subset, subset])
            assert batch[0] == batch[1]
            assert batch[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)
            if cache.maintenance is not None:
                assert arena.maintenance_vector(subset)[0] == pytest.approx(
                    cache.maintenance.cost_for(subset), rel=1e-12, abs=1e-12
                )

    @_settings
    @given(data=cache_with_maintenance())
    def test_pinum_model_agrees_too(self, data):
        """PINUM's model is the same arithmetic over the same cache."""
        cache, subset = data
        try:
            expected = InumCostModel(cache).estimate_with_indexes(subset)
        except PlanningError:
            return
        for backend in _backends():
            assert compile_cache(cache, backend=backend).evaluate(subset) == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )


class TestIndexSetMemo:
    def test_builds_once_per_signature(self):
        calls = []

        def build(indexes):
            calls.append(list(indexes))
            return len(indexes)

        memo = IndexSetMemo(build)
        a, b = Index("sales", ["s_customer"]), Index("sales", ["s_product"])
        assert memo.get([a, b]) == 2
        # Same set in a different order (and as distinct objects) hits.
        assert memo.get([Index("sales", ["s_product"]), Index("sales", ["s_customer"])]) == 2
        assert len(calls) == 1
        assert memo.get([a]) == 1
        assert len(calls) == 2

    def test_overflow_clears_instead_of_growing(self):
        memo = IndexSetMemo(lambda indexes: len(indexes), max_entries=2)
        for table in ("sales", "customers", "products"):
            memo.get([Index(table, ["column"])])
        assert len(memo) <= 2
