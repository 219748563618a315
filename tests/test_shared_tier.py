"""The shared read-only cache tier: N sessions, one copy of the warm state.

Covers the ISSUE 6 acceptance points: a second session over an
equal-but-distinct catalog performs **zero** cache builds (everything is
adopted from the tier), sessions never observe each other's mutable state
(workloads, weights, DML maintenance profiles), and the whole stack stays
well-behaved under real thread concurrency (the CI concurrency-stress job
runs this module under ``PYTHONFAULTHANDLER=1``).
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advisor.advisor import AdvisorOptions
from repro.api.requests import WhatIfRequest
from repro.api.session import TuningSession
from repro.api.tier import PublishedMap, SharedCacheTier, TierNamespace
from repro.catalog.index import Index
from repro.inum.cache import InumCache
from repro.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.cost_model import CostParameters
from repro.query.parser import parse_statement
from repro.workloads import builtin_workload


def _session(tier, catalog_name="tpch", seed=7, **options):
    catalog, workload = builtin_workload(catalog_name, seed)
    return TuningSession(
        catalog,
        workload,
        options=AdvisorOptions(**options) if options else None,
        shared_tier=tier,
    )


def _priced_session(parameters, **kwargs):
    """A session over star seed 7's first three statements whose optimizer
    prices plans with ``parameters``."""
    catalog, workload = builtin_workload("star", 7)
    optimizer = Optimizer(catalog, OptimizerOptions(cost_parameters=parameters))
    return TuningSession(catalog, workload[:3], optimizer=optimizer, **kwargs)


def _priced_recommend(random_page_cost, **kwargs):
    parameters = CostParameters(random_page_cost=random_page_cost)
    return _priced_session(parameters, **kwargs).recommend()


def _outcome(response):
    result = response.result
    return result.workload_cost_after, [index.key for index in result.selected_indexes]


class TestSharedBuilds:
    def test_second_session_builds_nothing(self):
        """Distinct sessions over equal catalogs share every cache build."""
        tier = SharedCacheTier()
        first = _session(tier)
        second = _session(tier)

        cold = first.recommend()
        assert cold.caches_built > 0
        assert cold.caches_shared == 0

        warm = second.recommend()
        assert warm.caches_built == 0, "second session should adopt, not build"
        assert warm.caches_from_store == 0
        assert warm.caches_shared == cold.caches_built

        # Identical inputs -> identical outputs, through the shared objects.
        assert [i.key for i in warm.result.selected_indexes] == [
            i.key for i in cold.result.selected_indexes
        ]
        assert warm.result.workload_cost_after == cold.result.workload_cost_after

    def test_tier_statistics_account_for_the_sharing(self):
        tier = SharedCacheTier()
        first = _session(tier)
        first.recommend()
        second = _session(tier)
        second.recommend()

        stats = tier.statistics_dict()
        assert stats["catalogs"] == 1
        assert stats["sessions_attached"] == 2
        assert stats["cache_promotions"] == first.statistics.caches_built
        assert stats["cache_hits"] == second.statistics.caches_shared
        # The workload arena was compiled and published once, adopted once.
        assert stats["arena_promotions"] == 1
        assert stats["arena_hits"] == 1
        assert stats["arenas_published"] == 1
        assert second._model.arena is first._model.arena

    def test_build_workload_caches_adopts_another_tenants_builds(self):
        """The cache-construction entry point walks the same chain as recommend."""
        tier = SharedCacheTier()
        first = _session(tier)
        first.recommend()
        second = _session(tier)
        result = second.build_workload_caches()
        assert [outcome.source for outcome in result.report.outcomes] == [
            "shared"
        ] * len(second.queries)
        assert second.statistics.caches_built == 0
        assert second.statistics.caches_shared == len(second.queries)
        assert second.optimizer.call_count == 0

    def test_different_catalogs_use_different_namespaces(self):
        tier = SharedCacheTier()
        tpch = _session(tier, "tpch")
        star = _session(tier, "star")
        tpch.recommend()
        star.recommend()
        assert tier.namespace_count == 2
        assert star.statistics.caches_shared == 0
        assert star.statistics.caches_built > 0

    def test_other_cost_parameters_never_see_anothers_answers(self, tmp_path):
        """Neither the tier nor the store hands a cache built under
        ``random_page_cost=4.0`` to a session that prices random I/O at 1.1."""
        recommend = _priced_recommend
        solo = recommend(1.1)
        on_disk = AdvisorOptions(cache_dir=str(tmp_path))
        tier = SharedCacheTier()
        for kwargs in ({"options": on_disk}, {"shared_tier": tier}):
            default = recommend(4.0, **kwargs)
            assert default.result.workload_cost_after != solo.result.workload_cost_after
            beside = recommend(1.1, **kwargs)
            assert beside.caches_built == 3
            assert beside.result.workload_cost_after == solo.result.workload_cost_after
        assert recommend(4.0, shared_tier=tier).caches_shared == 3
        assert tier.namespace_count == 2

    def test_optimizers_sharing_a_store_keep_their_own_files(self, tmp_path):
        """Two optimizers alternating on one ``cache_dir`` each find their
        own files again instead of overwriting each other's."""
        options = AdvisorOptions(cache_dir=str(tmp_path))
        runs = [_priced_recommend(cost, options=options) for cost in (4.0, 1.1, 4.0, 1.1)]
        assert [(run.caches_built, run.caches_from_store) for run in runs] == [
            (3, 0), (3, 0), (0, 3), (0, 3)
        ]
        session = _priced_session(CostParameters(), options=options, shared_tier=SharedCacheTier())
        assert session.store.directory.name == session.tier_namespace.fingerprint
        assert session.store.stored_count() == 3


@pytest.fixture(scope="module")
def default_tenant(tmp_path_factory):
    """A store directory and a tier, each filled by a default-optimizer recommend."""
    store = tmp_path_factory.mktemp("default-store")
    tier = SharedCacheTier()
    for kwargs in ({"options": AdvisorOptions(cache_dir=str(store))}, {"shared_tier": tier}):
        assert _priced_session(CostParameters(), **kwargs).recommend().caches_built == 3
    return store, tier


_COST_PARAMETERS = st.builds(
    CostParameters,
    seq_page_cost=st.floats(0.1, 4.0),
    random_page_cost=st.floats(0.5, 8.0),
    cpu_tuple_cost=st.floats(0.001, 0.05),
    cpu_index_tuple_cost=st.floats(0.001, 0.02),
    cpu_operator_cost=st.floats(0.0005, 0.01),
    work_mem_pages=st.integers(64, 4096),
)


@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(parameters=_COST_PARAMETERS)
def test_answers_are_a_function_of_the_optimizer(default_tenant, parameters):
    """Whatever the cost parameters, a session tunes the same solo, on a
    store the default optimizer filled, and beside a default tenant."""
    store, tier = default_tenant
    solo = _outcome(_priced_session(parameters).recommend())
    for kwargs in ({"options": AdvisorOptions(cache_dir=str(store))}, {"shared_tier": tier}):
        assert _outcome(_priced_session(parameters, **kwargs).recommend()) == solo


class TestSharedWhatIfAnswers:
    def test_what_if_answers_reach_the_next_tenant(self):
        """One tenant's what-if answers are published when its request ends,
        so the next tenant asks the optimizer nothing."""
        tier = SharedCacheTier()
        first, second = _session(tier, "star"), _session(tier, "star")
        asked = first.what_if(WhatIfRequest(indexes=[]))
        assert asked.optimizer_calls == len(first.queries) == 10
        answered = second.what_if(WhatIfRequest(indexes=[]))
        assert answered.optimizer_calls == 0
        assert answered.total_cost == asked.total_cost
        stats = tier.statistics_dict()
        assert (stats["whatif_shared_promotions"], stats["whatif_shared_hits"]) == (10, 10)

    def test_maintenance_answers_reach_the_next_tenant(self):
        """A DML statement's heap and index-maintenance costs travel through
        the same map as the plain answers."""
        tier = SharedCacheTier()
        request = WhatIfRequest(indexes=[Index("fact", ["fact_m3"])])
        responses = []
        for _ in range(2):
            session = _session(tier, "star")
            session.add_queries([
                parse_statement("UPDATE fact SET fact_m3 = 1 WHERE fact.fact_m4 < 100", name="u")
            ])
            responses.append(session.what_if(request))
        statistics = session.call_cache.statistics
        assert (statistics.maintenance_hits, statistics.maintenance_misses) == (2, 0)
        assert responses[1].optimizer_calls == 0
        assert responses[1].total_cost == responses[0].total_cost


class TestSessionIsolation:
    def test_weights_do_not_leak_between_sessions(self):
        """A tenant reweighting its workload must not move its neighbour."""
        tier = SharedCacheTier()
        first = _session(tier)
        second = _session(tier)
        baseline = first.recommend()

        name = second.queries[0].name
        second.set_weights({name: 25.0})
        second.recommend()

        again = first.recommend()
        assert again.result.workload_cost_after == baseline.result.workload_cost_after
        assert again.caches_built == 0

    def test_workload_mutations_do_not_leak(self):
        tier = SharedCacheTier()
        first = _session(tier)
        second = _session(tier)
        first.recommend()
        before = len(first.queries)

        second.add_queries([
            parse_statement(
                "SELECT orders.o_orderkey FROM orders "
                "WHERE orders.o_totalprice > 1000",
                name="tenant2_only",
            )
        ])
        second.recommend()

        assert len(first.queries) == before
        assert "tenant2_only" not in first.query_names

    def test_dml_maintenance_is_applied_on_a_detached_copy(self):
        """Tier-shared DML caches are never mutated by a session's profile.

        Both sessions tune the same mixed workload but with different DML
        weights, so their candidate pools (and maintenance profiles) can
        diverge; the shared cache object must keep whatever state it was
        published with.
        """
        tier = SharedCacheTier()
        dml_sql = (
            "INSERT INTO orders (o_orderkey, o_custkey, o_totalprice) "
            "VALUES (1, 2, 3.0)"
        )
        first = _session(tier)
        first.add_queries([parse_statement(dml_sql, name="feed")])
        cold = first.recommend()
        assert cold.caches_built > 0

        namespace = first.tier_namespace
        shared_maintenance = {
            key: cache.maintenance
            for key, cache in namespace.caches._snapshot.items()
        }

        second = _session(tier)
        second.add_queries([parse_statement(dml_sql, name="feed")])
        second.set_weights({"feed": 50.0})
        warm = second.recommend()
        assert warm.caches_built == 0
        assert warm.caches_shared == cold.caches_built

        # The published objects kept exactly the maintenance state they
        # were promoted with: the second tenant worked on detached copies.
        for key, cache in namespace.caches._snapshot.items():
            assert cache.maintenance is shared_maintenance[key]

        # And the first session still reproduces its own answer.
        repeat = first.recommend()
        assert repeat.result.workload_cost_after == cold.result.workload_cost_after


class TestDetachedCopy:
    def test_detached_copy_shares_entries_but_not_maintenance(self):
        query = parse_statement(
            "SELECT orders.o_orderkey FROM orders", name="q"
        )
        cache = InumCache(query)
        clone = cache.detached_copy()
        assert clone.entries is cache.entries
        assert clone.access_costs is cache.access_costs
        clone.maintenance = object()
        assert cache.maintenance is None


class TestTierInternals:
    def test_promotion_is_first_build_wins(self):
        namespace = TierNamespace("fp")
        query = parse_statement("SELECT orders.o_orderkey FROM orders", name="q")
        first, second = InumCache(query), InumCache(query)
        assert namespace.caches.promote({("k",): first}) == {("k",): first}
        assert namespace.caches.promote({("k",): second}) == {("k",): first}
        assert namespace.caches.lookup(("k",)) is first
        assert (namespace.caches.promotions, namespace.caches.hits) == (1, 1)

    def test_cache_bound_is_enforced(self):
        caches = PublishedMap("cache", 4)
        query = parse_statement("SELECT orders.o_orderkey FROM orders", name="q")
        for position in range(10):
            caches.promote({("k", position): InumCache(query)})
        assert len(caches) == 4
        assert caches.lookup(("k", 9)) is not None
        assert caches.lookup(("k", 0)) is None


class TestThreadedStress:
    def test_concurrent_sessions_share_and_agree(self):
        """Real threads, one tier: every session converges on one answer.

        This is the CI concurrency-stress entry point: racing sessions must
        neither crash, nor double-build more than once per cache (the
        first-build-wins window allows concurrent *initial* builds), nor
        disagree on the recommendation or a what-if total, nor count one
        what-if answer's promotion twice.
        """
        tier = SharedCacheTier()
        results: list = []
        errors: list = []
        barrier = threading.Barrier(4)

        def tenant(position: int) -> None:
            try:
                session = _session(tier)
                barrier.wait(timeout=30)
                response = session.recommend()
                total = session.what_if(WhatIfRequest(indexes=[])).total_cost
                if position % 2:
                    session.set_weights({session.queries[0].name: 3.0 + position})
                    session.recommend()
                results.append(
                    (response.result.workload_cost_after,
                     [i.key for i in response.result.selected_indexes],
                     total)
                )
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=tenant, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == 4
        assert len({(cost, tuple(picks), total) for cost, picks, total in results}) == 1

        stats = tier.statistics_dict()
        # First-build-wins: racing initial builds may each construct, but
        # the tier publishes one winner per key.
        namespace = tier.namespaces()[0]
        assert stats["caches_published"] == len(namespace.caches)
        assert stats["whatif_shared_promotions"] == len(namespace.whatif) > 0
        assert stats["sessions_attached"] == 4
