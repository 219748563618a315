"""Tests for the memoizing what-if layer and its builder accounting."""

import pytest

from repro.advisor import CandidateGenerator
from repro.inum import InumCacheBuilder, InumCostModel
from repro.optimizer import Optimizer, OptimizerHooks, WhatIfCallCache
from repro.api.tier import PublishedMap
from repro.optimizer.whatif import WhatIfOptimizer
from repro.pinum import PinumCacheBuilder


class TestWhatIfCallCache:
    def test_identical_probe_hits(self, small_catalog, join_query, sample_index):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        first = cache.optimize_with_configuration(join_query, [sample_index])
        second = cache.optimize_with_configuration(join_query, [sample_index])
        assert cache.statistics.hits == 1
        assert second is first
        assert cache.optimizer.call_count == 1

    def test_configuration_order_is_irrelevant(self, small_catalog, join_query):
        from repro.catalog.index import Index

        a = Index(table="sales", columns=["s_customer"])
        b = Index(table="customers", columns=["c_id"])
        cache = WhatIfCallCache(Optimizer(small_catalog))
        cache.optimize_with_configuration(join_query, [a, b])
        cache.optimize_with_configuration(join_query, [b, a])
        assert cache.statistics.hits == 1

    def test_nestloop_flag_separates_entries(self, small_catalog, join_query, sample_index):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        cache.optimize_with_configuration(join_query, [sample_index], enable_nestloop=False)
        cache.optimize_with_configuration(join_query, [sample_index], enable_nestloop=True)
        assert cache.optimizer.call_count == 2
        assert cache.statistics.hits == 0

    def test_plain_request_served_from_access_path_result(
        self, small_catalog, join_query, sample_index
    ):
        optimizer = Optimizer(small_catalog)
        cache = WhatIfCallCache(optimizer)
        hooked = cache.optimize_with_configuration(
            join_query, [sample_index], enable_nestloop=False,
            hooks=OptimizerHooks(keep_all_access_paths=True),
        )
        plain = cache.optimize_with_configuration(
            join_query, [sample_index], enable_nestloop=False
        )
        assert cache.statistics.hits == 1
        assert plain is hooked
        # The served plan must match what a direct, uncached call returns.
        direct = WhatIfOptimizer(Optimizer(small_catalog)).optimize_with_configuration(
            join_query, [sample_index], enable_nestloop=False
        )
        assert plain.cost == pytest.approx(direct.cost)

    def test_hooked_request_not_served_from_plain_result(
        self, small_catalog, join_query, sample_index
    ):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        cache.optimize_with_configuration(join_query, [sample_index])
        cache.optimize_with_configuration(
            join_query, [sample_index], hooks=OptimizerHooks(keep_all_access_paths=True)
        )
        assert cache.optimizer.call_count == 2

    def test_plain_request_not_served_from_ioc_plan_result(
        self, small_catalog, join_query, sample_index
    ):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        cache.optimize_with_configuration(
            join_query, [sample_index],
            hooks=OptimizerHooks(keep_all_access_paths=True, keep_all_ioc_plans=True),
        )
        cache.optimize_with_configuration(join_query, [sample_index])
        assert cache.optimizer.call_count == 2

    def test_plain_request_not_served_from_access_paths_only_result(
        self, small_catalog, join_query, sample_index
    ):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        stopped = cache.optimize_with_configuration(
            join_query, [sample_index],
            hooks=OptimizerHooks(keep_all_access_paths=True, access_paths_only=True),
        )
        assert stopped.plan is None and stopped.access_paths
        plain = cache.optimize_with_configuration(join_query, [sample_index])
        assert cache.optimizer.call_count == 2
        assert plain.plan is not None
        # The full export call and the stopped one are different answers too.
        full = cache.optimize_with_configuration(
            join_query, [sample_index], hooks=OptimizerHooks(keep_all_access_paths=True)
        )
        assert cache.optimizer.call_count == 3
        assert full.plan is not None

    def test_only_plain_answers_reach_the_shared_store(
        self, small_catalog, join_query, sample_index
    ):
        shared = PublishedMap("whatif", 16)
        first = WhatIfCallCache(Optimizer(small_catalog), shared=shared)
        hooks = OptimizerHooks(keep_all_access_paths=True)
        first.optimize_with_configuration(join_query, [sample_index], hooks=hooks)
        first.optimize_with_configuration(join_query, [])
        assert len(shared) == 0, "answers wait for the batch"
        first.publish_shared()
        assert (len(shared), shared.promotions) == (1, 1)
        first.publish_shared()
        assert shared.promotions == 1, "a published batch is not promoted again"
        second = WhatIfCallCache(Optimizer(small_catalog), shared=shared)
        second.optimize_with_configuration(join_query, [])
        second.optimize_with_configuration(join_query, [sample_index], hooks=hooks)
        assert (second.statistics.hits, second.optimizer.call_count) == (1, 1)

    def test_forget_drops_one_querys_answers(
        self, small_catalog, join_query, simple_query, sample_index
    ):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        cache.optimize_with_configuration(join_query, [sample_index])
        cache.optimize_with_configuration(join_query, [])
        cache.optimize_with_configuration(simple_query, [sample_index])
        cache.forget(join_query)
        assert len(cache) == 1
        cache.optimize_with_configuration(simple_query, [sample_index])
        assert cache.statistics.hits == 1

    def test_clear_keeps_statistics(self, small_catalog, join_query, sample_index):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        cache.optimize_with_configuration(join_query, [sample_index])
        assert len(cache) == 1
        cache.optimize_with_configuration(join_query, [sample_index])
        cache.clear()
        assert len(cache) == 0
        assert cache.statistics.hits == 1
        cache.optimize_with_configuration(join_query, [sample_index])
        assert (cache.statistics.hits, cache.optimizer.call_count) == (1, 2)


class TestInumBuilderAccounting:
    def test_memoized_build_matches_plain_build(self, small_catalog, join_query):
        candidates = CandidateGenerator(small_catalog).for_query(join_query)
        plain = InumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)

        optimizer = Optimizer(small_catalog)
        call_cache = WhatIfCallCache(optimizer)
        memoized = InumCacheBuilder(optimizer, call_cache=call_cache).build_cache(
            join_query, candidates
        )

        assert memoized.entry_count == plain.entry_count
        assert len(memoized.access_costs) == len(plain.access_costs)
        plain_model, memo_model = InumCostModel(plain), InumCostModel(memoized)
        for index in candidates:
            assert memo_model.estimate_with_indexes([index]) == pytest.approx(
                plain_model.estimate_with_indexes([index])
            )

    def test_memoized_build_records_hits(self, small_catalog, join_query):
        candidates = CandidateGenerator(small_catalog).for_query(join_query)
        optimizer = Optimizer(small_catalog)
        cache = InumCacheBuilder(
            optimizer, call_cache=WhatIfCallCache(optimizer)
        ).build_cache(join_query, candidates)
        stats = cache.build_stats
        # Access costs are collected first, so the plan phase's single-order
        # probes (and the empty-configuration probe) are memoized hits.
        assert 0 < stats.whatif_cache_hits
        assert 0 < stats.optimizer_calls_total
        # Reported optimizer calls must match the optimizer's own counter.
        assert stats.optimizer_calls_total == optimizer.call_count

    def test_plain_build_records_no_cache_traffic(self, small_catalog, join_query):
        cache = InumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query)
        assert cache.build_stats.whatif_cache_hits == 0


class TestPinumBuilderAccounting:
    def test_rebuild_is_answered_from_memory(self, small_catalog, join_query):
        candidates = CandidateGenerator(small_catalog).for_query(join_query)
        optimizer = Optimizer(small_catalog)
        call_cache = WhatIfCallCache(optimizer)
        first = PinumCacheBuilder(optimizer, call_cache=call_cache).build_cache(
            join_query, candidates
        )
        calls_after_first = optimizer.call_count
        second = PinumCacheBuilder(optimizer, call_cache=call_cache).build_cache(
            join_query, candidates
        )
        assert optimizer.call_count == calls_after_first
        assert second.build_stats.optimizer_calls_total == 0
        assert second.build_stats.whatif_cache_hits == first.build_stats.optimizer_calls_total
        assert second.entry_count == first.entry_count
        assert len(second.access_costs) == len(first.access_costs)
