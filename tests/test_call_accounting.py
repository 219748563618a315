"""One optimizer call is counted once, and every call number reads that count.

``Optimizer.optimize`` bumps ``call_count`` and observes
``repro_whatif_seconds`` in one block.  A build phase's
``optimizer_calls_*`` is the change in ``call_count`` across the phase, and
its ``whatif_cache_hits`` are the phase's what-if probes minus those calls.
These tests check the contract over the built-in workloads, both builders,
with the session's memoizing what-if layer and without it, and check that
store files written when the build statistics carried more keys still load.
"""

from __future__ import annotations

import json

import pytest

from repro.advisor import AdvisorOptions, CandidateGenerator
from repro.api import TuningSession
from repro.inum import InumCache, InumCacheBuilder
from repro.inum.serialization import CacheStore
from repro.obs.instruments import WHATIF_SECONDS
from repro.optimizer import Optimizer, OptimizerHooks, WhatIfCallCache
from repro.optimizer.interesting_orders import combination_count
from repro.optimizer.whatif import WhatIfOptimizer
from repro.pinum import PinumCacheBuilder
from repro.pinum.access_costs import PinumAccessCostCollector
from repro.workloads import builtin_workload

#: INUM makes one call per IOC (two with its nested-loop variant), so its
#: cases keep to the queries with at most this many IOCs; PINUM builds all.
INUM_MAX_COMBINATIONS = 48


def _optimizer_calls_observed() -> int:
    """``repro_whatif_seconds_count``: optimizer calls in this process."""
    return dict(WHATIF_SECONDS.series())[()].count


class _Probes:
    """Counts what-if probes: calls of ``optimize_with_configuration``."""

    def __init__(self, monkeypatch, interface: type) -> None:
        self.count = 0
        original = interface.optimize_with_configuration

        def counting(whatif, *arguments, **keywords):
            self.count += 1
            return original(whatif, *arguments, **keywords)

        monkeypatch.setattr(interface, "optimize_with_configuration", counting)


def _inum_phases(optimizer, call_cache, query, candidates):
    builder = InumCacheBuilder(optimizer, call_cache=call_cache)
    return InumCache(query), (
        ("optimizer_calls_access_costs",
         lambda cache: builder.collect_access_costs(query, cache, candidates)),
        ("optimizer_calls_plans", lambda cache: builder.build_plan_cache(query, cache)),
    )


def _pinum_phases(optimizer, call_cache, query, candidates):
    builder = PinumCacheBuilder(optimizer, call_cache=call_cache)
    collector = PinumAccessCostCollector(optimizer, whatif=call_cache)
    return InumCache(query), (
        ("optimizer_calls_plans", lambda cache: builder.build_plan_cache(query, cache)),
        ("optimizer_calls_access_costs",
         lambda cache: collector.collect(query, cache, candidates)),
    )


PHASES = {"inum": _inum_phases, "pinum": _pinum_phases}


@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
@pytest.mark.parametrize("builder", ["pinum", "inum"])
@pytest.mark.parametrize("catalog_name, seed", [("star", 0), ("star", 7), ("tpch", 7)])
def test_each_phase_counts_the_change_in_call_count(
    monkeypatch, catalog_name, seed, builder, memo
):
    catalog, queries = builtin_workload(catalog_name, seed)
    if builder == "inum":
        queries = [q for q in queries if combination_count(q) <= INUM_MAX_COMBINATIONS]
    optimizer = Optimizer(catalog)
    call_cache = WhatIfCallCache(optimizer) if memo else None
    probes = _Probes(monkeypatch, WhatIfCallCache if memo else WhatIfOptimizer)
    generator = CandidateGenerator(catalog)
    # With the memo the workload is built twice: the second pass is answered
    # from memory, all hits and no calls.
    for rebuild in (False, True) if memo else (False,):
        for query in queries:
            candidates = generator.for_query(query)
            cache, phases = PHASES[builder](optimizer, call_cache, query, candidates)
            build_probes = 0
            for field, run in phases:
                calls_before, probes_before = optimizer.call_count, probes.count
                hits_before = cache.build_stats.whatif_cache_hits
                run(cache)
                calls = optimizer.call_count - calls_before
                build_probes += probes.count - probes_before
                assert getattr(cache.build_stats, field) == calls, (query.name, field)
                hits = cache.build_stats.whatif_cache_hits - hits_before
                assert hits == probes.count - probes_before - calls, (query.name, field)
            stats = cache.build_stats
            if rebuild:
                assert (stats.optimizer_calls_total, stats.whatif_cache_hits) == (
                    0, build_probes
                ), query.name
            elif builder == "pinum":
                assert (stats.optimizer_calls_total, stats.whatif_cache_hits) == (3, 0)
            if not memo:
                assert stats.whatif_cache_hits == 0
            cache.validate()


class TestOptimizerCallHistogram:
    """``repro_whatif_seconds`` moves by exactly one per optimizer call."""

    def test_a_plain_unmemoised_call(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        before = _optimizer_calls_observed()
        optimizer.optimize(join_query)
        assert _optimizer_calls_observed() - before == 1 == optimizer.call_count

    def test_an_access_paths_only_call(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        before = _optimizer_calls_observed()
        result = optimizer.optimize(
            join_query, hooks=OptimizerHooks(keep_all_access_paths=True, access_paths_only=True)
        )
        assert result.plan is None
        assert _optimizer_calls_observed() - before == 1 == optimizer.call_count

    def test_memo_hits_are_not_calls(self, small_catalog, join_query, sample_index):
        call_cache = WhatIfCallCache(Optimizer(small_catalog))
        before = _optimizer_calls_observed()
        for _ in range(3):
            call_cache.optimize_with_configuration(join_query, [sample_index])
        assert _optimizer_calls_observed() - before == 1 == call_cache.optimizer.call_count
        assert call_cache.statistics.hits == 2

    def test_a_pinum_build(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        before = _optimizer_calls_observed()
        cache = PinumCacheBuilder(optimizer).build_cache(join_query)
        assert _optimizer_calls_observed() - before == 3 == cache.build_stats.optimizer_calls_total


def test_a_store_file_with_the_older_build_stats_keys_still_loads(tmp_path):
    """Files whose build statistics also carried ``whatif_cache_misses``,
    ``entries_cached`` and ``unique_plans`` load as ``from_store``."""
    catalog, queries = builtin_workload("tpch", 7)
    options = AdvisorOptions(cache_dir=str(tmp_path))
    cold = TuningSession(catalog, queries, options=options)
    built = cold.build_workload_caches("pinum")
    assert built.report.queries_built == len(queries)
    store = CacheStore(tmp_path, catalog)
    for query in queries:
        path = store.path_for(query, "pinum")
        envelope = json.loads(path.read_text(encoding="utf-8"))
        stats = envelope["cache"]["build_stats"]
        assert not {"whatif_cache_misses", "entries_cached", "unique_plans"} & set(stats)
        stats.update(whatif_cache_misses=stats["optimizer_calls_plans"] + 1,
                     entries_cached=7, unique_plans=5)
        path.write_text(json.dumps(envelope), encoding="utf-8")

    warm = TuningSession(catalog, queries, options=options)
    result = warm.build_workload_caches("pinum")
    assert [outcome.source for outcome in result.report.outcomes] == ["from_store"] * 2
    assert result.report.optimizer_calls == 0
    assert warm.optimizer.call_count == 0
    for query in queries:
        loaded = result.cache_for(query)
        assert loaded.entry_count == built.cache_for(query).entry_count
        assert loaded.build_stats == built.cache_for(query).build_stats
