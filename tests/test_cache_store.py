"""Tests for the persistent, versioned cache store."""

import dataclasses
import json
import shutil

import pytest

from repro.advisor import CandidateGenerator
from repro.catalog import TableStatistics
from repro.inum import CacheStore, InumCostModel
from repro.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.cost_model import CostParameters
from repro.pinum import PinumCacheBuilder
from repro.util.fingerprint import catalog_fingerprint

from conftest import build_small_catalog


@pytest.fixture
def candidates(small_catalog, join_query):
    return CandidateGenerator(small_catalog).for_query(join_query)


@pytest.fixture
def built_cache(small_catalog, join_query, candidates):
    return PinumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)


class TestRoundTrip:
    def test_save_load_identical_cache(self, tmp_path, small_catalog, join_query,
                                       candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        path = store.save(join_query, built_cache, "pinum", candidates)
        assert path.is_file()
        loaded = store.load(join_query, "pinum", candidates)
        assert loaded is not None
        assert loaded.entry_count == built_cache.entry_count
        assert len(loaded.access_costs) == len(built_cache.access_costs)
        assert loaded.build_stats.optimizer_calls_total == (
            built_cache.build_stats.optimizer_calls_total
        )
        original, reloaded = InumCostModel(built_cache), InumCostModel(loaded)
        for index in candidates:
            assert reloaded.estimate_with_indexes([index]) == pytest.approx(
                original.estimate_with_indexes([index])
            )

    def test_loaded_cache_estimates_like_inum_model_too(self, tmp_path, small_catalog,
                                                        join_query, candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        store.save(join_query, built_cache, "pinum", candidates)
        loaded = store.load(join_query, "pinum", candidates)
        model = InumCostModel(loaded)
        assert model.estimate_with_indexes([]) > 0

    def test_same_sql_under_other_name_loads(self, tmp_path, small_catalog, join_query,
                                             candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        store.save(join_query, built_cache, "pinum", candidates)
        renamed = dataclasses.replace(join_query, name="another_name")
        loaded = store.load(renamed, "pinum", candidates)
        assert loaded is not None
        assert loaded.query.name == "another_name"

    def test_stored_count_and_clear(self, tmp_path, small_catalog, join_query,
                                    candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        assert store.stored_count() == 0
        store.save(join_query, built_cache, "pinum", candidates)
        assert store.stored_count() == 1
        assert store.clear() == 1
        assert store.load(join_query, "pinum", candidates) is None


class TestInvalidation:
    def test_missing_cache_is_a_miss(self, tmp_path, small_catalog, join_query):
        store = CacheStore(tmp_path, small_catalog)
        assert store.load(join_query) is None
        assert store.stale_rejections == 0

    def test_other_builder_not_reused(self, tmp_path, small_catalog, join_query,
                                      candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        store.save(join_query, built_cache, "pinum", candidates)
        assert store.load(join_query, "inum", candidates) is None

    def test_other_candidate_set_is_stale(self, tmp_path, small_catalog, join_query,
                                          candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        store.save(join_query, built_cache, "pinum", candidates)
        assert store.load(join_query, "pinum", candidates[:-1]) is None
        assert store.stale_rejections == 1

    def test_statistics_change_invalidates(self, tmp_path, small_catalog, join_query,
                                           candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        store.save(join_query, built_cache, "pinum", candidates)

        changed = build_small_catalog()
        sales = changed.table("sales")
        changed.set_statistics("sales", TableStatistics.uniform(sales, 750_000))
        assert catalog_fingerprint(changed) != catalog_fingerprint(small_catalog)

        stale_store = CacheStore(tmp_path, changed)
        assert stale_store.load(join_query, "pinum", candidates) is None
        # The original catalog's store still serves its cache.
        assert store.load(join_query, "pinum", candidates) is not None

    def test_corrupt_file_is_a_miss(self, tmp_path, small_catalog, join_query,
                                    candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        path = store.save(join_query, built_cache, "pinum", candidates)
        path.write_text("{ not json")
        assert store.load(join_query, "pinum", candidates) is None

    def test_future_store_version_rejected(self, tmp_path, small_catalog, join_query,
                                           candidates, built_cache):
        store = CacheStore(tmp_path, small_catalog)
        path = store.save(join_query, built_cache, "pinum", candidates)
        envelope = json.loads(path.read_text())
        envelope["store_format_version"] = 999
        path.write_text(json.dumps(envelope))
        assert store.load(join_query, "pinum", candidates) is None
        assert store.stale_rejections == 1

    def test_other_optimizer_is_stale(self, tmp_path, small_catalog, join_query,
                                      candidates, built_cache):
        """Another optimizer reads its own directory, and its envelope check
        still rejects a file copied there from the default optimizer's."""
        path = CacheStore(tmp_path, small_catalog).save(
            join_query, built_cache, "pinum", candidates
        )
        cheap_random_io = OptimizerOptions(
            cost_parameters=CostParameters(random_page_cost=1.1)
        )
        other = CacheStore(tmp_path, small_catalog, optimizer=cheap_random_io)
        assert other.directory != path.parent
        assert other.load(join_query, "pinum", candidates) is None
        assert other.stale_rejections == 0
        other.directory.mkdir()
        shutil.copy(path, other.path_for(join_query, "pinum"))
        assert other.load(join_query, "pinum", candidates) is None
        assert other.stale_rejections == 1
        assert CacheStore(tmp_path, small_catalog).load(join_query, "pinum", candidates)

    def test_envelope_without_optimizer_is_stale(self, tmp_path, small_catalog, join_query,
                                                 candidates, built_cache):
        """A file written before envelopes recorded the optimizer is a miss."""
        store = CacheStore(tmp_path, small_catalog)
        path = store.save(join_query, built_cache, "pinum", candidates)
        envelope = json.loads(path.read_text())
        del envelope["optimizer_fingerprint"]
        path.write_text(json.dumps(envelope))
        assert store.load(join_query, "pinum", candidates) is None
        assert store.stale_rejections == 1
