"""Tests for the Access Path Collector and the keep-all-paths hook."""

import pytest

from repro.catalog.index import Index
from repro.optimizer.access_paths import AccessPathCollector
from repro.optimizer.cost_model import CostModel
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.selectivity import SelectivityEstimator


@pytest.fixture
def collector(small_catalog):
    return AccessPathCollector(small_catalog, CostModel(), SelectivityEstimator(small_catalog))


class TestBasicCollection:
    def test_every_table_gets_a_seq_scan(self, collector, join_query):
        paths, _ = collector.collect(join_query)
        for table in join_query.tables:
            assert any(p.method == "seqscan" for p in paths[table])

    def test_no_indexes_means_only_seq_scans(self, collector, join_query):
        paths, _ = collector.collect(join_query)
        assert all(p.method == "seqscan" for table_paths in paths.values() for p in table_paths)

    def test_index_produces_index_path(self, small_catalog, collector, join_query, sample_index):
        small_catalog.add_index(sample_index)
        paths, _ = collector.collect(join_query)
        index_paths = [p for p in paths["sales"] if p.method == "indexscan"]
        assert index_paths
        assert index_paths[0].provided_order == "s_customer"

    def test_output_rows_independent_of_access_method(self, small_catalog, collector, join_query):
        small_catalog.add_index(Index("products", ["p_category"]))
        paths, _ = collector.collect(join_query)
        rows = {round(p.rows, 3) for p in paths["products"]}
        assert len(rows) == 1

    def test_join_column_index_gets_probe_cost(self, small_catalog, collector, join_query, sample_index):
        small_catalog.add_index(sample_index)
        paths, _ = collector.collect(join_query)
        index_path = next(p for p in paths["sales"] if p.method == "indexscan")
        assert index_path.supports_probe
        assert index_path.rescan_cost < index_path.cost

    def test_non_join_column_index_has_no_probe_cost(self, small_catalog, collector, join_query):
        small_catalog.add_index(Index("sales", ["s_amount"]))
        paths, _ = collector.collect(join_query)
        index_path = next(p for p in paths["sales"] if p.method == "indexscan")
        assert not index_path.supports_probe

    def test_covering_index_detected(self, small_catalog, collector, simple_query):
        covering = Index("sales", ["s_customer", "s_amount", "s_quantity"])
        small_catalog.add_index(covering)
        paths, _ = collector.collect(simple_query)
        index_path = next(p for p in paths["sales"] if p.method == "indexscan")
        assert index_path.covering


class TestFiltering:
    def test_keeps_cheapest_per_order(self, small_catalog, collector, join_query):
        cheap = Index("sales", ["s_customer"], name="narrow")
        wide = Index("sales", ["s_customer", "s_amount", "s_product", "s_quantity"], name="wide")
        small_catalog.add_index(cheap)
        small_catalog.add_index(wide)
        paths, _ = collector.collect(join_query)
        non_covering = [p for p in paths["sales"]
                        if p.method == "indexscan" and p.provided_order == "s_customer"
                        and not p.covering]
        # Only the cheapest non-covering path per order survives the filter.
        assert len(non_covering) <= 1

    def test_hook_exports_all_paths(self, small_catalog, collector, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"], name="narrow"))
        small_catalog.add_index(Index("sales", ["s_customer", "s_amount"], name="wider"))
        small_catalog.add_index(Index("sales", ["s_amount"], name="other"))
        hooks = OptimizerHooks(keep_all_access_paths=True)
        _, exported = collector.collect(join_query, small_catalog.all_indexes(), hooks)
        sales_paths = [p for p in exported if p.table == "sales"]
        index_names = {p.index.name for p in sales_paths if p.index is not None}
        assert index_names == {"narrow", "wider", "other"}

    def test_hook_disabled_exports_nothing(self, small_catalog, collector, join_query, sample_index):
        small_catalog.add_index(sample_index)
        hooks = OptimizerHooks.disabled()
        _, exported = collector.collect(join_query, small_catalog.all_indexes(), hooks)
        assert exported == []

    def test_a_configuration_names_each_index_once(self, collector, join_query, sample_index):
        """A repeated index is one visible index, as in the materialized set."""
        hooks = OptimizerHooks(keep_all_access_paths=True)
        _, exported = collector.collect(join_query, [sample_index, sample_index], hooks)
        assert [p.index for p in exported if p.index is not None] == [sample_index]

    def test_filtered_set_identical_with_and_without_hook(self, small_catalog, collector, join_query):
        """Enabling the export hook must not change what the planner sees."""
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        plain, _ = collector.collect(join_query)
        hooked, _ = collector.collect(
            join_query, small_catalog.all_indexes(), OptimizerHooks(keep_all_access_paths=True)
        )
        for table in join_query.tables:
            assert [p.describe() for p in plain[table]] == [p.describe() for p in hooked[table]]


class TestSelectivityInteraction:
    def test_filtered_leading_column_cheaper_than_unfiltered(self, small_catalog, collector):
        from repro.query import QueryBuilder

        small_catalog.add_index(Index("sales", ["s_quantity"]))
        narrow = (
            QueryBuilder("narrow").select("sales.s_amount").from_tables("sales")
            .where_between("sales.s_quantity", 1, 100).build()
        )
        wide = (
            QueryBuilder("wide").select("sales.s_amount").from_tables("sales")
            .where_between("sales.s_quantity", 1, 400_000).build()
        )
        narrow_cost = next(
            p.cost for p in collector.collect(narrow)[0]["sales"] if p.method == "indexscan"
        )
        wide_cost = next(
            p.cost for p in collector.collect(wide)[0]["sales"] if p.method == "indexscan"
        )
        assert narrow_cost < wide_cost
