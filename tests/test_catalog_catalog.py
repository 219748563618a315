"""Tests for the catalog registry and the what-if index sets probed over it."""

import pytest

from repro.catalog import Catalog, Column, ForeignKey, Index, Table, TableStatistics
from repro.optimizer import Optimizer, OptimizerHooks
from repro.util.errors import CatalogError


def _indexes_seen(catalog, query, indexes=None):
    """Names of the indexes one optimizer call over ``catalog`` planned with."""
    hooks = OptimizerHooks(keep_all_access_paths=True, access_paths_only=True)
    result = Optimizer(catalog).optimize(query, hooks, indexes=indexes)
    return {path.index.name for path in result.access_paths if path.index is not None}


class TestTables:
    def test_add_and_lookup(self, small_catalog):
        assert small_catalog.has_table("sales")
        assert small_catalog.table("sales").name == "sales"
        assert len(small_catalog.tables()) == 3

    def test_unknown_table_raises(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.table("nope")

    def test_duplicate_table_rejected(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.add_table(Table("sales", [Column("x")]))

    def test_validate_detects_broken_foreign_key(self):
        catalog = Catalog()
        broken = Table("child", [Column("pid")],
                       foreign_keys=[ForeignKey("pid", "ghost", "id")])
        catalog.add_table(broken, TableStatistics.uniform(broken, 10))
        with pytest.raises(CatalogError):
            catalog.validate()


class TestStatistics:
    def test_statistics_roundtrip(self, small_catalog):
        stats = small_catalog.statistics("sales")
        assert stats.row_count == 500_000

    def test_statistics_missing(self):
        catalog = Catalog()
        table = Table("t", [Column("a")])
        catalog.add_table(table)
        assert not catalog.has_statistics("t")
        with pytest.raises(CatalogError):
            catalog.statistics("t")

    def test_statistics_for_wrong_table_rejected(self, small_catalog):
        other = Table("other", [Column("a")])
        with pytest.raises(CatalogError):
            small_catalog.set_statistics("sales", TableStatistics.uniform(other, 10))


class TestIndexes:
    def test_add_index(self, small_catalog, sample_index):
        small_catalog.add_index(sample_index)
        assert small_catalog.index(sample_index.name) == sample_index
        assert small_catalog.all_indexes() == [sample_index]

    def test_duplicate_index_name_rejected(self, small_catalog, sample_index):
        small_catalog.add_index(sample_index)
        with pytest.raises(CatalogError):
            small_catalog.add_index(Index("sales", ["s_customer"], name=sample_index.name))

    def test_invalid_index_rejected(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.add_index(Index("sales", ["no_such_column"]))


class TestOverlays:
    """A what-if configuration is the ``indexes`` argument of one optimizer call.

    It never enters the catalog, yet keeps what the catalog's overlays
    guaranteed: it is visible for that call only, it hides the materialized
    indexes, it is validated, and a failed call leaves nothing behind.
    """

    def test_with_indexes_adds_temporarily(self, small_catalog, join_query, sample_index):
        permanent = small_catalog.add_index(Index("sales", ["s_product"], name="perm"))
        seen = _indexes_seen(small_catalog, join_query, [permanent, sample_index])
        assert seen == {"perm", sample_index.name}
        assert small_catalog.all_indexes() == [permanent]
        assert _indexes_seen(small_catalog, join_query) == {"perm"}

    def test_only_indexes_hides_permanent(self, small_catalog, join_query, sample_index):
        small_catalog.add_index(Index("sales", ["s_product"], name="perm"))
        assert _indexes_seen(small_catalog, join_query, [sample_index]) == {sample_index.name}
        assert _indexes_seen(small_catalog, join_query) == {"perm"}

    def test_only_indexes_empty_configuration(self, small_catalog, join_query, sample_index):
        small_catalog.add_index(sample_index)
        assert _indexes_seen(small_catalog, join_query, []) == set()

    def test_overlay_restored_after_exception(self, small_catalog, join_query, sample_index):
        with pytest.raises(CatalogError):
            _indexes_seen(small_catalog, join_query, [sample_index, Index("sales", ["bogus"])])
        assert small_catalog.all_indexes() == []
        assert _indexes_seen(small_catalog, join_query) == set()

    def test_overlay_validates_indexes(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        for index in (Index("sales", ["bogus"]), Index("nosuch", ["s_customer"])):
            with pytest.raises(CatalogError):
                optimizer.optimize(join_query, indexes=[index])


class TestSizes:
    def test_database_size_positive(self, small_catalog):
        assert small_catalog.database_size_bytes() > 0

    def test_database_size_with_indexes_grows(self, small_catalog, sample_index):
        base = small_catalog.database_size_bytes(include_indexes=True)
        small_catalog.add_index(sample_index)
        assert small_catalog.database_size_bytes(include_indexes=True) > base

    def test_index_size_bytes(self, small_catalog, sample_index):
        assert small_catalog.index_size_bytes(sample_index) > 0

    def test_table_size_bytes(self, small_catalog):
        heap_bytes = {name: small_catalog.statistics(name).heap_bytes
                      for name in ("sales", "products")}
        assert heap_bytes["sales"] > heap_bytes["products"] > 0
