"""Tests for in-memory relations and the sorted index structure."""

import pytest

from repro.catalog.schema import Column, ColumnType, Table
from repro.catalog.index import Index
from repro.storage.btree import SortedIndexData
from repro.storage.relation import RelationData
from repro.util.errors import ExecutionError


@pytest.fixture
def table():
    return Table("t", [Column("id", ColumnType.BIGINT), Column("v", ColumnType.INTEGER)],
                 primary_key="id")


@pytest.fixture
def relation(table):
    rows = [{"id": i, "v": (i * 7) % 10} for i in range(1, 101)]
    return RelationData(table, rows)


class TestRelationData:
    def test_row_count(self, relation):
        assert relation.row_count == 100
        assert len(relation) == 100

    def test_insert_missing_column_rejected(self, table):
        relation = RelationData(table)
        with pytest.raises(ExecutionError):
            relation.insert({"id": 1})

    def test_insert_extra_column_rejected(self, table):
        relation = RelationData(table)
        with pytest.raises(ExecutionError):
            relation.insert({"id": 1, "v": 2, "zz": 3})

    def test_scan_returns_copies(self, relation):
        first = next(relation.scan())
        first["v"] = 999
        assert next(relation.scan())["v"] != 999

    def test_column_values(self, relation):
        values = relation.column_values("id")
        assert values[0] == 1
        assert len(values) == 100

    def test_column_values_unknown_column(self, relation):
        with pytest.raises(ExecutionError):
            relation.column_values("zz")

    def test_fetch_by_position(self, relation):
        rows = relation.fetch([0, 99])
        assert rows[0]["id"] == 1
        assert rows[1]["id"] == 100

    def test_fetch_out_of_range(self, relation):
        with pytest.raises(ExecutionError):
            relation.fetch([100])

    def test_heap_pages_positive(self, relation):
        assert relation.heap_pages >= 1


class TestSortedIndexData:
    def test_entries_sorted_by_key(self, table, relation):
        index = SortedIndexData(Index("t", ["v"]), relation)
        keys = [key for key, _ in index.scan_ordered()]
        assert keys == sorted(keys)
        assert index.entry_count == 100

    def test_positions_equal(self, table, relation):
        index = SortedIndexData(Index("t", ["v"]), relation)
        positions = index.positions_equal(3)
        values = {relation.fetch([p])[0]["v"] for p in positions}
        assert values == {3}

    def test_positions_range(self, table, relation):
        index = SortedIndexData(Index("t", ["id"]), relation)
        positions = index.positions_range(10, 20)
        ids = sorted(relation.fetch([p])[0]["id"] for p in positions)
        assert ids == list(range(10, 21))

    def test_positions_range_open_ended(self, table, relation):
        index = SortedIndexData(Index("t", ["id"]), relation)
        assert len(index.positions_range(None, None)) == 100
        assert len(index.positions_range(91, None)) == 10

    def test_positions_range_exclusive_bounds(self, table, relation):
        index = SortedIndexData(Index("t", ["id"]), relation)
        positions = index.positions_range(10, 20, low_inclusive=False, high_inclusive=False)
        ids = sorted(relation.fetch([p])[0]["id"] for p in positions)
        assert ids == list(range(11, 20))

    def test_mismatched_table_rejected(self, relation):
        with pytest.raises(ExecutionError):
            SortedIndexData(Index("other", ["v"]), relation)

    def test_leaf_pages_positive(self, table, relation):
        index = SortedIndexData(Index("t", ["v"]), relation)
        assert index.leaf_pages >= 1
