"""Tests for schema objects: columns, foreign keys, tables."""

import pytest

from repro.catalog.schema import Column, ColumnType, ForeignKey, Table, validate_foreign_keys
from repro.util.errors import CatalogError


class TestColumn:
    def test_default_width_from_type(self):
        assert Column("a", ColumnType.INTEGER).storage_width == 4
        assert Column("b", ColumnType.BIGINT).storage_width == 8

    def test_width_override(self):
        assert Column("name", ColumnType.TEXT, width=25).storage_width == 25

    def test_alignment_from_type(self):
        assert Column("a", ColumnType.BIGINT).alignment == 8
        assert Column("a", ColumnType.INTEGER).alignment == 4

    def test_empty_name_rejected(self):
        with pytest.raises(CatalogError):
            Column("")

    def test_invalid_width_rejected(self):
        with pytest.raises(CatalogError):
            Column("a", ColumnType.TEXT, width=0)


class TestForeignKey:
    def test_requires_all_fields(self):
        with pytest.raises(CatalogError):
            ForeignKey("", "t", "c")
        with pytest.raises(CatalogError):
            ForeignKey("c", "", "c")


class TestTable:
    def test_basic_construction(self):
        table = Table("t", [Column("a"), Column("b")], primary_key="a")
        assert table.column_names == ["a", "b"]
        assert table.primary_key == "a"

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a"), Column("a")])

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a")], primary_key="missing")

    def test_no_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [])

    def test_foreign_key_on_unknown_column_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a")], foreign_keys=[ForeignKey("missing", "other", "id")])

    def test_column_lookup(self):
        table = Table("t", [Column("a"), Column("b")])
        assert table.column("a").name == "a"
        assert table.has_column("b")
        assert not table.has_column("z")
        with pytest.raises(CatalogError):
            table.column("z")

    def test_column_widths_all_and_subset(self):
        table = Table("t", [Column("a", ColumnType.INTEGER), Column("b", ColumnType.BIGINT)])
        assert table.column_widths() == [(4, 4), (8, 8)]
        assert table.column_widths(["b"]) == [(8, 8)]


class TestValidateForeignKeys:
    def test_valid_schema(self):
        parent = Table("parent", [Column("id")], primary_key="id")
        child = Table("child", [Column("pid")], foreign_keys=[ForeignKey("pid", "parent", "id")])
        result = validate_foreign_keys({"parent": parent, "child": child})
        assert result.ok

    def test_missing_table_detected(self):
        child = Table("child", [Column("pid")], foreign_keys=[ForeignKey("pid", "ghost", "id")])
        result = validate_foreign_keys({"child": child})
        assert not result.ok
        assert result.missing_tables

    def test_missing_column_detected(self):
        parent = Table("parent", [Column("id")])
        child = Table("child", [Column("pid")], foreign_keys=[ForeignKey("pid", "parent", "zz")])
        result = validate_foreign_keys({"parent": parent, "child": child})
        assert not result.ok
        assert result.missing_columns
