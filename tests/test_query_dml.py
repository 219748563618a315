"""Unit tests for DML statements: AST, parser, preprocessor, maintenance model."""

from __future__ import annotations

import pytest

from repro.catalog.index import Index
from repro.optimizer.maintenance import MaintenanceCostModel, MaintenanceProfile
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache
from repro.query import (
    DmlKind,
    DmlStatement,
    parse_query,
    parse_statement,
)
from repro.query.ast import ColumnRef, Comparison, Predicate, Query
from repro.util.errors import QueryError

from conftest import build_small_catalog


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestDmlParsing:
    def test_insert_values(self):
        stmt = parse_statement(
            "INSERT INTO sales (s_amount, s_quantity) VALUES (1, 2), (3.5, 4)", name="i"
        )
        assert isinstance(stmt, DmlStatement)
        assert stmt.kind is DmlKind.INSERT
        assert stmt.table == "sales"
        assert stmt.columns == ("s_amount", "s_quantity")
        assert stmt.values == ((1.0, 2.0), (3.5, 4.0))
        assert stmt.rows_hint == 2

    def test_update_with_bare_and_qualified_columns(self):
        stmt = parse_statement(
            "UPDATE sales SET s_amount = 9 WHERE sales.s_quantity > 5 AND s_id <= 100",
            name="u",
        )
        assert stmt.kind is DmlKind.UPDATE
        assert stmt.columns == ("s_amount",)
        assert stmt.set_values == (9.0,)
        assert [str(p.column) for p in stmt.filters] == ["sales.s_quantity", "sales.s_id"]

    def test_delete_with_between(self):
        stmt = parse_statement(
            "DELETE FROM sales WHERE s_amount BETWEEN 10 AND 20", name="d"
        )
        assert stmt.kind is DmlKind.DELETE
        assert stmt.filters[0].op is Comparison.BETWEEN

    def test_select_still_parses_to_query(self):
        stmt = parse_statement("SELECT sales.s_amount FROM sales", name="q")
        assert isinstance(stmt, Query)
        assert not stmt.is_dml

    def test_parse_query_rejects_dml_with_pointer(self):
        with pytest.raises(QueryError, match="parse_statement"):
            parse_query("DELETE FROM sales")

    def test_qualified_column_must_match_target(self):
        with pytest.raises(QueryError, match="does not belong"):
            parse_statement("UPDATE sales SET customers.c_age = 1", name="u")

    def test_dml_where_rejects_joins(self):
        with pytest.raises(QueryError, match="not to another column"):
            parse_statement(
                "DELETE FROM sales WHERE s_customer = customers.c_id", name="d"
            )

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QueryError, match="trailing input"):
            parse_statement("DELETE FROM sales WHERE s_id = 1 banana", name="d")

    @pytest.mark.parametrize("sql", [
        "INSERT INTO sales VALUES (1)",                      # no column list
        "INSERT INTO sales (s_amount) VALUES (1, 2)",        # arity mismatch
        "INSERT INTO sales (s_amount, s_amount) VALUES (1, 1)",  # duplicate column
        "UPDATE sales SET",                                  # no assignments
        "UPDATE sales WHERE s_id = 1",                       # missing SET
        "DELETE sales",                                      # missing FROM
        "DELETE FROM",                                       # missing table
    ])
    def test_malformed_dml_raises_query_error(self, sql):
        with pytest.raises(QueryError):
            parse_statement(sql, name="bad")


class TestDmlRoundTrip:
    @pytest.mark.parametrize("sql", [
        "INSERT INTO sales (s_amount, s_quantity) VALUES (1, 2), (3.5, 4)",
        "UPDATE sales SET s_amount = 9 WHERE s_quantity > 5",
        "DELETE FROM sales WHERE s_amount BETWEEN 10 AND 20 AND s_id <> 3",
        "DELETE FROM sales",
        # Extreme literals: str(float(...)) emits a sign or scientific
        # notation, which the tokenizer must read back.
        "INSERT INTO sales (s_amount) VALUES (10000000000000000000)",
        "UPDATE sales SET s_amount = -42.5 WHERE s_quantity > -3",
        "DELETE FROM sales WHERE s_amount BETWEEN 1e-5 AND 2.5e300",
    ])
    def test_to_sql_is_a_fixed_point(self, sql):
        first = parse_statement(sql, name="s")
        second = parse_statement(first.to_sql(), name="s")
        assert second == first
        assert second.to_sql() == first.to_sql()

    def test_non_finite_values_rejected(self):
        with pytest.raises(QueryError, match="finite"):
            DmlStatement(
                name="bad", kind=DmlKind.INSERT, table="sales",
                columns=("s_amount",), values=((float("inf"),),),
            )
        with pytest.raises(QueryError, match="finite"):
            DmlStatement(
                name="bad", kind=DmlKind.UPDATE, table="sales",
                columns=("s_amount",), set_values=(float("nan"),),
            )


# ---------------------------------------------------------------------------
# AST semantics
# ---------------------------------------------------------------------------


class TestDmlStatementSemantics:
    def test_shadow_query_of_update(self):
        stmt = parse_statement(
            "UPDATE sales SET s_amount = 9 WHERE s_quantity > 5", name="u"
        )
        shadow = stmt.shadow_query()
        assert shadow is not None
        assert shadow.tables == ("sales",)
        assert shadow.name == "u"
        assert [str(c) for c in shadow.select_columns] == ["sales.s_amount", "sales.s_quantity"]
        assert shadow.filters == stmt.filters

    def test_insert_and_unfiltered_delete_have_no_shadow(self):
        insert = parse_statement("INSERT INTO sales (s_amount) VALUES (1)", name="i")
        delete = parse_statement("DELETE FROM sales", name="d")
        assert insert.shadow_query() is None
        assert delete.shadow_query() is None

    def test_affects_index_columns(self):
        update = parse_statement("UPDATE sales SET s_amount = 1", name="u")
        insert = parse_statement("INSERT INTO sales (s_quantity) VALUES (1)", name="i")
        delete = parse_statement("DELETE FROM sales", name="d")
        assert update.affects_index_columns(("s_amount", "s_id"))
        assert not update.affects_index_columns(("s_quantity",))
        assert insert.affects_index_columns(("s_quantity",))
        assert insert.affects_index_columns(("s_amount",))
        assert delete.affects_index_columns(("s_amount",))

    def test_filters_must_target_the_statement_table(self):
        with pytest.raises(QueryError, match="cannot join"):
            DmlStatement(
                name="bad", kind=DmlKind.DELETE, table="sales",
                filters=(Predicate(ColumnRef("customers", "c_age"), Comparison.EQ, 1.0),),
            )

    def test_query_surface_compatibility(self):
        stmt = parse_statement(
            "UPDATE sales SET s_amount = 9 WHERE s_quantity > 5", name="u"
        )
        assert stmt.tables == ("sales",)
        assert stmt.table_count == 1
        assert stmt.columns_of("sales") == ["s_amount", "s_quantity"]
        assert stmt.columns_of("customers") == []
        assert stmt.filters_on("sales") == list(stmt.filters)
        assert stmt.is_dml and not Query.is_dml


# ---------------------------------------------------------------------------
# Maintenance cost model
# ---------------------------------------------------------------------------


class TestMaintenanceCostModel:
    @pytest.fixture
    def model(self):
        return MaintenanceCostModel(build_small_catalog())

    def test_insert_rows_come_from_values(self, model):
        stmt = parse_statement(
            "INSERT INTO sales (s_amount) VALUES (1), (2), (3)", name="i"
        )
        assert model.rows_affected(stmt) == 3.0

    def test_filtered_rows_follow_selectivity(self, model):
        narrow = parse_statement("DELETE FROM sales WHERE s_id = 1", name="d1")
        wide = parse_statement("DELETE FROM sales WHERE s_id > 0", name="d2")
        assert model.rows_affected(narrow) < model.rows_affected(wide)

    def test_update_charges_only_indexes_on_set_columns(self, model):
        stmt = parse_statement("UPDATE sales SET s_amount = 1 WHERE s_id > 0", name="u")
        touched = Index("sales", ["s_amount", "s_id"])
        untouched = Index("sales", ["s_quantity"])
        other_table = Index("customers", ["c_age"])
        assert model.index_maintenance_cost(stmt, touched) > 0.0
        assert model.index_maintenance_cost(stmt, untouched) == 0.0
        assert model.index_maintenance_cost(stmt, other_table) == 0.0

    def test_insert_and_delete_charge_every_index(self, model):
        insert = parse_statement("INSERT INTO sales (s_amount) VALUES (1)", name="i")
        delete = parse_statement("DELETE FROM sales WHERE s_id > 0", name="d")
        index = Index("sales", ["s_quantity"])
        assert model.index_maintenance_cost(insert, index) > 0.0
        assert model.index_maintenance_cost(delete, index) > 0.0

    def test_wider_keys_cost_more_per_row(self, model):
        stmt = parse_statement("DELETE FROM sales WHERE s_id > 0", name="d")
        narrow = Index("sales", ["s_quantity"])
        wide = Index("sales", ["s_quantity", "s_amount", "s_customer", "s_product"])
        assert model.index_maintenance_cost(stmt, wide) >= model.index_maintenance_cost(
            stmt, narrow
        )

    def test_profile_covers_only_charged_candidates(self, model):
        stmt = parse_statement("UPDATE sales SET s_amount = 1 WHERE s_id > 0", name="u")
        touched = Index("sales", ["s_amount"])
        untouched = Index("sales", ["s_quantity"])
        profile = model.profile(stmt, [touched, untouched])
        assert touched.key in profile.per_index
        assert untouched.key not in profile.per_index
        assert profile.cost_for([touched]) > profile.cost_for([untouched])
        assert profile.cost_for([untouched]) == profile.base_cost

    def test_profile_round_trips_through_json(self, model):
        stmt = parse_statement("DELETE FROM sales WHERE s_id > 0", name="d")
        profile = model.profile(stmt, [Index("sales", ["s_amount"])])
        rebuilt = MaintenanceProfile.from_dict(profile.to_dict())
        assert rebuilt.base_cost == profile.base_cost
        assert rebuilt.per_index == profile.per_index
        assert rebuilt.digest() == profile.digest()


class TestWhatIfMaintenanceMemoization:
    def test_repeated_probes_hit_the_memo(self, small_catalog):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        stmt = parse_statement("DELETE FROM sales WHERE s_id > 0", name="d")
        index = Index("sales", ["s_amount"])
        first = cache.maintenance_cost(stmt, index)
        second = cache.maintenance_cost(stmt, index)
        assert first == second > 0.0
        assert cache.statistics.maintenance_misses == 1
        assert cache.statistics.maintenance_hits == 1
        # Maintenance questions are neither memo hits nor optimizer calls.
        assert cache.statistics.hits == cache.optimizer.call_count == 0

    def test_statement_cost_decomposes(self, small_catalog):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        stmt = parse_statement(
            "UPDATE sales SET s_amount = 1 WHERE s_quantity <= 100", name="u"
        )
        index = Index("sales", ["s_amount", "s_quantity"])
        bare = cache.statement_cost(stmt, [])
        with_index = cache.statement_cost(stmt, [index])
        shadow_bare = cache.cost_with_configuration(stmt.shadow_query(), [])
        shadow_indexed = cache.cost_with_configuration(stmt.shadow_query(), [index])
        maintenance = cache.maintenance_cost(stmt, index)
        base = cache.statement_base_cost(stmt)
        assert bare == pytest.approx(shadow_bare + base)
        assert with_index == pytest.approx(shadow_indexed + base + maintenance)

    def test_select_statement_cost_is_plain_whatif(self, small_catalog, join_query):
        cache = WhatIfCallCache(Optimizer(small_catalog))
        assert cache.statement_cost(join_query, []) == cache.cost_with_configuration(
            join_query, []
        )
