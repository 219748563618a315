"""Tests for the query AST."""

import pytest

from repro.query.ast import (
    Aggregate,
    AggregateFunction,
    ColumnRef,
    Comparison,
    JoinPredicate,
    OrderByItem,
    Predicate,
    Query,
)
from repro.util.errors import QueryError


class TestColumnRef:
    def test_requires_table_and_column(self):
        with pytest.raises(QueryError):
            ColumnRef("", "a")
        with pytest.raises(QueryError):
            ColumnRef("t", "")

    def test_str(self):
        assert str(ColumnRef("t", "a")) == "t.a"


class TestPredicate:
    def test_between_requires_two_values(self):
        with pytest.raises(QueryError):
            Predicate(ColumnRef("t", "a"), Comparison.BETWEEN, 1)

    def test_non_between_rejects_second_value(self):
        with pytest.raises(QueryError):
            Predicate(ColumnRef("t", "a"), Comparison.EQ, 1, 2)

    def test_table_property(self):
        predicate = Predicate(ColumnRef("t", "a"), Comparison.LT, 5)
        assert predicate.table == "t"


class TestJoinPredicate:
    def test_self_join_rejected(self):
        with pytest.raises(QueryError):
            JoinPredicate(ColumnRef("t", "a"), ColumnRef("t", "b"))

    def test_column_for_and_other(self):
        join = JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "y"))
        assert join.column_for("a").column == "x"
        assert join.other("a").table == "b"
        with pytest.raises(QueryError):
            join.column_for("c")

    def test_tables(self):
        join = JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "y"))
        assert join.tables == frozenset({"a", "b"})


class TestAggregate:
    def test_count_star_allowed(self):
        agg = Aggregate(AggregateFunction.COUNT)
        assert str(agg) == "count(*)"

    def test_sum_requires_column(self):
        with pytest.raises(QueryError):
            Aggregate(AggregateFunction.SUM)


class TestQuery:
    def _query(self, **overrides):
        defaults = dict(
            name="q",
            tables=("a", "b"),
            select_columns=(ColumnRef("a", "x"),),
            joins=(JoinPredicate(ColumnRef("a", "id"), ColumnRef("b", "a_id")),),
        )
        defaults.update(overrides)
        return Query(**defaults)

    def test_valid_query(self):
        query = self._query()
        assert query.table_count == 2

    def test_requires_tables(self):
        with pytest.raises(QueryError):
            self._query(tables=())

    def test_requires_output(self):
        with pytest.raises(QueryError):
            self._query(select_columns=(), aggregates=())

    def test_duplicate_tables_rejected(self):
        with pytest.raises(QueryError):
            self._query(tables=("a", "a"))

    def test_reference_outside_from_rejected(self):
        with pytest.raises(QueryError):
            self._query(select_columns=(ColumnRef("z", "x"),))

    def test_columns_of(self):
        query = self._query(
            filters=(Predicate(ColumnRef("a", "y"), Comparison.GT, 1),),
            order_by=(OrderByItem(ColumnRef("a", "x")),),
        )
        assert query.columns_of("a") == ["x", "y", "id"] or set(query.columns_of("a")) == {"x", "y", "id"}

    def test_filters_on_and_joins_involving(self):
        query = self._query(filters=(Predicate(ColumnRef("b", "v"), Comparison.EQ, 3),))
        assert len(query.filters_on("b")) == 1
        assert query.filters_on("a") == []
        assert len(query.joins_involving("a")) == 1

    def test_join_columns_of(self):
        query = self._query()
        assert query.join_columns_of("a") == ["id"]
        assert query.join_columns_of("b") == ["a_id"]

    def test_group_and_order_columns_of(self):
        query = self._query(
            group_by=(ColumnRef("a", "x"),),
            order_by=(OrderByItem(ColumnRef("b", "a_id")),),
            aggregates=(Aggregate(AggregateFunction.COUNT),),
        )
        assert query.group_by_columns_of("a") == ["x"]
        assert query.order_by_columns_of("b") == ["a_id"]
        assert query.has_aggregation

    def test_to_sql_mentions_all_clauses(self):
        query = self._query(
            filters=(Predicate(ColumnRef("a", "y"), Comparison.BETWEEN, 1, 5),),
            group_by=(ColumnRef("a", "x"),),
            order_by=(OrderByItem(ColumnRef("a", "x")),),
            aggregates=(Aggregate(AggregateFunction.SUM, ColumnRef("b", "v")),),
        )
        sql = query.to_sql()
        assert "SELECT" in sql and "FROM" in sql and "WHERE" in sql
        assert "GROUP BY" in sql and "ORDER BY" in sql
        assert "BETWEEN" in sql
