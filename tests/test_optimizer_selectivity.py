"""Tests for selectivity and cardinality estimation."""

import pytest

from repro.optimizer.selectivity import SelectivityEstimator
from repro.query import QueryBuilder
from repro.query.ast import ColumnRef, Comparison, Predicate


@pytest.fixture
def estimator(small_catalog):
    return SelectivityEstimator(small_catalog)


class TestPredicateSelectivity:
    def test_equality_uses_ndv(self, estimator, small_catalog):
        predicate = Predicate(ColumnRef("customers", "c_id"), Comparison.EQ, 5)
        expected = 1.0 / small_catalog.statistics("customers").distinct_values("c_id")
        assert estimator.predicate_selectivity(predicate) == pytest.approx(expected, rel=0.01)

    def test_range_uses_histogram(self, estimator, small_catalog):
        stats = small_catalog.statistics("customers").column("c_age")
        span = stats.max_value - stats.min_value
        predicate = Predicate(
            ColumnRef("customers", "c_age"), Comparison.BETWEEN,
            stats.min_value, stats.min_value + span * 0.1,
        )
        assert estimator.predicate_selectivity(predicate) == pytest.approx(0.1, abs=0.05)

    def test_open_ranges(self, estimator, small_catalog):
        stats = small_catalog.statistics("customers").column("c_age")
        midpoint = (stats.min_value + stats.max_value) / 2
        below = Predicate(ColumnRef("customers", "c_age"), Comparison.LE, midpoint)
        above = Predicate(ColumnRef("customers", "c_age"), Comparison.GE, midpoint)
        total = estimator.predicate_selectivity(below) + estimator.predicate_selectivity(above)
        assert total == pytest.approx(1.0, abs=0.1)

    def test_not_equal_complements_equality(self, estimator):
        eq = Predicate(ColumnRef("customers", "c_region"), Comparison.EQ, 5)
        ne = Predicate(ColumnRef("customers", "c_region"), Comparison.NE, 5)
        assert estimator.predicate_selectivity(eq) + estimator.predicate_selectivity(ne) == pytest.approx(1.0)

    def test_selectivity_clamped_to_valid_range(self, estimator):
        predicate = Predicate(ColumnRef("customers", "c_age"), Comparison.BETWEEN, -100, -50)
        assert 0 < estimator.predicate_selectivity(predicate) <= 1


class TestTableCardinality:
    def test_no_filters_full_cardinality(self, estimator, small_catalog, join_query):
        assert estimator.table_rows(join_query, "sales") == pytest.approx(
            small_catalog.statistics("sales").row_count
        )

    def test_filters_reduce_cardinality(self, estimator, small_catalog, join_query):
        filtered = estimator.table_rows(join_query, "products")
        assert filtered < small_catalog.statistics("products").row_count

    def test_independence_multiplies(self, estimator, small_catalog):
        query = (
            QueryBuilder("q")
            .select("sales.s_amount")
            .from_tables("sales")
            .where("sales.s_quantity", "<=", 100_000)
            .where("sales.s_customer", "<=", 250_000)
            .build()
        )
        single_a = estimator.predicate_selectivity(query.filters[0])
        single_b = estimator.predicate_selectivity(query.filters[1])
        assert estimator.table_selectivity(query, "sales") == pytest.approx(single_a * single_b)


class TestJoinEstimation:
    def test_join_selectivity_uses_larger_ndv(self, estimator, join_query, small_catalog):
        join = join_query.joins[0]
        selectivity = estimator.join_selectivity(join)
        larger_ndv = max(
            small_catalog.statistics("sales").distinct_values("s_customer"),
            small_catalog.statistics("customers").distinct_values("c_id"),
        )
        assert selectivity == pytest.approx(1.0 / larger_ndv)

    def test_join_result_not_larger_than_cartesian(self, estimator, join_query):
        tables = frozenset({"sales", "customers"})
        joined = estimator.join_result_rows(join_query, tables)
        cartesian = estimator.table_rows(join_query, "sales") * estimator.table_rows(
            join_query, "customers"
        )
        assert joined <= cartesian

    def test_full_join_result_positive(self, estimator, join_query):
        assert estimator.join_result_rows(join_query, frozenset(join_query.tables)) >= 1.0


class TestGroupsAndWidths:
    def test_group_count_capped_by_input(self, estimator, join_query):
        assert estimator.group_count(join_query, input_rows=10) <= 10

    def test_group_count_without_group_by_is_one(self, estimator, simple_query):
        assert estimator.group_count(simple_query, 1000) == 1.0

    def test_output_row_width_positive(self, estimator, join_query):
        assert estimator.output_row_width(join_query, join_query.tables) >= 8



class TestPerQueryMemo:
    def test_a_new_query_is_not_answered_from_the_previous_one(
        self, small_catalog, estimator, join_query, simple_query
    ):
        # ``sales`` is in both queries with different filters and columns.
        estimator.table_rows(join_query, "sales")
        estimator.output_row_width(join_query, ["sales"])
        fresh = SelectivityEstimator(small_catalog)
        assert estimator.table_rows(simple_query, "sales") == fresh.table_rows(
            simple_query, "sales"
        )
        assert estimator.output_row_width(simple_query, ["sales"]) == fresh.output_row_width(
            simple_query, ["sales"]
        )
        assert estimator.table_rows(simple_query, "sales") != fresh.table_rows(
            join_query, "sales"
        )
