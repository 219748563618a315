"""Tests for plan execution: correctness of every operator and I/O accounting."""

import pytest

from repro.catalog.index import Index
from repro.executor import PlanExecutor
from repro.executor.predicates import qualified
from repro.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.plan import AccessPath, Operator, join, scan
from repro.query import QueryBuilder
from repro.storage.datagen import DataGenerator
from repro.workloads.tpch_like import build_tpch_like_catalog, tpch_q5_like_query


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
        for predicate in query.joins:
            if merged[f"{predicate.left.table}.{predicate.left.column}"] != merged[
                f"{predicate.right.table}.{predicate.right.column}"
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
        from repro.optimizer.hooks import OptimizerHooks
        from repro.optimizer.selectivity import SelectivityEstimator

        index = Index("products", ["p_category", "p_price"])
        collector = AccessPathCollector(
            small_catalog, CostModel(), SelectivityEstimator(small_catalog)
        )
        _, exported = collector.collect(query, [index], OptimizerHooks(keep_all_access_paths=True))
        index_path = next(p for p in exported if p.index is not None)
        indexed = PlanExecutor(database, query).execute(scan(index_path))

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


@pytest.fixture(scope="module")
def q5_cycle():
    """TPC-H Q5's join graph (customer-orders-lineitem-supplier-nation closes
    a cycle) without its date filter or grouping, over a small instance: the
    join that adds the last table of the cycle connects two predicates."""
    catalog = build_tpch_like_catalog()
    database = DataGenerator(catalog, seed=3).generate(row_counts={
        "region": 5, "nation": 25, "customer": 300, "orders": 1_500,
        "lineitem": 6_000, "supplier": 20,
    })
    database.analyze()
    shape = tpch_q5_like_query()
    builder = QueryBuilder("q5_cycle").select(*sorted(
        {str(side) for predicate in shape.joins for side in (predicate.left, predicate.right)}
    ))
    for predicate in shape.joins:
        builder.join(str(predicate.left), str(predicate.right))
    query = builder.where("region.r_regionkey", "=", 2).build()
    return database, query, Optimizer(catalog).optimize(query).plan


def join_violations(rows, predicates):
    return [
        (row, predicate) for row in rows for predicate in predicates
        if row[str(predicate.left)] != row[str(predicate.right)]
    ]


class TestCyclicJoins:
    def test_every_join_predicate_holds(self, q5_cycle):
        database, query, plan = q5_cycle
        assert any(len(node.predicates) > 1 for node in plan.walk())
        result = PlanExecutor(database, query).execute(plan)
        assert result.row_count > 0
        assert join_violations(result.rows, query.joins) == []

    def test_nested_loop_applies_the_residual_predicates(self, q5_cycle):
        """The same multi-predicate join as an index nested loop probing on
        its first predicate returns exactly the hash join's rows."""
        database, query, plan = q5_cycle
        multi = next(node for node in plan.walk() if len(node.predicates) > 1)
        probed = next(child for child in multi.children if child.op is Operator.SCAN)
        outer = next(child for child in multi.children if child is not probed)
        table = probed.path.table
        column = multi.predicates[0].column_for(table).column
        path = AccessPath(
            table=table, method="indexscan", cost=1.0, rows=1.0,
            index=Index(table, [column]), provided_order=column,
            rescan_cost=1.0, rows_per_probe=1.0,
        )
        nested = join(
            Operator.NESTLOOP, outer, scan(path, multiplier=outer.rows, parameterized=True),
            multi.predicates, multi.total_cost, multi.rows,
        )
        executor = PlanExecutor(database, query)
        expected = executor.execute(multi).rows
        produced = executor.execute(nested).rows
        assert len(produced) == len(expected) > 0
        inside = [p for p in query.joins if p.tables <= nested.tables]
        assert join_violations(produced, inside) == []


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
