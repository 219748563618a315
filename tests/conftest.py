"""Shared fixtures for the test suite.

Most tests run against a small hand-built schema (two dimension tables and a
fact table with a few thousand statistical rows) so individual tests stay
fast; workload-level tests use session-scoped fixtures for the paper's
star-schema and TPC-H-like catalogs, which are more expensive to plan
against.
"""

from __future__ import annotations

import pytest

from repro.catalog import Catalog, Column, ColumnType, ForeignKey, Index, Table, TableStatistics
from repro.optimizer import Optimizer
from repro.query import QueryBuilder
from repro.workloads import StarSchemaWorkload
from repro.workloads.tpch_like import build_tpch_like_catalog


def build_small_catalog() -> Catalog:
    """A three-table star: sales -> customers, sales -> products."""
    catalog = Catalog("small")
    customers = Table(
        "customers",
        [
            Column("c_id", ColumnType.BIGINT),
            Column("c_region", ColumnType.INTEGER),
            Column("c_age", ColumnType.INTEGER),
        ],
        primary_key="c_id",
    )
    products = Table(
        "products",
        [
            Column("p_id", ColumnType.BIGINT),
            Column("p_category", ColumnType.INTEGER),
            Column("p_price", ColumnType.FLOAT),
        ],
        primary_key="p_id",
    )
    sales = Table(
        "sales",
        [
            Column("s_id", ColumnType.BIGINT),
            Column("s_customer", ColumnType.BIGINT),
            Column("s_product", ColumnType.BIGINT),
            Column("s_amount", ColumnType.FLOAT),
            Column("s_quantity", ColumnType.INTEGER),
        ],
        primary_key="s_id",
        foreign_keys=[
            ForeignKey("s_customer", "customers", "c_id"),
            ForeignKey("s_product", "products", "p_id"),
        ],
    )
    catalog.add_table(customers, TableStatistics.uniform(customers, 20_000))
    catalog.add_table(products, TableStatistics.uniform(products, 5_000))
    catalog.add_table(sales, TableStatistics.uniform(sales, 500_000))
    catalog.validate()
    return catalog


def build_join_query(name: str = "sales_by_region"):
    """A two-join query with a filter, grouping and ordering."""
    return (
        QueryBuilder(name)
        .select("customers.c_region")
        .aggregate("sum", "sales.s_amount")
        .join("sales.s_customer", "customers.c_id")
        .join("sales.s_product", "products.p_id")
        .where_between("products.p_category", 10, 60)
        .group_by("customers.c_region")
        .order_by("customers.c_region")
        .build()
    )


def build_simple_query(name: str = "simple_scan"):
    """A single-table filtered scan with ordering."""
    return (
        QueryBuilder(name)
        .select("sales.s_amount", "sales.s_quantity")
        .from_tables("sales")
        .where("sales.s_quantity", "<=", 5_000)
        .order_by("sales.s_customer")
        .build()
    )


def build_wide_star_query(dims: int):
    """The star fact table joined to ``dim01`` .. ``dim<dims>``.

    The join-width family: each dimension filtered on ``a2`` between 100 and
    5000 and selecting ``a1``, plus ``fact_m1``, ordered by ``dim01_a1``.
    """
    builder = QueryBuilder(f"wide{dims + 1}").select("fact.fact_m1")
    for number in range(1, dims + 1):
        dim = f"dim{number:02d}"
        builder.select(f"{dim}.{dim}_a1")
        builder.join(f"fact.fact_{dim}_id", f"{dim}.{dim}_id")
        builder.where_between(f"{dim}.{dim}_a2", 100, 5000)
    return builder.order_by("dim01.dim01_a1").build()


@pytest.fixture
def small_catalog() -> Catalog:
    """A fresh small catalog per test (mutable: tests may add indexes)."""
    return build_small_catalog()


@pytest.fixture
def join_query():
    """The standard two-join test query."""
    return build_join_query()


@pytest.fixture
def simple_query():
    """The standard single-table test query."""
    return build_simple_query()


@pytest.fixture
def optimizer(small_catalog) -> Optimizer:
    """An optimizer over the small catalog."""
    return Optimizer(small_catalog)


@pytest.fixture(scope="session")
def star_workload() -> StarSchemaWorkload:
    """The paper's synthetic star-schema workload (built once per session)."""
    return StarSchemaWorkload(seed=7)


@pytest.fixture(scope="session")
def tpch_catalog() -> Catalog:
    """The TPC-H-like catalog (built once per session)."""
    return build_tpch_like_catalog()


@pytest.fixture
def sample_index() -> Index:
    """A hypothetical index on the sales fact table's customer column."""
    return Index(table="sales", columns=["s_customer"], hypothetical=True)
