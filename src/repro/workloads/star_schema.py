"""The synthetic star-schema workload of Section VI-A.

"The synthetic workload consists of a 10GB star-schema database, with one
large fact table, and 28 smaller dimension tables.  The dimension tables
themselves have other dimension tables and so on.  The columns in the tables
are numeric and uniformly distributed across all positive integers.  We use
10 queries, each joining a subset of tables using foreign keys.  Other than
the join clauses, they contain randomly generated select columns, where
clauses with 1% selectivity, and order-by clauses."

The generator reproduces that description:

* one fact table with foreign keys into eight first-level dimensions,
* a snowflake of second- and third-level dimensions below them (28 dimension
  tables in total),
* statistics scaled so the heap totals roughly the requested size (10 GB by
  default) without materializing any data, and
* ten randomly-generated-but-deterministic analytical queries that join 2-6
  tables along foreign-key edges, select random columns, filter with
  1 %-selectivity range predicates and order by a selected column.

Data for execution experiments is produced separately (and much smaller) via
:meth:`StarSchemaWorkload.database`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, ColumnType, ForeignKey, Table
from repro.catalog.statistics import TableStatistics
from repro.query.ast import DmlKind, DmlStatement, Predicate, Query, Statement
from repro.query.ast import ColumnRef, Comparison
from repro.query.builder import QueryBuilder
from repro.storage.datagen import DataGenerator, Database
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRNG
from repro.util.units import GIB

#: Number of first-level dimensions hanging off the fact table.
FIRST_LEVEL_DIMS = 8
#: Second-level dimensions (children of first-level ones).
SECOND_LEVEL_DIMS = 12
#: Third-level dimensions (children of second-level ones).
THIRD_LEVEL_DIMS = 8
#: Total dimension-table count, matching the paper's 28.
TOTAL_DIMS = FIRST_LEVEL_DIMS + SECOND_LEVEL_DIMS + THIRD_LEVEL_DIMS

#: Selectivity of the randomly generated range predicates ("1% selectivity").
FILTER_SELECTIVITY = 0.01

#: Selectivity of the generated write statements' WHERE clauses.  Batch-style
#: writes touch narrow row ranges; 0.5% of a 10 GB fact table is still a few
#: hundred thousand rows, enough for index maintenance to rival read benefit.
WRITE_SELECTIVITY = 0.005


@dataclass
class MixedWorkload:
    """A read/write workload: statements plus execution-frequency weights.

    ``write_fraction`` is the *weighted* share of write executions: the
    write statements' weights are scaled so that ``sum(write weights) /
    sum(all weights) == write_fraction``.  Sweeping the fraction therefore
    keeps the statement set (and every plan cache) fixed and only moves the
    weights -- which is how the update-aware benchmark isolates the effect
    of write pressure on the recommended index set.
    """

    statements: List[Statement] = field(default_factory=list)
    weights: Dict[str, float] = field(default_factory=dict)
    write_fraction: float = 0.0

    @classmethod
    def assemble(
        cls,
        reads: List[Query],
        writes: List[DmlStatement],
        read_fraction: float,
    ) -> "MixedWorkload":
        """Combine reads and writes at the requested weighted read share.

        Reads keep weight 1.0; the writes share the weight mass that makes
        their weighted share equal ``1 - read_fraction``.  The one place
        this formula lives -- every workload generator's ``mixed()`` builds
        through it.
        """
        if not 0.0 < read_fraction <= 1.0:
            raise ReproError(
                f"read_fraction must be in (0, 1], got {read_fraction}"
            )
        write_fraction = 1.0 - read_fraction
        total_write_weight = write_fraction / read_fraction * len(reads)
        per_write = total_write_weight / len(writes) if writes else 0.0
        weights = {query.name: 1.0 for query in reads}
        weights.update({stmt.name: per_write for stmt in writes})
        return cls(
            statements=list(reads) + list(writes),
            weights=weights,
            write_fraction=write_fraction,
        )

    @property
    def write_statements(self) -> List[DmlStatement]:
        """The DML statements of the workload."""
        return [stmt for stmt in self.statements if stmt.is_dml]


class StarSchemaWorkload:
    """Builds the synthetic catalog, its ten queries and (optionally) data."""

    def __init__(self, seed: int = 7, target_size_bytes: int = 10 * GIB) -> None:
        self._seed = seed
        self._target_size_bytes = target_size_bytes
        self._rng = DeterministicRNG(seed)
        self._catalog: Optional[Catalog] = None
        self._queries: Optional[List[Query]] = None
        #: Join edges as (child table, fk column, parent table, parent pk).
        self._edges: List[Tuple[str, str, str, str]] = []

    # -- schema -------------------------------------------------------------------

    def catalog(self) -> Catalog:
        """The star-schema catalog with 10 GB-scale statistics (cached)."""
        if self._catalog is None:
            self._catalog = self._build_catalog()
        return self._catalog

    def _build_catalog(self) -> Catalog:
        catalog = Catalog("star_schema")
        dims = self._dimension_layout()

        # Dimension tables, deepest levels first so FKs always resolve.
        for name, level, parent in dims:
            columns = [Column(f"{name}_id", ColumnType.BIGINT)]
            for attr in range(1, 4):
                columns.append(Column(f"{name}_a{attr}", ColumnType.INTEGER))
            foreign_keys = []
            if parent is not None:
                columns.append(Column(f"{name}_{parent}_id", ColumnType.BIGINT))
                foreign_keys.append(
                    ForeignKey(f"{name}_{parent}_id", parent, f"{parent}_id")
                )
                self._edges.append((name, f"{name}_{parent}_id", parent, f"{parent}_id"))
            table = Table(name, columns, primary_key=f"{name}_id", foreign_keys=foreign_keys)
            rows = self._dimension_rows(level)
            catalog.add_table(table, TableStatistics.uniform(table, rows))

        # The fact table references every first-level dimension.
        fact_columns = [Column("fact_id", ColumnType.BIGINT)]
        fact_fks = []
        for level_name, level, _ in dims:
            if level != 1:
                continue
            fk_column = f"fact_{level_name}_id"
            fact_columns.append(Column(fk_column, ColumnType.BIGINT))
            fact_fks.append(ForeignKey(fk_column, level_name, f"{level_name}_id"))
            self._edges.append(("fact", fk_column, level_name, f"{level_name}_id"))
        for measure in range(1, 5):
            fact_columns.append(Column(f"fact_m{measure}", ColumnType.FLOAT))
        fact = Table("fact", fact_columns, primary_key="fact_id", foreign_keys=fact_fks)
        fact_rows = self._fact_rows(fact)
        catalog.add_table(fact, TableStatistics.uniform(fact, fact_rows))
        catalog.validate()
        return catalog

    def _dimension_layout(self) -> List[Tuple[str, int, Optional[str]]]:
        """(table name, level, parent table) for all 28 dimensions."""
        layout: List[Tuple[str, int, Optional[str]]] = []
        first = [f"dim{i:02d}" for i in range(1, FIRST_LEVEL_DIMS + 1)]
        second = [f"dim{i:02d}" for i in range(FIRST_LEVEL_DIMS + 1,
                                               FIRST_LEVEL_DIMS + SECOND_LEVEL_DIMS + 1)]
        third = [f"dim{i:02d}" for i in range(FIRST_LEVEL_DIMS + SECOND_LEVEL_DIMS + 1,
                                              TOTAL_DIMS + 1)]
        # Third-level dimensions carry a foreign key into a second-level one,
        # second-level dimensions into a first-level one (the snowflake).
        for position, name in enumerate(third):
            parent = second[position % len(second)]
            layout.append((name, 3, parent))
        for position, name in enumerate(second):
            parent = first[position % len(first)]
            layout.append((name, 2, parent))
        for name in first:
            layout.append((name, 1, None))
        # Sort so parents exist before children when the catalog is built:
        # first level (no parent), then second, then third.
        layout.sort(key=lambda item: item[1])
        return layout

    def _dimension_rows(self, level: int) -> int:
        scale = self._target_size_bytes / (10 * GIB)
        base = {1: 1_000_000, 2: 100_000, 3: 10_000}[level]
        return max(1000, int(base * scale))

    def _fact_rows(self, fact: Table) -> int:
        """Fact-table cardinality such that the whole database is ~target size."""
        from repro.storage import pages

        width = pages.heap_tuple_width(fact.column_widths())
        per_page = pages.tuples_per_heap_page(width)
        # Dimensions occupy a small fraction; aim the fact table at ~90 %.
        fact_bytes = self._target_size_bytes * 0.9
        fact_pages = fact_bytes / pages.PAGE_SIZE
        return max(100_000, int(fact_pages * per_page))

    # -- queries -------------------------------------------------------------------

    def queries(self, count: int = 10) -> List[Query]:
        """``count`` synthetic analytical queries (cached, deterministic).

        The paper uses ten; larger workloads (session/scale experiments) may
        ask for more.  Every query is derived from an independent RNG
        sub-stream keyed by its number, so ``queries(15)[:10] ==
        queries(10)`` -- growing the workload never changes earlier queries.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if self._queries is None or len(self._queries) < count:
            catalog = self.catalog()
            rng = self._rng.derive("queries")
            self._queries = [
                self._build_query(catalog, rng.derive(f"q{i}"), i)
                for i in range(1, max(count, 10) + 1)
            ]
        return self._queries[:count]

    def _build_query(self, catalog: Catalog, rng: DeterministicRNG, number: int) -> Query:
        # Queries grow from 2-way to 6-way joins as the query number rises.
        join_count = 2 + (number - 1) % 5
        tables = self._pick_join_tables(rng, join_count)
        builder = QueryBuilder(f"Q{number}")

        for child, fk_column, parent, parent_pk in self._edges:
            if child in tables and parent in tables:
                builder.join(f"{child}.{fk_column}", f"{parent}.{parent_pk}")

        # Randomly generated select list: one or two columns per table.
        order_candidates: List[str] = []
        for table_name in tables:
            table = catalog.table(table_name)
            attributes = [c.name for c in table.columns if c.name != table.primary_key]
            picks = rng.sample(attributes, 1 + rng.randint(0, 1))
            for column in picks:
                builder.select(f"{table_name}.{column}")
                order_candidates.append(f"{table_name}.{column}")

        # 1 %-selectivity range predicates on one or two of the joined tables.
        filter_tables = rng.sample(tables, min(len(tables), 1 + rng.randint(0, 1)))
        for table_name in filter_tables:
            stats = catalog.statistics(table_name)
            table = catalog.table(table_name)
            numeric = [c.name for c in table.columns
                       if c.ctype in (ColumnType.INTEGER, ColumnType.BIGINT)
                       and c.name != table.primary_key]
            if not numeric:
                continue
            column = rng.choice(numeric)
            col_stats = stats.column(column)
            low_bound = col_stats.min_value if col_stats.min_value is not None else 1
            high_bound = col_stats.max_value if col_stats.max_value is not None else stats.row_count
            span = max(1.0, (high_bound - low_bound) * FILTER_SELECTIVITY)
            start = rng.uniform(low_bound, max(low_bound, high_bound - span))
            builder.where_between(f"{table_name}.{column}", round(start), round(start + span))

        # Order by one of the selected columns.
        builder.order_by(rng.choice(order_candidates))
        return builder.build()

    def _pick_join_tables(self, rng: DeterministicRNG, join_count: int) -> List[str]:
        """A connected set of tables: the fact table plus a foreign-key walk.

        Foreign-key edges are treated as undirected for reachability so the
        walk can descend into the snowflake (fact -> first-level dimension ->
        second-level dimension -> ...).
        """
        tables = ["fact"]
        while len(tables) < join_count:
            frontier = []
            for child, _, parent, _ in self._edges:
                if child in tables and parent not in tables:
                    frontier.append(parent)
                elif parent in tables and child not in tables:
                    frontier.append(child)
            if not frontier:
                break
            tables.append(rng.choice(sorted(set(frontier))))
        return tables

    # -- write statements -----------------------------------------------------------

    def dml_statements(
        self, count: int = 8, tables: Optional[List[str]] = None
    ) -> List[DmlStatement]:
        """``count`` synthetic write statements (deterministic, like queries).

        The cycle mirrors how a star schema is actually written: bulk
        DELETEs roll old fact rows out (charging *every* fact index),
        UPDATEs refresh dimension attributes (charging the dimension
        indexes containing them), INSERTs append new fact rows, and
        dimension DELETEs retire stale members.  UPDATE and DELETE carry
        range predicates of :data:`WRITE_SELECTIVITY`.  ``tables``
        optionally names the tables write traffic rotates over (e.g. the
        tables a read workload touches, as :meth:`mixed` passes); the fact
        table always takes the bulk shapes.  For a fixed ``tables`` choice
        every statement derives from an independent RNG sub-stream, so
        ``dml_statements(8)[:6] == dml_statements(6)``.
        """
        if count < 1:
            raise ReproError(f"count must be >= 1, got {count}")
        catalog = self.catalog()
        dims = [table for table in (tables or []) if table != "fact"]
        if not dims:
            dims = [f"dim{i:02d}" for i in range(1, FIRST_LEVEL_DIMS + 1)]
        statements = []
        for number in range(1, count + 1):
            rng = self._rng.derive("dml").derive(f"w{number}")
            shape = (number - 1) % 4
            if shape == 0:
                kind, table_name = DmlKind.DELETE, "fact"
            elif shape == 1:
                kind, table_name = DmlKind.UPDATE, dims[((number - 1) // 4) % len(dims)]
            elif shape == 2:
                kind, table_name = DmlKind.INSERT, "fact"
            else:
                kind, table_name = DmlKind.DELETE, dims[((number - 1) // 2) % len(dims)]
            statements.append(self._build_dml(catalog, rng, number, kind, table_name))
        return statements

    def _build_dml(
        self,
        catalog: Catalog,
        rng: DeterministicRNG,
        number: int,
        kind: DmlKind,
        table_name: str,
    ) -> DmlStatement:
        table = catalog.table(table_name)
        stats = catalog.statistics(table_name)
        attributes = [c.name for c in table.columns if c.name != table.primary_key]
        name = f"W{number}"

        if kind is DmlKind.INSERT:
            columns = tuple(rng.sample(attributes, min(2, len(attributes))))
            rows = tuple(
                tuple(float(rng.randint(1, 1_000_000)) for _ in columns)
                for _ in range(1 + rng.randint(0, 2))
            )
            return DmlStatement(name=name, kind=kind, table=table_name,
                                columns=columns, values=rows)

        filter_column = rng.choice(attributes)
        col_stats = stats.column(filter_column)
        low_bound = col_stats.min_value if col_stats.min_value is not None else 1
        high_bound = col_stats.max_value if col_stats.max_value is not None else stats.row_count
        span = max(1.0, (high_bound - low_bound) * WRITE_SELECTIVITY)
        start = rng.uniform(low_bound, max(low_bound, high_bound - span))
        predicate = Predicate(
            ColumnRef(table_name, filter_column),
            Comparison.BETWEEN,
            float(round(start)),
            float(round(start + span)),
        )
        if kind is DmlKind.DELETE:
            return DmlStatement(name=name, kind=kind, table=table_name,
                                filters=(predicate,))
        set_candidates = [c for c in attributes if c != filter_column] or attributes
        set_column = rng.choice(set_candidates)
        return DmlStatement(
            name=name,
            kind=kind,
            table=table_name,
            columns=(set_column,),
            set_values=(float(rng.randint(1, 1_000_000)),),
            filters=(predicate,),
        )

    def mixed(
        self,
        read_fraction: float = 0.7,
        read_count: int = 10,
        write_count: int = 8,
    ) -> MixedWorkload:
        """A mixed read/write workload at the requested read share.

        The statement set is fixed for a given ``(read_count, write_count)``
        -- only the *weights* move with ``read_fraction``, so sweeping the
        fraction re-tunes over identical plan caches.  Reads keep weight
        1.0; writes share the weight mass that makes their weighted share
        equal ``1 - read_fraction``.  Write traffic rotates over the tables
        the read queries touch, the way a warehouse's refresh jobs churn
        exactly the tables its dashboards read.
        """
        reads = self.queries(read_count)
        read_tables: List[str] = []
        for query in reads:
            for table in query.tables:
                if table not in read_tables:
                    read_tables.append(table)
        writes = self.dml_statements(write_count, tables=read_tables)
        return MixedWorkload.assemble(reads, writes, read_fraction)

    # -- traces ----------------------------------------------------------------------

    def trace(
        self,
        count: int,
        seed: Optional[int] = None,
        phases: Sequence[object] = ("read",),
        skew: float = 1.5,
    ) -> List[str]:
        """``count`` NDJSON trace lines replaying this workload's templates.

        Each entry of ``phases`` is a preset (``"read"``, ``"write"``,
        ``"mixed"``) or an explicit
        :class:`~repro.workloads.trace.TracePhase`; the trace is split
        evenly across phases and each phase samples its template pool under
        a Zipfian popularity law.  Deterministic for a fixed ``(count,
        seed, phases)`` -- the online daemon's tests and benchmark replay
        these streams.
        """
        from repro.workloads.trace import emit_trace, resolve_phases

        return emit_trace(
            resolve_phases(self, phases, skew),
            count,
            seed=seed if seed is not None else self._seed,
        )

    # -- data ----------------------------------------------------------------------

    def database(self, scale: float = 0.0005, seed: Optional[int] = None) -> Database:
        """Materialize a scaled-down instance for executor experiments.

        ``scale`` multiplies every table's statistical row count (the default
        produces a few tens of thousands of fact rows -- enough to exercise
        every operator while keeping the experiments fast).  The catalog's
        statistics are *not* modified; call :meth:`Database.analyze` if the
        optimizer should plan against the scaled-down reality instead.
        """
        generator = DataGenerator(self.catalog(), seed=seed if seed is not None else self._seed)
        return generator.generate(scale=scale)

    # -- reporting -------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Summary numbers used by DESIGN/EXPERIMENTS reporting."""
        catalog = self.catalog()
        return {
            "tables": len(catalog.tables()),
            "dimension_tables": TOTAL_DIMS,
            "database_bytes": catalog.database_size_bytes(),
            "queries": len(self.queries()),
        }
