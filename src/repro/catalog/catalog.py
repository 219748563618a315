"""The catalog: a registry of tables, statistics and materialized indexes.

The catalog plays the role of PostgreSQL's system catalogs in Figure 2 of the
paper: the access-path collector consults it for table/index statistics.  It
holds only what is materialized.  A what-if configuration never enters it:
the optimizer takes the visible index set as an argument of each call
(:meth:`repro.optimizer.optimizer.Optimizer.optimize`), so an optimizer call
writes nothing here and one catalog can serve concurrent probes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.catalog.index import Index
from repro.catalog.schema import Table, validate_foreign_keys
from repro.catalog.statistics import TableStatistics
from repro.util.errors import CatalogError


class Catalog:
    """In-memory database catalog: tables, statistics and materialized indexes."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._statistics: Dict[str, TableStatistics] = {}
        self._indexes: Dict[str, Index] = {}

    # -- tables -----------------------------------------------------------

    def add_table(self, table: Table, statistics: Optional[TableStatistics] = None) -> None:
        """Register a table (and optionally its statistics)."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} is already registered")
        self._tables[table.name] = table
        if statistics is not None:
            self.set_statistics(table.name, statistics)

    def has_table(self, name: str) -> bool:
        """Whether a table called ``name`` is registered."""
        return name in self._tables

    def table(self, name: str) -> Table:
        """Look up a table, raising :class:`CatalogError` if unknown."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def tables(self) -> List[Table]:
        """All registered tables in registration order."""
        return list(self._tables.values())

    def validate(self) -> None:
        """Check referential integrity of the registered schema."""
        diagnostics = validate_foreign_keys(self._tables)
        if not diagnostics.ok:
            problems = diagnostics.missing_tables + diagnostics.missing_columns
            raise CatalogError("invalid schema: " + "; ".join(problems))

    # -- statistics -------------------------------------------------------

    def set_statistics(self, table_name: str, statistics: TableStatistics) -> None:
        """Attach statistics to a registered table."""
        table = self.table(table_name)
        if statistics.table.name != table.name:
            raise CatalogError(
                f"statistics are for {statistics.table.name!r}, not {table_name!r}"
            )
        self._statistics[table_name] = statistics

    def statistics(self, table_name: str) -> TableStatistics:
        """Statistics for ``table_name`` (raises if never set)."""
        self.table(table_name)
        try:
            return self._statistics[table_name]
        except KeyError:
            raise CatalogError(f"no statistics collected for table {table_name!r}") from None

    def has_statistics(self, table_name: str) -> bool:
        """Whether statistics have been collected for ``table_name``."""
        return table_name in self._statistics

    # -- indexes ----------------------------------------------------------

    def validate_index(self, index: Index) -> None:
        """Raise :class:`CatalogError` unless ``index``'s table and columns exist."""
        index.validate_against(self.table(index.table))

    def add_index(self, index: Index) -> Index:
        """Register a permanent index (validated against its table)."""
        self.validate_index(index)
        if index.name in self._indexes:
            raise CatalogError(f"index {index.name!r} is already registered")
        self._indexes[index.name] = index
        return index

    def index(self, name: str) -> Index:
        """Look up a permanent index by name."""
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def all_indexes(self) -> List[Index]:
        """Every materialized index (those added with :meth:`add_index`)."""
        return list(self._indexes.values())

    # -- sizes ------------------------------------------------------------

    def index_size_bytes(self, index: Index) -> int:
        """Size of ``index`` in bytes given the current statistics."""
        return index.size_in_bytes(self.statistics(index.table))

    def database_size_bytes(self, include_indexes: bool = False) -> int:
        """Total heap size (optionally including permanent indexes)."""
        total = sum(self.statistics(t.name).heap_bytes for t in self.tables()
                    if self.has_statistics(t.name))
        if include_indexes:
            total += sum(self.index_size_bytes(index) for index in self._indexes.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Catalog({self.name!r}, tables={len(self._tables)}, "
            f"indexes={len(self._indexes)})"
        )
