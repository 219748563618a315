"""Logical schema objects: column types, columns, foreign keys and tables.

The paper's synthetic workload uses numeric columns uniformly distributed
over positive integers; the type system is nevertheless general enough to
describe a TPC-H-like schema (integers, floats, fixed-width text, dates) so
the motivation experiment of Section IV can be reproduced as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.errors import CatalogError


class ColumnType(enum.Enum):
    """Supported column types with their storage width and alignment."""

    INTEGER = ("integer", 4, 4)
    BIGINT = ("bigint", 8, 8)
    FLOAT = ("float", 8, 8)
    DATE = ("date", 4, 4)
    #: Fixed-width text; the width below is a default that :class:`Column`
    #: may override via ``width``.
    TEXT = ("text", 32, 1)

    def __init__(self, label: str, width: int, alignment: int) -> None:
        self.label = label
        self.default_width = width
        self.alignment = alignment

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnType.{self.name}"


@dataclass(frozen=True)
class Column:
    """A named, typed column of a table.

    ``width`` overrides the type's default storage width, which matters for
    text columns (the paper's dimension tables have narrow numeric columns,
    TPC-H-like tables have wider text attributes).
    """

    name: str
    ctype: ColumnType = ColumnType.INTEGER
    width: Optional[int] = None
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("column name must be non-empty")
        if self.width is not None and self.width <= 0:
            raise CatalogError(f"column {self.name!r}: width must be positive")

    @property
    def storage_width(self) -> int:
        """Bytes this column occupies inside a tuple (before alignment)."""
        return self.width if self.width is not None else self.ctype.default_width

    @property
    def alignment(self) -> int:
        """Alignment requirement in bytes."""
        return self.ctype.alignment


@dataclass(frozen=True)
class ForeignKey:
    """A single-column foreign key ``column -> ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str

    def __post_init__(self) -> None:
        if not self.column or not self.ref_table or not self.ref_column:
            raise CatalogError("foreign key fields must be non-empty")


class Table:
    """A table definition: ordered columns, optional primary key and FKs."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[str] = None,
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> None:
        if not name:
            raise CatalogError("table name must be non-empty")
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._columns_by_name: Dict[str, Column] = {}
        for column in self.columns:
            if column.name in self._columns_by_name:
                raise CatalogError(f"table {name!r}: duplicate column {column.name!r}")
            self._columns_by_name[column.name] = column
        if primary_key is not None and primary_key not in self._columns_by_name:
            raise CatalogError(f"table {name!r}: unknown primary key column {primary_key!r}")
        self.primary_key = primary_key
        self.foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self.foreign_keys:
            if fk.column not in self._columns_by_name:
                raise CatalogError(
                    f"table {name!r}: foreign key on unknown column {fk.column!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {len(self.columns)} columns)"

    @property
    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        """Whether a column called ``name`` exists."""
        return name in self._columns_by_name

    def column(self, name: str) -> Column:
        """Look up a column by name, raising :class:`CatalogError` if absent."""
        try:
            return self._columns_by_name[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from None

    def column_widths(self, names: Optional[Sequence[str]] = None) -> List[Tuple[int, int]]:
        """``(width, alignment)`` pairs for ``names`` (default: all columns).

        This is the input format expected by :mod:`repro.storage.pages`.
        """
        selected = self.columns if names is None else [self.column(n) for n in names]
        return [(column.storage_width, column.alignment) for column in selected]


@dataclass
class SchemaDiagnostics:
    """Result of validating a set of tables against each other."""

    missing_tables: List[str] = field(default_factory=list)
    missing_columns: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing_tables and not self.missing_columns


def validate_foreign_keys(tables: Dict[str, Table]) -> SchemaDiagnostics:
    """Check that every foreign key points at an existing table and column."""
    diagnostics = SchemaDiagnostics()
    for table in tables.values():
        for fk in table.foreign_keys:
            target = tables.get(fk.ref_table)
            if target is None:
                diagnostics.missing_tables.append(f"{table.name}.{fk.column} -> {fk.ref_table}")
            elif not target.has_column(fk.ref_column):
                diagnostics.missing_columns.append(
                    f"{table.name}.{fk.column} -> {fk.ref_table}.{fk.ref_column}"
                )
    return diagnostics
