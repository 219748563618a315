"""A sorted-array stand-in for an on-disk B-tree, used by the executor.

The optimizer only needs index *statistics*; the executor, however, has to
actually produce rows in index order and answer range probes.  A sorted list
of ``(key, heap position)`` pairs with binary search gives the same logical
behaviour as a B-tree without modelling page splits, which is irrelevant for
the experiments (indexes are built once and read many times).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from repro.catalog.index import Index
from repro.storage import pages
from repro.storage.relation import RelationData
from repro.util.errors import ExecutionError

_Key = Tuple[object, ...]


class SortedIndexData:
    """The materialized entries of one index over a :class:`RelationData`."""

    def __init__(self, index: Index, relation: RelationData) -> None:
        if index.table != relation.table.name:
            raise ExecutionError(
                f"index {index.name!r} is on {index.table!r}, not {relation.table.name!r}"
            )
        index.validate_against(relation.table)
        self.index = index
        self.relation = relation
        entries: List[Tuple[_Key, int]] = []
        for position, row in enumerate(relation.rows()):
            key = tuple(row[column] for column in index.columns)
            entries.append((key, position))
        entries.sort(key=lambda entry: entry[0])
        self._entries = entries
        self._keys = [entry[0] for entry in entries]

    @property
    def entry_count(self) -> int:
        """Number of index entries (== table row count)."""
        return len(self._entries)

    @property
    def leaf_pages(self) -> int:
        """Leaf pages under the storage layout model (for I/O accounting)."""
        width = pages.index_tuple_width(
            self.relation.table.column_widths(self.index.columns)
        )
        return pages.btree_leaf_pages(self.entry_count, width)

    def scan_ordered(self) -> Iterator[Tuple[_Key, int]]:
        """Yield ``(key, heap position)`` pairs in key order."""
        for entry in self._entries:
            yield entry

    def positions_equal(self, value: object) -> List[int]:
        """Heap positions of rows whose *leading* column equals ``value``."""
        return self.positions_range(value, value)

    def positions_range(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> List[int]:
        """Heap positions of rows whose leading column lies in the range."""
        leading = [key[0] for key in self._keys]
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(leading, low)
        else:
            start = bisect.bisect_right(leading, low)
        if high is None:
            stop = len(leading)
        elif high_inclusive:
            stop = bisect.bisect_right(leading, high)
        else:
            stop = bisect.bisect_left(leading, high)
        return [self._entries[i][1] for i in range(start, stop)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortedIndexData({self.index.name!r}, entries={self.entry_count})"
