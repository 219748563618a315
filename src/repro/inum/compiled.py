"""The dense per-cache layout the evaluation kernel and the ILP compile from.

The scalar :class:`~repro.inum.cost_estimation.InumCostModel` walks every
cached plan entry and every leaf slot in Python for every evaluation.  The
production kernel (:mod:`repro.inum.arena`) instead digests each cache once
into a dense numeric layout, :class:`_CompiledLayout`:

* one *column* per collected access method (the table's heap or a candidate
  index), holding its full-scan and per-probe costs,
* one *slot class* per distinct ``(table, required_order)`` a slot can ask
  for, with an eligibility-masked (classes x methods) cost matrix -- the
  per-class minimum over the active columns is the cost every slot of that
  class contributes, and
* one row per cache entry with its internal cost and per-class slot weights
  (slot counts for full scans, summed multipliers for nested-loop probes),
  so an entry's total is ``internal + W_full @ class_full + W_probe @
  class_probe`` and the query's cost is the minimum over feasible entries.

The arena stacks these layouts over a whole workload, and everything that
prices an index set -- the selectors, the ILP's bounds -- reads them
through the arena.  This module also holds the two helpers the arena's
backends share: :class:`IndexSetMemo` and :func:`numpy_available`.
:func:`compile_cache` is the single-cache entry point: a one-query arena.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.inum.access_costs import AccessCostInfo
from repro.inum.cache import InumCache
from repro.util.fingerprint import configuration_signature

try:  # numpy is an optional "[perf]" extra; everything degrades without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None

_INF = float("inf")

_T = TypeVar("_T")


def numpy_available() -> bool:
    """Whether the vectorized numpy backend can be used in this process."""
    return _np is not None


class IndexSetMemo:
    """Memoize a per-index-set derived structure, keyed by its signature.

    The greedy search re-evaluates the same index sets (winners plus one
    candidate) against every query, so structures derived from an index set
    -- the per-table grouping of the scalar model, the column mask of the
    arena -- are worth caching.  Keys are
    :func:`~repro.util.fingerprint.configuration_signature`, so equal sets in
    different order (or containing distinct-but-equal ``Index`` objects) hit
    the same entry.  When the memo reaches ``max_entries`` the least recently
    used entry is evicted, so long runs keep their hot winner-set entries
    instead of periodically losing everything.
    """

    def __init__(self, build: Callable[[Sequence], _T], max_entries: int = 8192) -> None:
        self._build = build
        self._max_entries = max_entries
        self._memo: "OrderedDict[tuple, _T]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, indexes: Sequence) -> _T:
        """The derived structure for ``indexes`` (built on first sight)."""
        key = configuration_signature(indexes)
        try:
            value = self._memo[key]
        except KeyError:
            pass
        else:
            self._memo.move_to_end(key)
            return value
        value = self._build(indexes)
        while len(self._memo) >= self._max_entries:
            self._memo.popitem(last=False)
        self._memo[key] = value
        return value


class _CompiledLayout:
    """Backend-independent dense digest of one :class:`InumCache`."""

    def __init__(self, cache: InumCache) -> None:
        cache.validate()
        self.cache = cache
        table = cache.access_costs

        # Columns: every collected access method, heaps first per table.
        self.methods: List[AccessCostInfo] = []
        self.column_of: Dict[Tuple[str, object], int] = {}
        for table_name in table.tables():
            for info in table.entries_for_table(table_name):
                self.column_of[(info.table, info.index_key)] = len(self.methods)
                self.methods.append(info)
        self.heap_columns: List[int] = [
            position for position, info in enumerate(self.methods) if info.index_key is None
        ]

        # Slot classes and per-entry weights.
        self.classes: List[Tuple[str, Optional[str]]] = []
        class_of: Dict[Tuple[str, Optional[str]], int] = {}
        self.internal_costs: List[float] = []
        self.full_weights: List[Dict[int, float]] = []
        self.probe_weights: List[Dict[int, float]] = []
        for entry in cache.entries:
            full_weight: Dict[int, float] = {}
            probe_weight: Dict[int, float] = {}
            for slot in entry.slots:
                key = (slot.table, slot.required_order)
                position = class_of.setdefault(key, len(self.classes))
                if position == len(self.classes):
                    self.classes.append(key)
                if slot.parameterized:
                    probe_weight[position] = probe_weight.get(position, 0.0) + slot.multiplier
                else:
                    full_weight[position] = full_weight.get(position, 0.0) + 1.0
            self.internal_costs.append(entry.internal_cost)
            self.full_weights.append(full_weight)
            self.probe_weights.append(probe_weight)

        # Eligibility-masked (classes x methods) cost matrices.  A method is
        # eligible for a class exactly when the scalar model would consider
        # it: same table and the required order covered.  The scalar walk
        # adds the heap only for order-free slots (regardless of any
        # provided_order its record might carry), so heaps never satisfy an
        # ordered class here either.  Infeasible cells are +inf so minima
        # skip them.
        self.full_costs: List[List[float]] = []
        self.probe_costs: List[List[float]] = []
        for table_name, order in self.classes:
            full_row = [_INF] * len(self.methods)
            probe_row = [_INF] * len(self.methods)
            for position, info in enumerate(self.methods):
                if info.table != table_name:
                    continue
                if info.index_key is None:
                    if order is not None:
                        continue
                elif not info.covers_order(order):
                    continue
                full_row[position] = info.full_cost
                if info.probe_cost is not None:
                    probe_row[position] = info.probe_cost
            self.full_costs.append(full_row)
            self.probe_costs.append(probe_row)


def compile_cache(cache: InumCache, backend: str = "auto") -> "CompiledCostEngine":
    """Compile one cache into a one-query arena (``backend`` as for
    :func:`repro.inum.arena.compile_arena`)."""
    return compile_arena([cache.query], {cache.query.name: cache}, backend=backend)


# benchmarks/e2e/trace.py resolves ``CompiledCostEngine`` on this module; the
# import sits below the layout because arena.py imports it from here.
from repro.inum.arena import WorkloadArena as CompiledCostEngine, compile_arena  # noqa: E402
