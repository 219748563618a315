"""The optimizer's cost model.

Costs are expressed in PostgreSQL's abstract units where reading one page
sequentially costs ``seq_page_cost = 1.0``.  The formulas follow the same
structure as PostgreSQL's ``costsize.c`` (sequential/index scans, sorts,
hash/merge/nested-loop joins, aggregation) but are simplified where the
simplification does not change the trade-offs the paper relies on:

* index scans get cheaper as the predicate selectivity drops and when the
  index covers all referenced columns (index-only access),
* nested-loop joins with a parameterized inner index probe are attractive
  when access costs are low and degrade as they grow (Section V-D), and
* merge joins avoid sorts when the input already provides the join order,
  which is what makes interesting orders matter in the first place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.errors import PlanningError


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model (PostgreSQL defaults)."""

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    #: work_mem expressed in 8 KiB pages (1024 pages = 8 MiB); sorts larger
    #: than this spill to disk and pay extra I/O.
    work_mem_pages: int = 1024
    page_size: int = 8192

    def __post_init__(self) -> None:
        for name in ("seq_page_cost", "random_page_cost", "cpu_tuple_cost",
                     "cpu_index_tuple_cost", "cpu_operator_cost"):
            if getattr(self, name) < 0:
                raise PlanningError(f"cost parameter {name} must be non-negative")
        if self.work_mem_pages <= 0:
            raise PlanningError("work_mem_pages must be positive")


class CostModel:
    """Cost formulas for every operator the planner can emit."""

    def __init__(self, params: CostParameters = CostParameters()) -> None:
        self.params = params

    # -- scans ---------------------------------------------------------------

    def seq_scan(self, heap_pages: int, rows: float, filter_clauses: int = 0) -> float:
        """Full sequential scan of a heap, applying ``filter_clauses`` predicates."""
        p = self.params
        io = heap_pages * p.seq_page_cost
        cpu = rows * (p.cpu_tuple_cost + filter_clauses * p.cpu_operator_cost)
        return io + cpu

    def index_scan(
        self,
        leaf_pages: int,
        heap_pages: int,
        table_rows: float,
        selectivity: float,
        correlation: float = 0.0,
        covering: bool = False,
        filter_clauses: int = 0,
    ) -> float:
        """Index scan fetching ``selectivity`` of the table through a B-tree.

        ``covering`` means every referenced column is in the index, so heap
        fetches are skipped entirely (index-only scan).  ``correlation``
        blends sequential and random heap I/O exactly like PostgreSQL's
        interpolation between the perfectly clustered and uncorrelated cases.
        """
        p = self.params
        selectivity = min(1.0, max(0.0, selectivity))
        tuples_fetched = table_rows * selectivity
        # Descend the tree once, then walk the qualifying leaf pages.
        leaf_pages_fetched = max(1.0, leaf_pages * selectivity)
        index_io = p.random_page_cost + max(0.0, leaf_pages_fetched - 1.0) * p.seq_page_cost
        index_cpu = tuples_fetched * p.cpu_index_tuple_cost
        heap_io = 0.0
        if not covering and tuples_fetched > 0:
            clustered_pages = max(1.0, heap_pages * selectivity)
            scattered_pages = min(float(heap_pages), tuples_fetched)
            blend = abs(correlation)
            pages_fetched = blend * clustered_pages + (1.0 - blend) * scattered_pages
            page_cost = blend * p.seq_page_cost + (1.0 - blend) * p.random_page_cost
            heap_io = pages_fetched * page_cost
        cpu = tuples_fetched * (p.cpu_tuple_cost + filter_clauses * p.cpu_operator_cost)
        return index_io + index_cpu + heap_io + cpu

    def index_probe(
        self,
        leaf_pages: int,
        table_rows: float,
        rows_per_probe: float,
        covering: bool = False,
    ) -> float:
        """One parameterized probe of an index (the inner side of a nested loop).

        The probe descends the B-tree (a handful of random pages regardless
        of index size -- modelled as two random page reads plus a slowly
        growing term in the leaf page count) and fetches the matching rows.
        """
        p = self.params
        descent = 2.0 * p.random_page_cost + math.log2(max(2.0, leaf_pages)) * p.cpu_operator_cost * 50
        rows_per_probe = max(0.0, rows_per_probe)
        index_cpu = rows_per_probe * p.cpu_index_tuple_cost
        heap_io = 0.0 if covering else min(rows_per_probe, table_rows) * p.random_page_cost
        cpu = rows_per_probe * p.cpu_tuple_cost
        return descent + index_cpu + heap_io + cpu

    # -- sorts and aggregation ----------------------------------------------

    def sort(self, input_cost: float, rows: float, row_width: int) -> float:
        """Sort ``rows`` tuples of ``row_width`` bytes produced at ``input_cost``."""
        p = self.params
        rows = max(1.0, rows)
        cpu = 2.0 * p.cpu_operator_cost * rows * math.log2(max(2.0, rows))
        data_pages = math.ceil(rows * max(1, row_width) / p.page_size)
        io = 0.0
        if data_pages > p.work_mem_pages:
            # External merge sort: write and read every page once.
            io = 2.0 * data_pages * p.seq_page_cost
        return input_cost + cpu + io

    def aggregate_hashed(
        self,
        input_cost: float,
        input_rows: float,
        output_groups: float,
        num_group_columns: int,
        num_aggregates: int,
    ) -> float:
        """Hash aggregation over an unsorted input."""
        p = self.params
        per_row = (num_group_columns + num_aggregates + 1) * p.cpu_operator_cost
        return input_cost + input_rows * per_row + output_groups * p.cpu_tuple_cost

    def aggregate_sorted(
        self,
        input_cost: float,
        input_rows: float,
        output_groups: float,
        num_group_columns: int,
        num_aggregates: int,
    ) -> float:
        """Group aggregation over an input already sorted on the grouping keys."""
        p = self.params
        per_row = (num_group_columns + num_aggregates) * p.cpu_operator_cost
        return input_cost + input_rows * per_row + output_groups * p.cpu_tuple_cost

    # -- joins ----------------------------------------------------------------

    def hash_join(
        self,
        outer_cost: float,
        inner_cost: float,
        outer_rows: float,
        inner_rows: float,
        output_rows: float,
    ) -> float:
        """Hash join: build a hash table on the inner input, probe with the outer."""
        p = self.params
        build = inner_rows * (p.cpu_operator_cost * 2.0 + p.cpu_tuple_cost * 0.5)
        probe = outer_rows * p.cpu_operator_cost * 2.0
        inner_pages = inner_rows * p.cpu_tuple_cost  # hash table residency proxy
        emit = output_rows * p.cpu_tuple_cost
        return outer_cost + inner_cost + build + probe + inner_pages * 0.0 + emit

    def merge_join(
        self,
        outer_cost_sorted: float,
        inner_cost_sorted: float,
        outer_rows: float,
        inner_rows: float,
        output_rows: float,
    ) -> float:
        """Merge join of two inputs already sorted on the join keys.

        Callers add explicit sort costs (via :meth:`sort`) when an input does
        not provide the join order; that separation is what makes interesting
        orders valuable.
        """
        p = self.params
        merge_cpu = (outer_rows + inner_rows) * p.cpu_operator_cost
        emit = output_rows * p.cpu_tuple_cost
        return outer_cost_sorted + inner_cost_sorted + merge_cpu + emit

    def nested_loop_join(
        self,
        outer_cost: float,
        outer_rows: float,
        inner_rescan_cost: float,
        output_rows: float,
        nestloop_penalty: float = 0.0,
    ) -> float:
        """Nested-loop join re-running the inner path once per outer row.

        ``nestloop_penalty`` models PostgreSQL's ``enable_nestloop = off``
        behaviour of adding a very large constant; PINUM instead removes
        nested loops outright (Section V-B), which the join planner handles
        before ever calling this function.
        """
        p = self.params
        inner_total = max(0.0, outer_rows) * max(0.0, inner_rescan_cost)
        emit = output_rows * p.cpu_tuple_cost
        return outer_cost + inner_total + emit + nestloop_penalty
