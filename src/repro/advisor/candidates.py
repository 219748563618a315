"""Candidate index generation.

The paper's tool "first statically analyses the queries to find a large set
of candidate indexes"; the large candidate set is cited as the main reason
the simple greedy algorithm beats more sophisticated commercial designers.
The generator below produces, per query and per table:

* a single-column index on every referenced column,
* two-column indexes pairing each interesting order with each other
  referenced column,
* a covering index per interesting order (the order first, then every other
  referenced column), and
* a covering index led by each filtered column.

Candidates are de-duplicated structurally across the workload.  For the
paper's ten-query synthetic workload this yields on the order of a thousand
candidates (1093 in the paper's run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.optimizer.interesting_orders import interesting_orders_for
from repro.optimizer.maintenance import MaintenanceProfile
from repro.query.ast import DmlStatement, Query, Statement

#: Default cap on the candidate set used by the CLI's ``recommend`` and
#: ``cache-workload`` subcommands.  One shared constant on purpose: the
#: persistent cache store fingerprints each cache by its candidate set, so
#: the two commands only share store entries when they truncate identically.
DEFAULT_MAX_CANDIDATES = 120


class CandidateGenerator:
    """Derive candidate what-if indexes from the workload's query text."""

    def __init__(self, catalog: Catalog, max_index_columns: int = 8) -> None:
        self._catalog = catalog
        self._max_index_columns = max_index_columns

    def for_query(self, query: Statement) -> List[Index]:
        """Candidate indexes useful for a single statement.

        A DML statement contributes the candidates of its *shadow* query --
        indexes that speed up locating the rows an UPDATE/DELETE touches.
        (Whether they survive their own maintenance cost is the selector's
        call, not the generator's.)  INSERT contributes nothing.
        """
        if isinstance(query, DmlStatement):
            shadow = query.shadow_query()
            return [] if shadow is None else self.for_query(shadow)
        candidates: Dict[tuple, Index] = {}
        for table in query.tables:
            referenced = query.columns_of(table)
            if not referenced:
                continue
            orders = interesting_orders_for(query, table)
            filtered = [p.column.column for p in query.filters_on(table)]

            for column in referenced:
                self._register(candidates, table, [column])

            for order in orders:
                for column in referenced:
                    if column != order:
                        self._register(candidates, table, [order, column])
                covering = [order] + [c for c in referenced if c != order]
                self._register(candidates, table, covering)

            for column in filtered:
                covering = [column] + [c for c in referenced if c != column]
                self._register(candidates, table, covering)
        return list(candidates.values())

    def for_workload(self, queries: Sequence[Query]) -> List[Index]:
        """Structurally de-duplicated candidates for the whole workload."""
        candidates: Dict[tuple, Index] = {}
        for query in queries:
            for index in self.for_query(query):
                candidates.setdefault(index.key, index)
        return list(candidates.values())

    # -- internals --------------------------------------------------------------

    def _register(self, candidates: Dict[tuple, Index], table: str,
                  columns: Iterable[str]) -> None:
        columns = list(columns)[: self._max_index_columns]
        if not columns:
            return
        index = Index(table=table, columns=columns, hypothetical=True)
        index.validate_against(self._catalog.table(table))
        candidates.setdefault(index.key, index)


def prune_write_dominated(
    candidates: Sequence[Index],
    statements: Sequence[Statement],
    weights: Mapping[str, float],
    baseline_costs: Mapping[str, float],
    profiles: Mapping[str, MaintenanceProfile],
) -> Tuple[List[Index], int]:
    """Drop candidates whose maintenance cost dominates any possible benefit.

    A candidate index can never save more than the entire weighted baseline
    cost of the statements reading its table; if the weighted maintenance it
    would be charged meets or exceeds that bound, the greedy search could
    never pick it -- its net benefit is provably <= 0 -- so it is pruned
    before selection instead of being re-evaluated every iteration.  The
    bound is deliberately loose (sound): pruning never changes the selected
    set, only the work spent rejecting hopeless candidates.

    ``baseline_costs`` are per-execution statement costs under *no* indexes
    (the advisor computes them anyway); ``profiles`` maps each DML
    statement's name to its maintenance profile.  Pure-read workloads have
    no profiles, charge nothing and prune nothing.
    """
    benefit_bound: Dict[str, float] = {}
    charge_rates: List[Tuple[float, MaintenanceProfile]] = []
    for statement in statements:
        weight = weights.get(statement.name, 1.0)
        for table in statement.tables:
            benefit_bound[table] = benefit_bound.get(table, 0.0) + (
                weight * baseline_costs.get(statement.name, 0.0)
            )
        profile = profiles.get(statement.name)
        if profile is not None and isinstance(statement, DmlStatement):
            charge_rates.append((weight, profile))

    kept: List[Index] = []
    pruned = 0
    for candidate in candidates:
        charge = sum(
            weight * profile.per_index.get(candidate.key, 0.0)
            for weight, profile in charge_rates
        )
        if charge > 0.0 and charge >= benefit_bound.get(candidate.table, 0.0):
            pruned += 1
        else:
            kept.append(candidate)
    return kept, pruned


# -- candidate policies ------------------------------------------------------------


@dataclass
class CandidatePlan:
    """What one recommend call selects over and what each cache must cover."""

    #: The candidate set the greedy search runs over, in generation order.
    pool: List[Index]
    #: Per query (by name), the candidates its plan cache collects access
    #: costs for -- the cache's fingerprint identity.
    per_query: Dict[str, List[Index]]


def pooled_candidate_plan(
    pool: Sequence[Index],
    queries: Sequence[Query],
    max_candidates: Optional[int],
) -> CandidatePlan:
    """One candidate pool for the whole workload (generated or caller-supplied).

    Each query's cache covers the pool members touching its tables, so
    ``recommend``, ``repro cache-workload`` and an explicit-candidates
    request over the same pool share pool, tier and store keys.
    """
    pool = list(pool if max_candidates is None else pool[:max_candidates])
    per_query = {
        query.name: [index for index in pool if index.table in query.tables]
        for query in queries
    }
    return CandidatePlan(pool=pool, per_query=per_query)


def workload_candidate_policy(
    generator: CandidateGenerator,
    queries: Sequence[Query],
    max_candidates: Optional[int],
) -> CandidatePlan:
    """The one-shot advisor's policy: one workload-wide candidate pool."""
    return pooled_candidate_plan(generator.for_workload(queries), queries, max_candidates)


def per_query_candidate_policy(
    generator: CandidateGenerator,
    queries: Sequence[Query],
    max_candidates: Optional[int],
) -> CandidatePlan:
    """The delta-friendly policy: each query's cache covers its own candidates.

    A query's candidate set depends only on the query itself, so workload
    mutations leave every other query's cache key untouched and re-tuning
    builds exactly the delta.  The selection pool is the deduplicated union
    in workload order (truncation applies to the pool only, never to the
    per-query sets, so cache keys stay stable under ``max_candidates``).

    DML statements participate like everything else: their cache identity
    is their *shadow* query's own candidates, so workload mutations never
    churn warm DML caches.  Their maintenance profile -- which must cover
    every pool candidate on their table, not just their own -- is cheap
    catalog arithmetic and is recomputed per recommend outside the cache
    key (see ``TuningSession._cost_model``).
    """
    per_query = {query.name: generator.for_query(query) for query in queries}
    pool: List[Index] = []
    seen = set()
    for query in queries:
        for index in per_query[query.name]:
            if index.key not in seen:
                seen.add(index.key)
                pool.append(index)
    if max_candidates is not None:
        pool = pool[:max_candidates]
    return CandidatePlan(pool=pool, per_query=per_query)
