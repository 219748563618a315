"""Plan-cache builders by name, one-cache construction, and the build report.

The per-query builders (:class:`~repro.inum.cache_builder.InumCacheBuilder`,
:class:`~repro.pinum.cache_builder.PinumCacheBuilder`) answer "how cheaply
can *one* cache be filled?".  :func:`build_one_cache` is the one place a
builder is constructed and run.  It has two callers:

* :meth:`repro.api.tier.PlanCachePool.acquire`, the lookup chain every
  session request (and through it the CLI) goes through -- identical SQL
  earlier in the call, session pool, shared tier, persistent store, then a
  build -- and
* :meth:`repro.advisor.benefit.CacheBackedWorkloadCostModel.build`, the
  standalone helper for tests and benchmarks.

Where each statement's cache came from is a :class:`QueryBuildOutcome`; a
:class:`WorkloadBuildReport` merges them into the workload-level accounting
the session, the CLI and the benchmarks report, and a
:class:`WorkloadBuildResult` pairs it with the caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.catalog.index import Index
from repro.inum.cache import CacheBuildStatistics, InumCache
from repro.inum.cache_builder import InumCacheBuilder
from repro.inum.dml import build_statement_cache
from repro.inum.serialization import cache_from_dict, cache_to_dict
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache
from repro.pinum.cache_builder import PinumCacheBuilder
from repro.query.ast import DmlStatement, Query, Statement
from repro.util.errors import ReproError, validate_name


#: Per-query plan-cache builders by name: classes constructed (only by
#: :func:`build_one_cache`) as ``builder(optimizer, options=None,
#: call_cache=None)`` with a ``build_cache(query, candidate_indexes)``
#: method.  A plain dict: a new builder is one assignment away.
CACHE_BUILDERS = {"pinum": PinumCacheBuilder, "inum": InumCacheBuilder}


@dataclass
class QueryBuildOutcome:
    """How one query's cache was obtained."""

    query_name: str
    builder: str
    #: ``"deduplicated"`` (its cache key was loaded or built earlier in the
    #: same call, by ``deduped_from``), ``"reused"`` (session pool),
    #: ``"shared"`` (the shared tier), ``"from_store"`` (the persistent
    #: cache store) or ``"built"`` (fresh optimizer work).
    source: str
    stats: CacheBuildStatistics
    deduped_from: Optional[str] = None


@dataclass
class WorkloadBuildReport:
    """Workload-level merge of the per-query build statistics."""

    builder: str
    outcomes: List[QueryBuildOutcome] = field(default_factory=list)
    #: Wall-clock seconds of the whole acquisition, store lookups included.
    wall_seconds: float = 0.0

    def outcome_for(self, query_name: str) -> Optional[QueryBuildOutcome]:
        """The outcome recorded for ``query_name`` (if any)."""
        for outcome in self.outcomes:
            if outcome.query_name == query_name:
                return outcome
        return None

    def _built(self) -> List[QueryBuildOutcome]:
        return [outcome for outcome in self.outcomes if outcome.source == "built"]

    def count(self, source: str) -> int:
        """How many queries' caches came from ``source``."""
        return sum(1 for outcome in self.outcomes if outcome.source == source)

    @property
    def queries_total(self) -> int:
        """Number of queries in the workload."""
        return len(self.outcomes)

    @property
    def queries_built(self) -> int:
        """Queries whose cache was freshly constructed this run."""
        return self.count("built")

    @property
    def queries_from_store(self) -> int:
        """Queries answered from the persistent cache store."""
        return self.count("from_store")

    @property
    def queries_deduplicated(self) -> int:
        """Queries sharing an identical-SQL sibling's cache."""
        return self.count("deduplicated")

    @property
    def optimizer_calls(self) -> int:
        """Optimizer calls actually spent this run (fresh builds only)."""
        return sum(outcome.stats.optimizer_calls_total for outcome in self._built())

    @property
    def build_seconds(self) -> float:
        """Summed per-query build seconds of the fresh builds."""
        return sum(outcome.stats.seconds_total for outcome in self._built())

    @property
    def whatif_cache_hits(self) -> int:
        """What-if probes answered from the memoization layer this run."""
        return sum(outcome.stats.whatif_cache_hits for outcome in self._built())

    @property
    def whatif_hit_rate(self) -> float:
        """Fraction of the fresh builds' what-if probes answered from memory."""
        probes = self.whatif_cache_hits + self.optimizer_calls
        return self.whatif_cache_hits / probes if probes else 0.0


@dataclass
class WorkloadBuildResult:
    """Caches for every workload query plus the build report."""

    caches: Dict[str, InumCache]
    report: WorkloadBuildReport

    def cache_for(self, query: Query) -> InumCache:
        """The cache built for ``query`` (by name)."""
        try:
            return self.caches[query.name]
        except KeyError:
            raise ReproError(f"no cache was built for query {query.name!r}") from None


def build_one_cache(
    optimizer: Optimizer,
    call_cache: Optional[WhatIfCallCache],
    builder: str,
    statement: Statement,
    candidates: Optional[Sequence[Index]],
) -> InumCache:
    """Build one statement's cache with the :data:`CACHE_BUILDERS` ``builder``.

    The builder runs with its default options; ``call_cache`` (``None``:
    un-memoised probes) answers repeated what-if probes from memory, and
    ``candidates`` (``None``: the builder's default probe indexes) are the
    indexes whose access costs the cache collects.  DML statements build
    their *shadow* query through the same builder and carry a maintenance
    profile on top (:mod:`repro.inum.dml`).  An unknown ``builder`` raises,
    listing the known names.
    """
    validate_name("cache builder", builder, CACHE_BUILDERS)
    per_query = CACHE_BUILDERS[builder](optimizer, None, call_cache=call_cache)
    if isinstance(statement, DmlStatement):
        return build_statement_cache(
            statement,
            candidates,
            optimizer.catalog,
            per_query.build_cache,
            whatif=call_cache,
        )
    return per_query.build_cache(statement, candidates)


def rename_cache(cache: InumCache, query: Query) -> InumCache:
    """A copy of ``cache`` re-attached to ``query`` (identical SQL, other name).

    Used by the lookup chain when a pooled, shared or deduplicated cache is
    handed out under a different query name.
    """
    payload = cache_to_dict(cache)
    payload["query_name"] = query.name
    return cache_from_dict(payload, query)
