"""Typed request/response messages of the :class:`~repro.api.session.TuningSession`.

The one-shot advisor passed behaviour around as keyword arguments; the
session API talks in small dataclasses instead, which gives every operation
a stable, documented surface and a JSON form the ``repro serve`` frontend
can speak over stdin/stdout.

Requests follow one convention: a field left at its default means *use the
session's configured value*.  ``RecommendRequest.max_candidates`` uses the
:data:`UNSET` sentinel because ``None`` is itself meaningful there (no cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.advisor.advisor import UNSET, _Unset, validate_tuning_limits
from repro.catalog.index import Index
from repro.util.errors import AdvisorError


def index_to_dict(index: Index) -> Dict[str, Any]:
    """JSON form of one index: table, columns and the identity flags."""
    return {
        "table": index.table,
        "columns": list(index.columns),
        "hypothetical": index.hypothetical,
        "unique": index.unique,
    }


def index_from_dict(payload: Dict[str, Any]) -> Index:
    """Rebuild an :class:`Index` from :func:`index_to_dict`'s output."""
    try:
        table = payload["table"]
        columns = list(payload["columns"])
    except (TypeError, KeyError) as error:
        raise AdvisorError(
            f"an index must be given as {{'table': ..., 'columns': [...]}}, got {payload!r}"
        ) from error
    return Index(
        table=table,
        columns=columns,
        hypothetical=bool(payload.get("hypothetical", True)),
        unique=bool(payload.get("unique", False)),
    )


def _indexes_from_payload(payload: Dict[str, Any]) -> List[Index]:
    raw = payload.get("indexes")
    if not isinstance(raw, list):
        raise AdvisorError("the request needs an 'indexes' list")
    return [index_from_dict(entry) for entry in raw]


# -- requests ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecommendRequest:
    """One tuning request: recommend an index set for the session workload.

    Every field defaults to "inherit from the session's options"; a request
    therefore only names what it wants to change for this call (a different
    budget, a different selector, ...).  ``candidates`` bypasses candidate
    generation entirely with an explicit index list.
    """

    space_budget_bytes: Optional[int] = None
    cost_model: Optional[str] = None
    selector: Optional[str] = None
    engine: Optional[str] = None
    candidate_policy: Optional[str] = None
    max_candidates: Union[int, None, _Unset] = UNSET
    min_relative_benefit: Optional[float] = None
    candidates: Optional[Sequence[Index]] = None
    #: Per-statement execution-frequency overrides for this call, merged
    #: over the session's weights (mixed read/write workloads).
    statement_weights: Optional[Dict[str, float]] = None
    #: ``"ilp"``-selector overrides: target relative gap (0 = prove
    #: optimality) and wall-clock budget in seconds.  ``ilp_time_limit``
    #: uses the UNSET sentinel because ``None`` is meaningful (no limit).
    ilp_gap: Optional[float] = None
    ilp_time_limit: Union[float, None, _Unset] = UNSET
    #: Tune a template-compressed view of the workload for this call
    #: (``None`` = inherit ``AdvisorOptions.compress``).
    compress: Optional[bool] = None
    #: Record a span trace of this call and return it on the response
    #: (``trace`` field / JSON key).  Off by default: an untraced recommend
    #: pays no tracing overhead at all.
    trace: bool = False

    def __post_init__(self) -> None:
        # Same validation AdvisorOptions applies, before any session work.
        # None means "inherit" for budget/gap/benefit threshold, so only real
        # values are checked; ilp_time_limit and max_candidates speak UNSET
        # natively (None = no limit).
        validate_tuning_limits(
            space_budget_bytes=(
                UNSET if self.space_budget_bytes is None else self.space_budget_bytes
            ),
            ilp_gap=UNSET if self.ilp_gap is None else self.ilp_gap,
            ilp_time_limit=self.ilp_time_limit,
            max_candidates=self.max_candidates,
            min_relative_benefit=(
                UNSET if self.min_relative_benefit is None else self.min_relative_benefit
            ),
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RecommendRequest":
        """Build a request from its JSON form (unknown keys rejected)."""
        known = {
            "space_budget_bytes", "cost_model", "selector", "engine",
            "candidate_policy", "max_candidates", "min_relative_benefit",
            "candidates", "statement_weights", "ilp_gap", "ilp_time_limit",
            "compress", "trace",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise AdvisorError(f"unknown recommend parameters: {', '.join(unknown)}")
        kwargs: Dict[str, Any] = {
            key: payload[key] for key in known if key in payload and key != "candidates"
        }
        if "candidates" in payload:
            kwargs["candidates"] = [index_from_dict(entry) for entry in payload["candidates"]]
        weights = kwargs.get("statement_weights")
        if weights is not None and not isinstance(weights, dict):
            raise AdvisorError(
                "'statement_weights' must be an object mapping statement names "
                "to numeric weights"
            )
        compress = kwargs.get("compress")
        if compress is not None and not isinstance(compress, bool):
            raise AdvisorError(f"'compress' must be a boolean, got {compress!r}")
        trace = kwargs.get("trace")
        if trace is not None and not isinstance(trace, bool):
            raise AdvisorError(f"'trace' must be a boolean, got {trace!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class EvaluateRequest:
    """Evaluate the session workload's cost under a hypothetical index set.

    Answered from the session's warm plan caches (cache-backed cost models)
    -- no optimizer calls once the caches exist.
    """

    indexes: Sequence[Index] = ()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EvaluateRequest":
        return cls(indexes=_indexes_from_payload(payload))


@dataclass(frozen=True)
class WhatIfRequest:
    """Ask the *optimizer* (not the caches) what the workload would cost.

    The exact what-if oracle: one optimizer probe per query, memoized in the
    session's what-if call cache so repeated questions are free.
    """

    indexes: Sequence[Index] = ()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WhatIfRequest":
        return cls(indexes=_indexes_from_payload(payload))


@dataclass(frozen=True)
class ExplainRequest:
    """Optimize one query and return its plan.

    ``query`` names a query of the session workload; ``sql`` plans an ad-hoc
    statement instead.  Exactly one of the two must be given.
    """

    query: Optional[str] = None
    sql: Optional[str] = None
    disable_nestloop: bool = False

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplainRequest":
        return cls(
            query=payload.get("query"),
            sql=payload.get("sql"),
            disable_nestloop=bool(payload.get("disable_nestloop", False)),
        )


# -- responses ---------------------------------------------------------------------


@dataclass
class RecommendResponse:
    """Outcome of one :meth:`TuningSession.recommend` call.

    ``result`` is the full :class:`~repro.advisor.advisor.AdvisorResult`
    (selected indexes, per-query costs, selection steps); the counters next
    to it say how much of the request was answered from session-warm state:
    ``caches_built`` per-query caches cost fresh optimizer work this call,
    ``caches_from_store`` came from the persistent store,
    ``caches_reused`` were already warm in the session, and
    ``caches_shared`` were adopted from the process-wide
    :class:`~repro.api.tier.SharedCacheTier` (another session's build).
    """

    result: Any
    candidate_policy: str
    caches_built: int = 0
    caches_from_store: int = 0
    caches_deduplicated: int = 0
    caches_reused: int = 0
    caches_shared: int = 0
    #: Workload-compression summary (statements, templates, ratio,
    #: total_weight, lossless) when the call tuned a compressed view;
    #: ``None`` for an uncompressed recommend.
    compression: Optional[Dict[str, Any]] = None
    #: The call's span tree (:meth:`repro.obs.trace.Span.to_dict`) when the
    #: request asked for ``trace=True``; ``None`` otherwise.  The JSON form
    #: only carries a ``trace`` key when one was recorded.
    trace: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (the ``repro serve`` wire format)."""
        result = self.result
        payload = {
            "selected_indexes": [index_to_dict(index) for index in result.selected_indexes],
            "candidate_count": result.candidate_count,
            "workload_cost_before": result.workload_cost_before,
            "workload_cost_after": result.workload_cost_after,
            "improvement_fraction": result.improvement_fraction,
            "total_index_bytes": result.total_index_bytes,
            "per_query_cost_before": dict(result.per_query_cost_before),
            "per_query_cost_after": dict(result.per_query_cost_after),
            "selector": result.selector,
            "engine": result.engine,
            "candidate_policy": self.candidate_policy,
            "preparation_optimizer_calls": result.preparation_optimizer_calls,
            "selection_candidate_evaluations": result.selection_candidate_evaluations,
            "candidates_pruned_for_writes": result.candidates_pruned_for_writes,
            "optimality_gap": result.optimality_gap,
            "nodes_explored": result.nodes_explored,
            "incumbent_source": result.incumbent_source,
            "compression": self.compression,
            "session": {
                "caches_built": self.caches_built,
                "caches_from_store": self.caches_from_store,
                "caches_deduplicated": self.caches_deduplicated,
                "caches_reused": self.caches_reused,
                "caches_shared": self.caches_shared,
            },
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload


@dataclass
class EvaluateResponse:
    """Workload cost under one hypothetical index set."""

    total_cost: float
    per_query_costs: Dict[str, float]
    total_index_bytes: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_cost": self.total_cost,
            "per_query_costs": dict(self.per_query_costs),
            "total_index_bytes": self.total_index_bytes,
        }


@dataclass
class WhatIfResponse:
    """Exact optimizer answer for one hypothetical index set."""

    total_cost: float
    per_query_costs: Dict[str, float]
    optimizer_calls: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_cost": self.total_cost,
            "per_query_costs": dict(self.per_query_costs),
            "optimizer_calls": self.optimizer_calls,
        }


@dataclass
class ExplainResponse:
    """One optimized query: its canonical SQL, plan text and cost."""

    query_name: str
    sql: str
    plan: str
    cost: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query_name,
            "sql": self.sql,
            "plan": self.plan,
            "cost": self.cost,
        }


@dataclass
class WorkloadResponse:
    """The session's current workload and tuning state."""

    queries: List[Dict[str, str]] = field(default_factory=list)
    space_budget_bytes: int = 0
    caches_warm: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "queries": list(self.queries),
            "space_budget_bytes": self.space_budget_bytes,
            "caches_warm": self.caches_warm,
        }
