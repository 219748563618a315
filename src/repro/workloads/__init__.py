"""Workloads: the paper's synthetic star schema and a TPC-H-like schema."""

from repro.util.errors import validate_name
from repro.workloads.compress import (
    CompressedWorkload,
    TemplateCluster,
    compress_workload,
)
from repro.workloads.star_schema import MixedWorkload, StarSchemaWorkload
from repro.workloads.tpch_like import (
    TpchLikeWorkload,
    build_tpch_like_catalog,
    tpch_q5_like_query,
    tpch_small_join_query,
)
from repro.workloads.trace import TracePhase, emit_trace, zipf_weights


def _star(seed: int):
    workload = StarSchemaWorkload(seed=seed)
    return workload.catalog(), workload.queries()


def _tpch(seed: int):
    return build_tpch_like_catalog(), [tpch_q5_like_query(), tpch_small_join_query()]


#: The built-in catalogs by name: ``seed -> (catalog, workload queries)``.
#: The CLI's ``--catalog`` choices and what ``repro serve`` can serve.
BUILTIN_CATALOGS = {"star": _star, "tpch": _tpch}


def builtin_workload(name: str, seed: int = 7):
    """``(catalog, built-in workload queries)`` of the built-in catalog ``name``."""
    validate_name("catalog", name, BUILTIN_CATALOGS)
    return BUILTIN_CATALOGS[name](seed)


__all__ = [
    "BUILTIN_CATALOGS",
    "CompressedWorkload",
    "MixedWorkload",
    "StarSchemaWorkload",
    "TemplateCluster",
    "TpchLikeWorkload",
    "TracePhase",
    "build_tpch_like_catalog",
    "builtin_workload",
    "compress_workload",
    "emit_trace",
    "tpch_q5_like_query",
    "zipf_weights",
]
