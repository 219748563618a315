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


def builtin_catalog_factory(name: str, seed: int = 7):
    """Build one of the built-in catalogs by name (``"star"`` or ``"tpch"``).

    This module-level function exists so it can be pickled: the parallel
    :class:`~repro.inum.workload_builder.WorkloadCacheBuilder` ships a
    catalog factory to its worker processes, and
    ``functools.partial(builtin_catalog_factory, "star", seed)`` survives the
    trip where a lambda or a bound method would not.
    """
    return builtin_workload(name, seed)[0]


__all__ = [
    "BUILTIN_CATALOGS",
    "CompressedWorkload",
    "MixedWorkload",
    "StarSchemaWorkload",
    "TemplateCluster",
    "TpchLikeWorkload",
    "TracePhase",
    "build_tpch_like_catalog",
    "builtin_catalog_factory",
    "builtin_workload",
    "compress_workload",
    "emit_trace",
    "tpch_q5_like_query",
    "zipf_weights",
]
