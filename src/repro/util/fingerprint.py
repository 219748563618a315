"""Stable fingerprints for queries, catalogs and index configurations.

The workload-scale cache machinery needs compact, deterministic identities:

* the memoizing what-if layer keys its entries by *query* and
  *configuration*, so identical probes are recognised across interesting-
  order combinations and across builders,
* the persistent cache store keys its files by *catalog* and *query*, so a
  cache is reused across advisor runs and invalidated the moment the schema
  or the statistics change,
* the store and the shared tier also key by *optimizer*, so a cached answer
  is never handed to an optimizer that prices plans differently.

All fingerprints are hex digests of a canonical textual description, so they
are stable across processes and Python versions (``hash()`` is salted per
process and therefore useless here).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import Catalog
    from repro.catalog.index import Index
    from repro.optimizer.optimizer import OptimizerOptions
    from repro.query.ast import Query, Statement

#: Length of the hex digests returned by the fingerprint functions.
DIGEST_LENGTH = 16

#: Structural signature of one index: ``(table, columns, hypothetical, unique)``.
#: ``hypothetical`` is part of the identity because what-if indexes report a
#: smaller size (leaf pages only) than materialized ones, which changes costs.
IndexSignature = Tuple[str, Tuple[str, ...], bool, bool]


def _digest(parts: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:DIGEST_LENGTH]


def query_fingerprint(query: "Query") -> str:
    """Fingerprint of a query's *semantics* (its canonical SQL, not its name).

    Two differently-named queries with identical SQL share a fingerprint, so
    a workload containing the same statement twice builds its cache once.
    """
    return _digest([query.to_sql()])


def template_fingerprint(statement: "Statement") -> str:
    """Fingerprint of a statement's *template* (shape, not literals).

    Digests the parameterized SQL rendering -- every literal replaced by a
    typed marker (:func:`repro.query.templates.parameterized_sql`) -- so
    two executions of the same statement shape with different constants
    share a fingerprint, while any structural difference (columns, tables,
    operators, clause order) separates them.  A ``template`` domain tag
    keeps the digest disjoint from :func:`query_fingerprint` even for
    literal-free statements.
    """
    from repro.query.templates import parameterized_sql

    return _digest(["template", parameterized_sql(statement)])


def configuration_signature(indexes: Sequence["Index"]) -> Tuple[IndexSignature, ...]:
    """Order-independent signature of an index configuration."""
    return tuple(sorted(
        (index.table, index.columns, index.hypothetical, index.unique)
        for index in indexes
    ))


def catalog_fingerprint(catalog: "Catalog") -> str:
    """Fingerprint of the catalog's schema, statistics and permanent indexes.

    Any change that can alter an optimizer's answer -- a new column, a
    different row count, refreshed histograms, an added permanent index --
    produces a different fingerprint, which is what the persistent cache
    store uses to invalidate caches built against stale metadata.
    """
    parts = [catalog.name]
    for table in sorted(catalog.tables(), key=lambda t: t.name):
        parts.append(f"table:{table.name}")
        parts.append(f"pk:{table.primary_key}")
        for column in table.columns:
            parts.append(
                f"col:{column.name}:{column.ctype.name}:{column.width}:{column.nullable}"
            )
        for fk in table.foreign_keys:
            parts.append(f"fk:{fk.column}->{fk.ref_table}.{fk.ref_column}")
        if catalog.has_statistics(table.name):
            stats = catalog.statistics(table.name)
            parts.append(f"rows:{stats.row_count}")
            for name in sorted(stats.column_stats):
                cs = stats.column_stats[name]
                parts.append(
                    f"stat:{name}:{cs.n_distinct}:{cs.min_value}:{cs.max_value}:"
                    f"{cs.null_fraction}:{cs.avg_width}:{cs.correlation}"
                )
                if cs.histogram is not None:
                    parts.append(f"hist:{name}:{cs.histogram.bounds}:{cs.histogram.counts}")
    for index in sorted(catalog.all_indexes(), key=lambda i: i.name):
        parts.append(
            f"index:{index.name}:{index.table}:{index.columns}:"
            f"{index.unique}:{index.hypothetical}"
        )
    return _digest(parts)


def optimizer_fingerprint(options: "OptimizerOptions") -> str:
    """Fingerprint of what makes an optimizer's answers what they are.

    Digests every cost parameter, ``enable_nestloop`` and the hand-bumped
    :data:`~repro.optimizer.optimizer.PLANNER_REVISION`, so a plan cache
    built under other constants or by an older planner is never reused.
    """
    from repro.optimizer.optimizer import PLANNER_REVISION

    parts = [f"revision:{PLANNER_REVISION}", f"nestloop:{options.enable_nestloop}"]
    parts.extend(
        f"{name}:{value!r}"
        for name, value in sorted(dataclasses.asdict(options.cost_parameters).items())
    )
    return _digest(parts)


def index_set_fingerprint(indexes: Optional[Sequence["Index"]]) -> Optional[str]:
    """Digest of a candidate-index set (``None`` stays ``None``).

    The cache store records which candidate set a cache's access costs were
    collected for; a cache built for a different set is treated as stale.
    """
    if indexes is None:
        return None
    return _digest(
        f"{table}:{','.join(columns)}:{hypothetical}:{unique}"
        for table, columns, hypothetical, unique in configuration_signature(indexes)
    )
