"""Workload compression: thousands of statement instances, dozens of builds.

A trace replayed by millions of users contains millions of statement
*instances* but only a few dozen *templates*.  :func:`compress_workload`
clusters statements by :func:`~repro.util.fingerprint.template_fingerprint`
and keeps one representative per cluster with a multiplicity weight -- an
ordinary weighted workload, so the per-query cache pool, the arena and the
ILP all consume it unchanged.

Exactness: when every instance of a template is literally the same SQL
(the common case for replayed traces -- and what a Zipfian
:func:`~repro.workloads.trace.emit_trace` without parameter variants
produces), the compressed weighted workload prices *identically* to the
uncompressed one, so recommendations and costs match to float precision
(``tests/test_compression_equivalence.py`` pins this).  When parameters
vary inside a template, the first-seen instance stands for the cluster and
the result is a documented approximation -- the right trade for cache-build
amortization, and :attr:`CompressedWorkload.lossless` reports which regime
a workload is in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.ast import Statement
from repro.util.errors import AdvisorError
from repro.util.fingerprint import query_fingerprint, template_fingerprint

#: Prefix of the fingerprint-stable names given to cluster representatives.
REPRESENTATIVE_PREFIX = "tpl_"


@dataclass(frozen=True)
class TemplateCluster:
    """All instances of one template, folded.

    ``representative`` is the first-seen instance renamed to the
    fingerprint-stable ``tpl_<fingerprint>``; ``weight`` is the summed
    input weight of every instance (execution count for unweighted
    traces); ``instances`` counts statements folded in and
    ``distinct_sql`` how many literal variants they spanned (1 = the
    representative prices the cluster exactly).
    """

    fingerprint: str
    representative: Statement
    weight: float
    instances: int
    distinct_sql: int
    first_name: str


@dataclass(frozen=True)
class CompressedWorkload:
    """A workload folded to one weighted representative per template."""

    clusters: Tuple[TemplateCluster, ...]
    total_statements: int
    total_weight: float

    @property
    def statements(self) -> List[Statement]:
        """The representatives, in first-seen template order."""
        return [cluster.representative for cluster in self.clusters]

    @property
    def weights(self) -> Dict[str, float]:
        """Multiplicity weights keyed by representative name."""
        return {
            cluster.representative.name: cluster.weight for cluster in self.clusters
        }

    @property
    def template_count(self) -> int:
        """Distinct templates in the workload."""
        return len(self.clusters)

    @property
    def compression_ratio(self) -> float:
        """Input statements per emitted representative (1.0 = incompressible)."""
        if not self.clusters:
            return 1.0
        return self.total_statements / len(self.clusters)

    @property
    def lossless(self) -> bool:
        """Whether every cluster held literally identical SQL.

        True means the compressed weighted workload prices *exactly* like
        the uncompressed one; False means at least one template had
        parameter variation and its representative is an approximation.
        """
        return all(cluster.distinct_sql == 1 for cluster in self.clusters)

    def workload(self) -> Tuple[List[Statement], Dict[str, float]]:
        """``(statements, weights)`` in the shape sessions consume."""
        return self.statements, self.weights

    def stats(self) -> Dict[str, object]:
        """A JSON-shaped summary for responses and logs."""
        return {
            "statements": self.total_statements,
            "templates": len(self.clusters),
            "ratio": round(self.compression_ratio, 4),
            "total_weight": self.total_weight,
            "lossless": self.lossless,
        }


@dataclass
class _Folding:
    representative: Statement
    weight: float = 0.0
    instances: int = 0
    first_name: str = ""
    sql_variants: set = field(default_factory=set)


def compress_workload(
    statements: Sequence[Statement],
    weights: Optional[Dict[str, float]] = None,
) -> CompressedWorkload:
    """Cluster ``statements`` by template fingerprint.

    ``weights`` optionally maps input statement *names* to frequencies
    (default 1.0 each); cluster weights are the per-template sums, so
    compressing an already-weighted workload preserves total weight.
    Duplicate input names are fine -- instances are folded positionally --
    but a weight naming no input statement is an :class:`AdvisorError`
    (same eager-validation contract as ``AdvisorOptions.statement_weights``).
    """
    weights = dict(weights or {})
    seen_names = {statement.name for statement in statements}
    unknown = sorted(set(weights) - seen_names)
    if unknown:
        raise AdvisorError(
            f"compress_workload: weights name unknown statements: {', '.join(unknown)}"
        )
    for name, value in weights.items():
        if not value > 0.0:
            raise AdvisorError(
                f"compress_workload: weight for {name!r} must be > 0, got {value!r}"
            )

    foldings: Dict[str, _Folding] = {}
    total_weight = 0.0
    for statement in statements:
        fingerprint = template_fingerprint(statement)
        folding = foldings.get(fingerprint)
        if folding is None:
            folding = _Folding(
                representative=statement.renamed(
                    f"{REPRESENTATIVE_PREFIX}{fingerprint}"
                ),
                first_name=statement.name,
            )
            foldings[fingerprint] = folding
        weight = weights.get(statement.name, 1.0)
        folding.weight += weight
        folding.instances += 1
        folding.sql_variants.add(query_fingerprint(statement))
        total_weight += weight

    clusters = tuple(
        TemplateCluster(
            fingerprint=fingerprint,
            representative=folding.representative,
            weight=folding.weight,
            instances=folding.instances,
            distinct_sql=len(folding.sql_variants),
            first_name=folding.first_name,
        )
        for fingerprint, folding in foldings.items()
    )
    return CompressedWorkload(
        clusters=clusters,
        total_statements=len(statements),
        total_weight=total_weight,
    )


__all__ = [
    "CompressedWorkload",
    "REPRESENTATIVE_PREFIX",
    "TemplateCluster",
    "compress_workload",
]
