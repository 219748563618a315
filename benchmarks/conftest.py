"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures (the
README's "Benchmarks" section lists them) and prints an ``ExperimentTable``
with the numbers.  The heavyweight workload objects are session scoped so
the figures share one catalog and one query set.

Environment knobs (all optional):

* ``REPRO_BENCH_CONFIGS``  -- random configurations per query for the
  cost-accuracy experiment (default 60; the paper used 1000).
* ``REPRO_BENCH_QUERIES``  -- how many of the ten workload queries the
  heavier benchmarks use (default: all ten).
* ``REPRO_BENCH_METRICS``  -- path for a JSON snapshot of the process
  metrics registry written when the benchmark session finishes (default
  ``BENCH_metrics.json``; empty string disables).  CI uploads it next to
  ``BENCH_ci.json``, so every run ships the counters and latency
  histograms the benchmarks moved.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.advisor import CandidateGenerator
from repro.optimizer import Optimizer
from repro.workloads import StarSchemaWorkload
from repro.workloads.tpch_like import build_tpch_like_catalog


def bench_config_count() -> int:
    """Random configurations per query for accuracy experiments."""
    return int(os.environ.get("REPRO_BENCH_CONFIGS", "60"))


def bench_query_count() -> int:
    """Number of workload queries heavier benchmarks should cover."""
    return int(os.environ.get("REPRO_BENCH_QUERIES", "10"))


def pytest_sessionfinish(session, exitstatus):
    """Dump the process metrics registry the benchmark run filled in.

    Registering the full instrument catalog first means the snapshot shows
    every family the stack *can* report, not just the ones this run moved.
    """
    path = os.environ.get("REPRO_BENCH_METRICS", "BENCH_metrics.json")
    if not path:
        return
    import repro.obs.instruments  # noqa: F401
    from repro.obs import snapshot

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot(), handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="session")
def star_workload() -> StarSchemaWorkload:
    """The paper's synthetic star-schema workload."""
    return StarSchemaWorkload(seed=7)


@pytest.fixture(scope="session")
def star_catalog(star_workload):
    """The star-schema catalog (treat as read-only in benchmarks)."""
    return star_workload.catalog()


@pytest.fixture(scope="session")
def star_queries(star_workload):
    """The ten synthetic queries, truncated by REPRO_BENCH_QUERIES."""
    return star_workload.queries()[: bench_query_count()]


@pytest.fixture(scope="session")
def candidate_generator(star_catalog):
    """Candidate-index generator over the star catalog."""
    return CandidateGenerator(star_catalog)


@pytest.fixture(scope="session")
def tpch_catalog():
    """The TPC-H-like catalog used by the Section IV redundancy experiment."""
    return build_tpch_like_catalog()


@pytest.fixture
def star_optimizer(star_catalog):
    """A fresh optimizer per benchmark so call counters start at zero."""
    return Optimizer(star_catalog)
