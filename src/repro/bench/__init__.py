"""Benchmark support: result-table formatting and error metrics for the experiments."""

from repro.bench.harness import ExperimentTable, geometric_mean, relative_error

__all__ = [
    "ExperimentTable",
    "geometric_mean",
    "relative_error",
]
