"""The planner's output, pinned.

* **Golden.**  Every built-in query's plan cache -- the 10 star and 2 TPC-H-like
  queries under the PINUM builder, the ones joining at most three tables under
  the classic INUM builder, each over its first 40 candidates -- serialized
  without its build statistics, equals ``data/planner_golden.json``, recorded
  under ``PYTHONHASHSEED=0`` with a join planner that built every candidate
  join node and ran the full DP on the access-cost call, so it pins that
  pricing a join before building it changes nothing.  Structure (plans,
  operators, orders, keys) must match exactly; floats to 1e-12 relative.
* **Wide golden.**  No built-in query joins more than six tables, so the
  PINUM cache of a seven-table star join (``conftest.build_wide_star_query``
  with six dimensions, catalog seed 0, first 40 candidates) is pinned the same
  way in ``data/planner_golden_wide.json``, recorded with the object-based
  join DP that built a plan node for every admitted join.
* **Determinism.**  The same caches built in two processes with different
  hash seeds serialize byte-for-byte identically: no float is summed or
  multiplied in set order.

Run as a script to print the serialized caches of one builder (or, with
``wide``, the wide golden's cache)::

    PYTHONPATH=src python tests/test_planner_golden.py pinum
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from repro.advisor.candidates import CandidateGenerator
from repro.inum.serialization import cache_to_dict
from repro.inum.workload_builder import CACHE_BUILDERS
from repro.optimizer import Optimizer
from repro.workloads import StarSchemaWorkload, builtin_workload

from conftest import build_wide_star_query

GOLDEN = Path(__file__).parent / "data" / "planner_golden.json"
WIDE_GOLDEN = Path(__file__).parent / "data" / "planner_golden_wide.json"
#: Candidates per query cache (the first ones the generator proposes).
MAX_CANDIDATES = 40
#: The classic builder makes a call per interesting-order combination, so only
#: the narrower queries are pinned under it.
MAX_INUM_TABLES = 3
#: Dimensions of the wide golden's query: a seven-table join, one wider than
#: any built-in query.
WIDE_DIMS = 6


def planner_dumps(builder: str) -> dict:
    """``"<catalog>/<query>" -> cache_to_dict`` (build statistics dropped)."""
    dumps = {}
    for name in ("star", "tpch"):
        catalog, queries = builtin_workload(name)
        optimizer = Optimizer(catalog)
        for query in queries:
            if builder == "inum" and query.table_count > MAX_INUM_TABLES:
                continue
            dumps[f"{name}/{query.name}"] = _dump(optimizer, query, builder)
    return dumps


def wide_dump() -> dict:
    """The seven-table join-width query's PINUM cache, dumped alike."""
    catalog = StarSchemaWorkload(seed=0).catalog()
    return _dump(Optimizer(catalog), build_wide_star_query(WIDE_DIMS), "pinum")


def _dump(optimizer: Optimizer, query, builder: str) -> dict:
    candidates = CandidateGenerator(optimizer.catalog).for_query(query)[:MAX_CANDIDATES]
    payload = cache_to_dict(CACHE_BUILDERS[builder](optimizer).build_cache(query, candidates))
    del payload["build_stats"]
    return payload


def assert_matches(produced, expected, path="$"):
    """Structure exactly, floats to 1e-12 relative."""
    if isinstance(expected, float) or isinstance(produced, float):
        assert isinstance(produced, (int, float)) and isinstance(expected, (int, float)), path
        assert math.isclose(produced, expected, rel_tol=1e-12, abs_tol=1e-12), (
            f"{path}: {produced!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(produced, dict) and list(produced) == list(expected), path
        for key in expected:
            assert_matches(produced[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(produced, list) and len(produced) == len(expected), path
        for position, (got, want) in enumerate(zip(produced, expected)):
            assert_matches(got, want, f"{path}[{position}]")
    else:
        assert produced == expected, f"{path}: {produced!r} != {expected!r}"


def test_plan_caches_match_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == ["inum", "pinum"]
    for builder, expected in golden.items():
        # A JSON round trip, so tuples and lists compare alike.
        produced = json.loads(json.dumps(planner_dumps(builder)))
        assert_matches(produced, expected, builder)


def test_seven_table_plan_cache_matches_the_golden():
    expected = json.loads(WIDE_GOLDEN.read_text(encoding="utf-8"))
    assert_matches(json.loads(json.dumps(wide_dump())), expected, "wide")


def test_plan_caches_do_not_depend_on_the_hash_seed():
    source = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source), os.environ.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, __file__, "pinum"],
            env=env, capture_output=True, check=True, timeout=300,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    print(json.dumps(wide_dump() if sys.argv[1] == "wide" else planner_dumps(sys.argv[1])))
