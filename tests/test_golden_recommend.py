"""Golden end-to-end regression test: the fig-7 recommendation is pinned.

The star-schema workload (seed 7, ten queries, 5 GB budget, 60 candidates)
must keep producing *exactly* this recommendation -- chosen indexes, costs,
sizes -- under every evaluation engine.  A refactor that silently changes
any of it (a cost-model tweak, a tie-break change, a cache layout bug)
fails here first, with a diff a human can read.

The golden values were recorded from the scalar oracle.  The arena's
pure-Python backend must reproduce the pick sequence bit-for-bit; the numpy
backend is allowed to permute *equal-benefit* picks (documented 1-ulp tie
behaviour of vectorized reduction) but must select the same index set at
costs within 1e-9.

The second half pins that the ``engine`` option chooses arithmetic, never
the algorithm: every engine name gives the same pick set and cost under a
given selector, on the golden workload and on the benchmark's mixed one.
"""

from __future__ import annotations

import pytest

from repro.advisor.advisor import AdvisorOptions
from repro.api.requests import RecommendRequest
from repro.api.session import TuningSession
from repro.inum.compiled import numpy_available
from repro.util.units import gigabytes
from repro.workloads import StarSchemaWorkload

#: Candidate cap: small enough for test time, large enough that every
#: workload query has candidates on all of its tables.
MAX_CANDIDATES = 60

#: The pinned recommendation (scalar engine, exact pick order).
GOLDEN_PICKS = [
    ("fact", ("fact_dim01_id", "fact_dim03_id", "fact_dim07_id")),
    ("fact", ("fact_dim05_id",)),
    ("dim07", ("dim07_id", "dim07_a2")),
    ("dim06", ("dim06_id", "dim06_a3")),
    ("dim08", ("dim08_id", "dim08_a3", "dim08_a1")),
    ("dim05", ("dim05_id",)),
    ("dim06", ("dim06_a3", "dim06_a1", "dim06_id")),
    ("dim05", ("dim05_a2", "dim05_a1", "dim05_id")),
]
GOLDEN_CANDIDATE_COUNT = 60
GOLDEN_COST_BEFORE = 22105639.39485733
GOLDEN_COST_AFTER = 11556761.796832442
GOLDEN_TOTAL_INDEX_BYTES = 4674527232
GOLDEN_PER_QUERY_AFTER = {
    "Q1": 43654.386746415046,
    "Q2": 2083969.9453298592,
    "Q3": 38140.216231149316,
    "Q4": 183454.1864345207,
    "Q5": 2301839.2262930963,
    "Q6": 162059.76196528826,
    "Q7": 2297115.9411953827,
    "Q8": 2131143.2667092565,
    "Q9": 184960.87996690383,
    "Q10": 2130423.98596057,
}

#: The oracle and the kernel's two backends.
_ENGINES = ["scalar", "python"] + (["numpy"] if numpy_available() else [])


def _recommend(engine: str):
    workload = StarSchemaWorkload(seed=7)
    session = TuningSession(
        workload.catalog(),
        workload.queries(),
        options=AdvisorOptions(
            space_budget_bytes=gigabytes(5),
            max_candidates=MAX_CANDIDATES,
            engine=engine,
        ),
    )
    return session.recommend().result


@pytest.mark.parametrize("engine", _ENGINES)
def test_fig7_recommendation_is_pinned(engine):
    result = _recommend(engine)
    picks = [(index.table, index.columns) for index in result.selected_indexes]

    if engine in ("scalar", "python"):
        assert picks == GOLDEN_PICKS, (
            f"{engine} engine changed the pinned pick sequence:\n"
            f"  got      {picks}\n  expected {GOLDEN_PICKS}"
        )
    else:
        assert sorted(picks) == sorted(GOLDEN_PICKS), (
            f"{engine} engine changed the pinned pick *set*:\n"
            f"  got      {sorted(picks)}\n  expected {sorted(GOLDEN_PICKS)}"
        )

    assert result.candidate_count == GOLDEN_CANDIDATE_COUNT
    assert result.candidates_pruned_for_writes == 0
    assert result.total_index_bytes == GOLDEN_TOTAL_INDEX_BYTES
    assert result.workload_cost_before == pytest.approx(GOLDEN_COST_BEFORE, rel=1e-9)
    assert result.workload_cost_after == pytest.approx(GOLDEN_COST_AFTER, rel=1e-9)
    assert set(result.per_query_cost_after) == set(GOLDEN_PER_QUERY_AFTER)
    for name, expected in GOLDEN_PER_QUERY_AFTER.items():
        assert result.per_query_cost_after[name] == pytest.approx(expected, rel=1e-9), (
            f"{engine} engine moved {name}'s post-recommendation cost"
        )


def test_selectors_agree_on_the_golden_workload():
    """The exhaustive reference loop pins the very same recommendation."""
    workload = StarSchemaWorkload(seed=7)
    session = TuningSession(
        workload.catalog(),
        workload.queries(),
        options=AdvisorOptions(
            space_budget_bytes=gigabytes(5),
            max_candidates=MAX_CANDIDATES,
            engine="python",
            selector="exhaustive",
        ),
    )
    result = session.recommend().result
    picks = [(index.table, index.columns) for index in result.selected_indexes]
    assert picks == GOLDEN_PICKS
    assert result.workload_cost_after == pytest.approx(GOLDEN_COST_AFTER, rel=1e-9)


# ---------------------------------------------------------------------------
# The engine option never changes the answer
# ---------------------------------------------------------------------------

#: Every registered engine name that can run here ("auto"/"arena" alias the
#: kernel on its best backend).
_ENGINE_NAMES = _ENGINES + ["arena", "auto"]


def _outcomes(session, selector, budget):
    """engine name -> (pick set, workload cost) from one warm session."""
    outcomes = {}
    for engine in _ENGINE_NAMES:
        result = session.recommend(
            RecommendRequest(engine=engine, selector=selector, space_budget_bytes=budget)
        ).result
        outcomes[engine] = (
            frozenset(index.key for index in result.selected_indexes),
            result.workload_cost_after,
        )
    return outcomes


def _assert_engine_independent(outcomes, label):
    reference_picks, reference_cost = outcomes["scalar"]
    for engine, (picks, cost) in outcomes.items():
        assert picks == reference_picks, f"{label}: engine {engine!r} changed the pick set"
        assert cost == pytest.approx(reference_cost, rel=1e-9), (
            f"{label}: engine {engine!r} changed the workload cost"
        )


@pytest.fixture(scope="module")
def golden_session():
    workload = StarSchemaWorkload(seed=7)
    return TuningSession(
        workload.catalog(),
        workload.queries(),
        options=AdvisorOptions(max_candidates=MAX_CANDIDATES),
    )


@pytest.fixture(scope="module")
def mixed_session():
    """The benchmark's ``warm_retune`` inputs: 10 reads + 8 DML, read share 0.7."""
    workload = StarSchemaWorkload(seed=7)
    mixed = workload.mixed(read_fraction=0.7)
    return TuningSession(
        workload.catalog(),
        mixed.statements,
        options=AdvisorOptions(
            candidate_policy="per_query", statement_weights=dict(mixed.weights)
        ),
    )


@pytest.mark.parametrize("selector", ["lazy", "exhaustive"])
def test_engine_never_changes_the_golden_recommendation(golden_session, selector):
    outcomes = _outcomes(golden_session, selector, gigabytes(5))
    _assert_engine_independent(outcomes, f"fig-7/{selector}")
    assert outcomes["scalar"][0] == {(table, columns) for table, columns in GOLDEN_PICKS}


@pytest.mark.parametrize("budget_gb", range(1, 9))
def test_engine_never_changes_the_lazy_answer_on_the_mixed_workload(mixed_session, budget_gb):
    """At the parent commit ``engine="arena"`` silently ran the exhaustive
    scan under ``selector="lazy"`` and returned its (different) answer."""
    outcomes = _outcomes(mixed_session, "lazy", gigabytes(budget_gb))
    _assert_engine_independent(outcomes, f"mixed/lazy/{budget_gb}GB")


# The scalar oracle needs seconds per exhaustive scan at the larger budgets,
# so the reference loop is checked at the ends and the middle of the sweep.
@pytest.mark.parametrize("budget_gb", [1, 4, 8])
def test_engine_never_changes_the_exhaustive_answer_on_the_mixed_workload(
    mixed_session, budget_gb
):
    outcomes = _outcomes(mixed_session, "exhaustive", gigabytes(budget_gb))
    _assert_engine_independent(outcomes, f"mixed/exhaustive/{budget_gb}GB")


def test_the_selectors_legitimately_differ_on_the_mixed_workload(mixed_session):
    """The mixed workload is not submodular: a stale CELF bound misses a
    benefit that grew, so lazy settles for 16 indexes where the exhaustive
    reference loop finds 17 at a slightly lower cost.  That difference is
    the selector's; the tests above pin that no engine changes either side."""
    counts = {}
    costs = {}
    for selector in ("lazy", "exhaustive"):
        result = mixed_session.recommend(
            RecommendRequest(selector=selector, space_budget_bytes=gigabytes(8))
        ).result
        counts[selector] = len(result.selected_indexes)
        costs[selector] = result.workload_cost_after
    assert counts == {"lazy": 16, "exhaustive": 17}
    assert costs["lazy"] == pytest.approx(20413671.078, rel=1e-9)
    assert costs["exhaustive"] == pytest.approx(20409671.080, rel=1e-9)
