"""A removed statement's memoised optimizer answers go with it.

A session's what-if layer keeps every answer it computes, so unless
``remove_queries`` forgets them, each add -> recommend -> remove cycle of a
never-seen query leaves its three PINUM answers behind for the session's
lifetime.  The plan cache itself stays pooled, so re-adding the query is
still free; answers for statements that stay, and the answers a workload-
policy re-key reuses, are kept.
"""

from __future__ import annotations

import pytest

from repro.advisor import AdvisorOptions
from repro.api.session import TuningSession
from repro.query.templates import templatize
from repro.workloads import StarSchemaWorkload


@pytest.fixture(scope="module")
def star():
    return StarSchemaWorkload(seed=7)


def never_seen(star, number: int):
    """A five-table star query with literals unique to ``number``."""
    template, params = templatize(star.queries(14)[13])
    return template.instantiate([value + 1.0 + number for value in params], name=f"D{number}")


def test_delta_cycles_leave_the_memo_where_it_started(star):
    mixed = star.mixed(read_fraction=0.7)
    session = TuningSession(
        star.catalog(),
        mixed.statements,
        options=AdvisorOptions(candidate_policy="per_query", statement_weights=mixed.weights),
    )
    session.recommend()
    start = len(session.call_cache)
    for number in range(20):
        query = never_seen(star, number)
        session.add_queries([query])
        response = session.recommend()
        assert response.caches_built == 1
        assert response.result.preparation_optimizer_calls == 3
        session.remove_queries([query.name])
        assert len(session.call_cache) == start

    # The pooled cache outlives its answers: a re-add builds nothing.
    session.add_queries([never_seen(star, 0)])
    response = session.recommend()
    assert response.caches_built == 0 and response.caches_reused == len(session.queries)
    assert response.result.preparation_optimizer_calls == 0


def test_a_same_fingerprint_sibling_keeps_its_answers(star):
    session = TuningSession(star.catalog(), star.queries(3))
    query = never_seen(star, 0)
    twin = templatize(query)[0].instantiate(templatize(query)[1], name="twin")
    session.add_queries([query, twin])
    session.recommend()
    held = len(session.call_cache)
    session.remove_queries([query.name])
    assert len(session.call_cache) == held
    session.remove_queries([twin.name])
    assert len(session.call_cache) < held


def test_a_workload_policy_re_key_still_reuses_the_hooked_answers(star):
    session = TuningSession(star.catalog(), star.queries(10))
    session.recommend()
    statistics = session.call_cache.statistics
    hits, calls = statistics.hits, session.optimizer.call_count
    # A new shape adds candidates, so the ten resident caches are re-keyed:
    # their two plan-harvesting answers are reused, only the access-cost
    # calls (and the new query's three) reach the optimizer.
    session.add_queries([star.queries(14)[13]])
    response = session.recommend()
    assert response.caches_built == 11
    assert statistics.hits - hits == 20
    assert session.optimizer.call_count - calls == 13
