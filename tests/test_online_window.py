"""Tests for the sliding statement window (repro.online.window)."""

from __future__ import annotations

import pytest

from repro.online import Arrival, SlidingWindow
from repro.query.parser import parse_statement
from repro.util.errors import AdvisorError
from repro.util.fingerprint import template_fingerprint


def _stmt(sql, name="statement"):
    return parse_statement(sql, name=name)


def _arrive(sql, name="statement"):
    return Arrival.of(_stmt(sql, name=name))


SEL_A = "SELECT customers.c_age FROM customers WHERE customers.c_age > 30"
SEL_B = "SELECT products.p_price FROM products WHERE products.p_price < 10"
INS = "INSERT INTO customers (c_age, c_region) VALUES (30, 1)"


class TestFolding:
    def test_same_sql_folds_to_one_template(self):
        window = SlidingWindow(10)
        names = [window.append(_arrive(SEL_A, name=f"q{i}")) for i in range(3)]
        assert len(set(names)) == 1
        assert names[0] == f"t_{template_fingerprint(_stmt(SEL_A))}"
        assert window.statement_count == 3
        assert window.template_count == 1
        assert window.template_counts() == {template_fingerprint(_stmt(SEL_A)): 3}

    def test_distribution_is_normalized(self):
        window = SlidingWindow(10)
        window.extend([_arrive(SEL_A), _arrive(SEL_A), _arrive(SEL_B), _arrive(INS)])
        distribution = window.distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert distribution[template_fingerprint(_stmt(SEL_A))] == pytest.approx(0.5)

    def test_empty_window_distribution_is_empty(self):
        assert SlidingWindow(5).distribution() == {}

    def test_workload_weights_are_occurrence_counts(self):
        window = SlidingWindow(10)
        window.extend([_arrive(SEL_A), _arrive(SEL_A), _arrive(SEL_B)])
        statements, weights = window.workload()
        assert [s.to_sql() for s in statements] == [_stmt(SEL_A).to_sql(), _stmt(SEL_B).to_sql()]
        assert weights == {statements[0].name: 2.0, statements[1].name: 1.0}
        assert all(s.name.startswith("t_") for s in statements)


class TestEviction:
    def test_count_bound_evicts_oldest(self):
        window = SlidingWindow(2)
        window.extend([_arrive(SEL_A), _arrive(SEL_B), _arrive(INS)])
        assert window.statement_count == 2
        assert window.total_appended == 3
        fingerprints = set(window.template_counts())
        assert template_fingerprint(_stmt(SEL_A)) not in fingerprints
        assert template_fingerprint(_stmt(INS)) in fingerprints

    def test_age_bound_evicts_stale_entries(self):
        now = [0.0]
        window = SlidingWindow(10, max_age_seconds=5.0, clock=lambda: now[0])
        window.append(_arrive(SEL_A))
        now[0] = 3.0
        window.append(_arrive(SEL_B))
        now[0] = 6.0
        window.append(_arrive(INS))  # SEL_A is now 6s old -> evicted
        assert window.statement_count == 2
        assert template_fingerprint(_stmt(SEL_A)) not in window.template_counts()

    def test_template_disappears_when_its_last_entry_leaves(self):
        window = SlidingWindow(1)
        window.append(_arrive(SEL_A))
        window.append(_arrive(SEL_B))
        assert window.template_count == 1
        statements, weights = window.workload()
        assert [s.to_sql() for s in statements] == [_stmt(SEL_B).to_sql()]


class TestParameterChurn:
    """Literal-only variation must not inflate the window's template set."""

    def _variants(self, count):
        return [
            _stmt(
                "SELECT customers.c_age FROM customers "
                f"WHERE customers.c_age > {30 + i}.0",
                name=f"q{i}",
            )
            for i in range(count)
        ]

    def test_parameter_churn_folds_to_one_template(self):
        window = SlidingWindow(100)
        names = window.extend([Arrival.of(s) for s in self._variants(50)])
        assert window.template_count == 1
        assert len(set(names)) == 1
        fingerprint = template_fingerprint(self._variants(1)[0])
        assert names[0] == f"t_{fingerprint}"
        assert window.template_counts() == {fingerprint: 50}

    def test_distribution_pinned_under_parameter_churn(self):
        """Regression: churn on one template must not dilute drift weights.

        20 literal variants of SEL_A plus 20 verbatim SEL_B executions is a
        50/50 template split; keying by raw query fingerprint would report
        SEL_A as 20 templates of weight 1/40 each and any drift metric
        against a stationary reference would see phantom drift.
        """
        window = SlidingWindow(100)
        window.extend([Arrival.of(s) for s in self._variants(20)])
        window.extend([_arrive(SEL_B, name=f"b{i}") for i in range(20)])
        distribution = window.distribution()
        assert distribution == {
            template_fingerprint(self._variants(1)[0]): pytest.approx(0.5),
            template_fingerprint(_stmt(SEL_B)): pytest.approx(0.5),
        }

    def test_first_seen_instance_represents_the_template(self):
        window = SlidingWindow(100)
        variants = self._variants(3)
        window.extend([Arrival.of(s) for s in variants])
        statements, weights = window.workload()
        assert len(statements) == 1
        assert statements[0].to_sql() == variants[0].renamed(statements[0].name).to_sql()
        assert weights == {statements[0].name: 3.0}


class TestValidation:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(AdvisorError, match="max_statements >= 1"):
            SlidingWindow(0)

    def test_rejects_nonpositive_age(self):
        with pytest.raises(AdvisorError, match="max_age_seconds > 0"):
            SlidingWindow(5, max_age_seconds=0.0)
