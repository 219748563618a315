"""Tests for the behaviour-name tables and eager option validation."""

import pytest

from repro.advisor import AdvisorOptions
from repro.advisor.advisor import CANDIDATE_POLICIES, COST_MODELS, ENGINES, SELECTORS
from repro.inum.workload_builder import CACHE_BUILDERS, build_one_cache
from repro.optimizer import Optimizer
from repro.util.errors import AdvisorError, ReproError, validate_name


class TestRegistry:
    def test_builtin_names_are_listed(self):
        assert set(COST_MODELS) == {"pinum", "inum", "optimizer"}
        assert set(SELECTORS) == {"lazy", "exhaustive", "ilp"}
        assert set(ENGINES) == {"auto", "arena", "numpy", "python", "scalar"}
        assert set(CACHE_BUILDERS) == {"pinum", "inum"}
        assert set(CANDIDATE_POLICIES) == {"workload", "per_query"}

    def test_unknown_name_lists_registered_choices(self):
        with pytest.raises(
            AdvisorError, match=r"unknown selector 'random'.*'exhaustive', 'ilp', 'lazy'"
        ):
            validate_name("selector", "random", SELECTORS)


class TestEagerOptionValidation:
    """Unknown names fail at options-construction time, listing choices."""

    def test_unknown_cost_model(self):
        with pytest.raises(AdvisorError, match=r"unknown cost model 'magic'.*'pinum'"):
            AdvisorOptions(cost_model="magic")

    def test_unknown_selector(self):
        with pytest.raises(AdvisorError, match=r"unknown selector 'random'.*'lazy'"):
            AdvisorOptions(selector="random")

    def test_unknown_engine(self):
        with pytest.raises(AdvisorError, match=r"unknown evaluation engine 'gpu'.*'numpy'"):
            AdvisorOptions(engine="gpu")

    def test_unknown_candidate_policy(self):
        with pytest.raises(AdvisorError, match=r"unknown candidate policy 'all'.*'per_query'"):
            AdvisorOptions(candidate_policy="all")

    def test_valid_options_construct(self):
        options = AdvisorOptions(
            cost_model="inum", selector="exhaustive", engine="scalar",
            candidate_policy="per_query",
        )
        assert options.cost_model == "inum"

    def test_workload_builder_unknown_builder_lists_choices(self, small_catalog, join_query):
        with pytest.raises(ReproError, match=r"unknown cache builder 'magic'.*'inum', 'pinum'"):
            build_one_cache(Optimizer(small_catalog), None, "magic", join_query, None)

    def test_numpy_engine_without_numpy_fails_at_construction(self, monkeypatch):
        """Availability is probed eagerly too, before any cache is built."""
        monkeypatch.setattr("repro.advisor.benefit.numpy_available", lambda: False)
        with pytest.raises(AdvisorError, match="numpy is not installed"):
            AdvisorOptions(engine="numpy")
        assert AdvisorOptions(engine="auto").engine == "auto"
