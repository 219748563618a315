"""Tests for the OptimizerHooks switches."""

import dataclasses

import pytest

from repro.catalog.index import Index
from repro.optimizer import Optimizer
from repro.optimizer.hooks import OptimizerHooks


class TestDefaults:
    def test_disabled_factory(self):
        hooks = OptimizerHooks.disabled()
        assert not hooks.keep_all_access_paths
        assert not hooks.keep_all_ioc_plans
        assert not hooks.access_paths_only

    def test_hooks_are_a_value(self):
        """Four switches, nothing else; equal switches make equal, hashable hooks."""
        assert [field.name for field in dataclasses.fields(OptimizerHooks)] == [
            "keep_all_access_paths", "keep_all_ioc_plans", "subsumption_pruning",
            "access_paths_only",
        ]
        assert OptimizerHooks(keep_all_ioc_plans=True) == OptimizerHooks(keep_all_ioc_plans=True)
        assert len({OptimizerHooks.disabled(), OptimizerHooks()}) == 1


class TestReset:
    def test_reset_preserves_switches(self, small_catalog, join_query):
        """An optimizer call only reads the hooks: the switches stay as given."""
        small_catalog.add_index(Index("sales", ["s_customer"]))
        hooks = OptimizerHooks(keep_all_access_paths=True, keep_all_ioc_plans=True,
                               subsumption_pruning=False)
        Optimizer(small_catalog).optimize(join_query, hooks=hooks)
        assert hooks == OptimizerHooks(keep_all_access_paths=True, keep_all_ioc_plans=True,
                                       subsumption_pruning=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            hooks.keep_all_access_paths = False
