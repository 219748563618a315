"""Tests for the OptimizerHooks instrumentation object."""

from repro.optimizer.hooks import OptimizerHooks


class TestDefaults:
    def test_disabled_factory(self):
        hooks = OptimizerHooks.disabled()
        assert not hooks.keep_all_access_paths
        assert not hooks.keep_all_ioc_plans
        assert not hooks.access_paths_only

    def test_buffers_start_empty(self):
        hooks = OptimizerHooks()
        assert hooks.collected_access_paths == []


class TestReset:
    def test_reset_clears_buffers(self):
        hooks = OptimizerHooks(keep_all_access_paths=True, keep_all_ioc_plans=True)
        hooks.collected_access_paths.append(object())
        hooks.reset()
        assert hooks.collected_access_paths == []

    def test_reset_preserves_switches(self):
        hooks = OptimizerHooks(keep_all_access_paths=True, keep_all_ioc_plans=True,
                               subsumption_pruning=False)
        hooks.reset()
        assert hooks.keep_all_access_paths
        assert hooks.keep_all_ioc_plans
        assert not hooks.subsumption_pruning

    def test_independent_instances_do_not_share_buffers(self):
        a = OptimizerHooks()
        b = OptimizerHooks()
        a.collected_access_paths.append(object())
        assert b.collected_access_paths == []
