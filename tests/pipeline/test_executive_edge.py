"""Edge-case tests for the pipeline engine under reconfiguration."""

import pytest

from repro.errors import PipelineError
from repro.pipeline import Filter, TrivialProducer


class Tagger(Filter):
    """Appends its tag to a list-valued payload; counts executions."""

    def __init__(self, tag):
        super().__init__()
        self.tag = tag
        self.executions = 0

    def _execute(self, xs):
        self.executions += 1
        return xs + [self.tag]


class TestRewiring:
    def test_reconnect_switches_upstream(self):
        a = TrivialProducer(["a"])
        b = TrivialProducer(["b"])
        f = Tagger("f")
        f.set_input_connection(0, a)
        assert f.output() == ["a", "f"]
        f.set_input_connection(0, b)
        assert f.output() == ["b", "f"]
        assert f.executions == 2

    def test_deep_chain_partial_invalidation(self):
        src = TrivialProducer([])
        chain = [Tagger(str(i)) for i in range(5)]
        upstream = src
        for f in chain:
            f.set_input_connection(0, upstream)
            upstream = f
        assert chain[-1].output() == ["0", "1", "2", "3", "4"]
        # Modifying a mid-chain node re-executes it and everything after,
        # but nothing before it.
        before = [f.executions for f in chain]
        chain[2].modified()
        chain[-1].update()
        after = [f.executions for f in chain]
        assert after[:2] == before[:2]
        assert all(a == b + 1 for a, b in zip(after[2:], before[2:]))

    def test_shared_subtree_updates_once_per_change(self):
        src = TrivialProducer(["x"])
        shared = Tagger("s")
        shared.set_input_connection(0, src)
        left = Tagger("l")
        right = Tagger("r")
        left.set_input_connection(0, shared)
        right.set_input_connection(0, shared)
        left.update()
        right.update()
        assert shared.executions == 1
        src.set_data(["y"])
        left.update()
        right.update()
        assert shared.executions == 2

    def test_update_error_leaves_node_dirty(self):
        class Boom(Filter):
            def __init__(self):
                super().__init__()
                self.should_fail = True

            def _execute(self, x):
                if self.should_fail:
                    raise PipelineError("intentional")
                return x

        src = TrivialProducer(5)
        boom = Boom()
        boom.set_input_connection(0, src)
        with pytest.raises(PipelineError, match="intentional"):
            boom.update()
        # Recovery: fix the node and update again without touching inputs.
        boom.should_fail = False
        assert boom.output() == 5
