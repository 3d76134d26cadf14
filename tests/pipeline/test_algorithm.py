"""Unit tests for the pipeline Algorithm base: ports, mtime, execution."""

import pytest

from repro.errors import PipelineError, PortError
from repro.pipeline import Algorithm, Filter, TrivialProducer
from repro.pipeline.algorithm import OutputPort


class Doubler(Filter):
    """Doubles its (numeric) input; counts executions."""

    def __init__(self):
        super().__init__()
        self.executions = 0

    def _execute(self, x):
        self.executions += 1
        return 2 * x


class Adder(Filter):
    num_input_ports = 2

    def _execute(self, a, b):
        return a + b


class TwoOutputs(Algorithm):
    num_input_ports = 1
    num_output_ports = 2

    def _execute(self, x):
        return x, -x


class TestWiring:
    def test_simple_chain(self):
        src = TrivialProducer(3)
        dbl = Doubler()
        dbl.set_input_connection(0, src)
        assert dbl.output() == 6

    def test_output_port_object(self):
        src = TrivialProducer(3)
        dbl = Doubler()
        dbl.set_input_connection(0, src.output_port(0))
        assert dbl.output() == 6

    def test_bad_input_port(self):
        with pytest.raises(PortError):
            Doubler().set_input_connection(1, TrivialProducer(1))

    def test_bad_output_port(self):
        with pytest.raises(PortError):
            TrivialProducer(1).output_port(1)

    def test_multi_input(self):
        add = Adder()
        add.set_input_connection(0, TrivialProducer(2))
        add.set_input_connection(1, TrivialProducer(40))
        assert add.output() == 42

    def test_multi_output(self):
        two = TwoOutputs()
        two.set_input_connection(0, TrivialProducer(5))
        two.update()
        assert two.get_output_data(0) == 5
        assert two.get_output_data(1) == -5

    def test_unconnected_input_fails_at_update(self):
        with pytest.raises(PipelineError, match="not connected"):
            Doubler().update()

    def test_cycle_rejected(self):
        a = Doubler()
        b = Doubler()
        a.set_input_connection(0, TrivialProducer(1))
        b.set_input_connection(0, a)
        # now try to make a depend on b
        a2 = OutputPort(b, 0)
        with pytest.raises(PipelineError, match="cycle"):
            a.set_input_connection(0, a2)

    def test_self_cycle_rejected(self):
        a = Doubler()
        with pytest.raises(PipelineError, match="cycle"):
            a.set_input_connection(0, a)

    def test_connect_non_port(self):
        with pytest.raises(PortError):
            Doubler().set_input_connection(0, "nope")


class TestDemandDriven:
    def test_no_reexecution_when_clean(self):
        src = TrivialProducer(3)
        dbl = Doubler()
        dbl.set_input_connection(0, src)
        dbl.update()
        dbl.update()
        dbl.update()
        assert dbl.executions == 1

    def test_reexecution_after_source_modified(self):
        src = TrivialProducer(3)
        dbl = Doubler()
        dbl.set_input_connection(0, src)
        assert dbl.output() == 6
        src.set_data(10)
        assert dbl.output() == 20
        assert dbl.executions == 2

    def test_modified_propagates_transitively(self):
        src = TrivialProducer(1)
        a = Doubler()
        b = Doubler()
        a.set_input_connection(0, src)
        b.set_input_connection(0, a)
        assert b.output() == 4
        src.set_data(2)
        assert b.output() == 8
        assert a.executions == 2
        assert b.executions == 2

    def test_diamond_executes_shared_node_once(self):
        src = TrivialProducer(3)
        left = Doubler()
        right = Doubler()
        left.set_input_connection(0, src)
        right.set_input_connection(0, src)
        add = Adder()
        add.set_input_connection(0, left)
        add.set_input_connection(1, right)
        assert add.output() == 12
        assert left.executions == 1 and right.executions == 1

    def test_needs_execute_flag(self):
        src = TrivialProducer(1)
        dbl = Doubler()
        dbl.set_input_connection(0, src)
        assert dbl.needs_execute
        dbl.update()
        assert not dbl.needs_execute
        src.modified()
        assert dbl.needs_execute

    def test_wrong_output_arity_detected(self):
        class Bad(Algorithm):
            num_output_ports = 2

            def _execute(self):
                return (1,)  # should be 2

        with pytest.raises(PipelineError, match="expected 2"):
            Bad().update()
