"""Unit tests for sources and the filter input convenience."""

import pytest

from repro.errors import PipelineError
from repro.pipeline import Filter, TrivialProducer


class Inc(Filter):
    def _execute(self, x):
        return x + 1


class TestSources:
    def test_trivial_producer(self):
        assert TrivialProducer(7).output() == 7

    def test_trivial_producer_unset(self):
        with pytest.raises(PipelineError, match="no data"):
            TrivialProducer().update()

    def test_set_data_marks_modified(self):
        src = TrivialProducer(1)
        src.update()
        src.set_data(2)
        assert src.needs_execute


class TestSinks:
    def test_filter_set_input_data_convenience(self):
        inc = Inc()
        inc.set_input_data(1)
        assert inc.output() == 2
