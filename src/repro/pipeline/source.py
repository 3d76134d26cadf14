"""Pipeline sources: nodes with no inputs that introduce data (Fig. 2)."""

from __future__ import annotations

from typing import Any

from repro.errors import PipelineError
from repro.pipeline.algorithm import Algorithm

__all__ = ["Source", "TrivialProducer"]


class Source(Algorithm):
    """Base class for sources: zero input ports, one output port."""

    num_input_ports = 0
    num_output_ports = 1


class TrivialProducer(Source):
    """A source that hands out a pre-built data object.

    The VTK equivalent is ``vtkTrivialProducer``; it is how in-memory data
    enters a pipeline.
    """

    def __init__(self, data: Any = None):
        super().__init__()
        self._data = data

    def set_data(self, data: Any) -> None:
        self._data = data
        self.modified()

    def _execute(self) -> Any:
        if self._data is None:
            raise PipelineError("TrivialProducer has no data set")
        return self._data
