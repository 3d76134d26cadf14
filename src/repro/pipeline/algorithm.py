"""Algorithm base class: ports, connections, and demand-driven execution.

Modelled on VTK's ``vtkAlgorithm`` + executive split, collapsed into one
class sized for this library: each algorithm declares a number of input and
output ports; connections wire an upstream output port to a downstream input
port; ``update()`` re-executes a node iff any upstream node is newer than
its last execution (modified-time propagation).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.errors import PipelineError, PortError

__all__ = ["Algorithm", "OutputPort"]

# Global monotone counter used for modified times, like VTK's MTime.
_mtime_counter = itertools.count(1)


def _next_mtime() -> int:
    return next(_mtime_counter)


class OutputPort:
    """A reference to one output port of an algorithm."""

    __slots__ = ("algorithm", "index")

    def __init__(self, algorithm: "Algorithm", index: int):
        if not 0 <= index < algorithm.num_output_ports:
            raise PortError(
                f"{algorithm!r} has no output port {index} "
                f"(has {algorithm.num_output_ports})"
            )
        self.algorithm = algorithm
        self.index = index

    def __repr__(self) -> str:
        return f"OutputPort({self.algorithm!r}, {self.index})"


class Algorithm:
    """Base class for every pipeline node.

    Subclasses set :attr:`num_input_ports` / :attr:`num_output_ports` and
    implement :meth:`_execute`, which receives one input object per input
    port and must return a tuple with one output object per output port.
    """

    num_input_ports: int = 0
    num_output_ports: int = 1

    def __init__(self):
        self._inputs: list[OutputPort | None] = [None] * self.num_input_ports
        self._outputs: list[Any] = [None] * self.num_output_ports
        self._mtime: int = _next_mtime()
        self._execute_time: int = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_input_connection(self, port: int, upstream: "OutputPort | Algorithm") -> None:
        """Connect ``upstream`` (an algorithm's port 0 by default) to ``port``."""
        if not 0 <= port < self.num_input_ports:
            raise PortError(
                f"{self!r} has no input port {port} (has {self.num_input_ports})"
            )
        if isinstance(upstream, Algorithm):
            upstream = upstream.output_port(0)
        if not isinstance(upstream, OutputPort):
            raise PortError(f"expected OutputPort or Algorithm, got {upstream!r}")
        self._check_cycle(upstream.algorithm)
        self._inputs[port] = upstream
        self.modified()

    def output_port(self, index: int = 0) -> OutputPort:
        return OutputPort(self, index)

    def _check_cycle(self, upstream: "Algorithm") -> None:
        """Reject connections that would create a cycle."""
        stack = [upstream]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node is self:
                raise PipelineError("connection would create a pipeline cycle")
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(
                conn.algorithm for conn in node._inputs if conn is not None
            )

    # ------------------------------------------------------------------
    # Modified-time machinery
    # ------------------------------------------------------------------
    def modified(self) -> None:
        """Mark this node dirty; the next update() will re-execute it."""
        self._mtime = _next_mtime()

    @property
    def mtime(self) -> int:
        return self._mtime

    def _pipeline_mtime(self) -> int:
        """Newest mtime of this node and everything upstream."""
        newest = self._mtime
        for conn in self._inputs:
            if conn is not None:
                newest = max(newest, conn.algorithm._pipeline_mtime())
        return newest

    @property
    def needs_execute(self) -> bool:
        return self._execute_time < self._pipeline_mtime()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def update(self) -> None:
        """Bring this node (and its upstream subgraph) up to date."""
        for port, conn in enumerate(self._inputs):
            if conn is None:
                raise PipelineError(
                    f"{type(self).__name__} input port {port} is not connected"
                )
            conn.algorithm.update()
        if self._execute_time >= self._pipeline_mtime():
            return
        inputs = [
            conn.algorithm.get_output_data(conn.index) for conn in self._inputs
        ]
        outputs = self._execute(*inputs)
        if not isinstance(outputs, tuple):
            outputs = (outputs,)
        if len(outputs) != self.num_output_ports:
            raise PipelineError(
                f"{type(self).__name__}._execute returned {len(outputs)} outputs; "
                f"expected {self.num_output_ports}"
            )
        self._outputs = list(outputs)
        self._execute_time = _next_mtime()

    def get_output_data(self, port: int = 0) -> Any:
        """Return the data on an output port (after :meth:`update`)."""
        if not 0 <= port < self.num_output_ports:
            raise PortError(f"no output port {port}")
        return self._outputs[port]

    def output(self, port: int = 0) -> Any:
        """Update then return output data — the common one-call entry point."""
        self.update()
        return self.get_output_data(port)

    def _execute(self, *inputs: Any) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
