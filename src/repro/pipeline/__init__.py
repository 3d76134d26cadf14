"""Demand-driven pipeline substrate (the library's VTK-executive substitute).

A pipeline is a DAG of :class:`~repro.pipeline.algorithm.Algorithm` objects
— sources and filters (Fig. 2 of the paper).  Execution is demand-driven:
calling :meth:`~repro.pipeline.algorithm.Algorithm.update` on any node
pulls fresh data through exactly the stale part of its upstream subgraph,
tracked with modified-time counters as in VTK.
"""

from repro.pipeline.algorithm import Algorithm, OutputPort
from repro.pipeline.filter_base import Filter
from repro.pipeline.source import Source, TrivialProducer

__all__ = [
    "Algorithm",
    "OutputPort",
    "Source",
    "TrivialProducer",
    "Filter",
]
