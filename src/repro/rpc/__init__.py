"""RPC substrate: MessagePack serialization and an rpclib-style call layer.

The paper's prototype uses rpclib + MessagePack "to efficiently marshal and
unmarshal data, alleviating interprocess-communication overhead" (Sec. VI).
This package provides the same two layers from scratch:

* :mod:`repro.rpc.msgpack` — a spec-complete MessagePack encoder/decoder,
* :mod:`repro.rpc.envelope` — the one owner of frame shapes, ctx keys and
  the error-line grammar every other module here builds and reads through,
* :mod:`repro.rpc.server` / :mod:`repro.rpc.client` — function-registration
  RPC over pluggable transports (in-process for tests, one pipelined TCP
  connection that owns its msgids for real two-process runs, simulated
  for benchmark cost accounting),
* :mod:`repro.rpc.resilience` — retry/backoff/deadline/circuit-breaker
  wrapper making the client<->storage hop fault tolerant,
* :mod:`repro.rpc.fairshare` — the server's one admission gate: the
  per-tenant fair queue bounds concurrency, queues and sheds,
* :mod:`repro.rpc.admission` — server-side deadline scopes.
"""

from repro.rpc.admission import DeadlineScope, check_deadline
from repro.rpc.client import PendingCall, RPCClient
from repro.rpc.fairshare import FairScheduler
from repro.rpc.msgpack import ExtType, Timestamp, pack, unpack
from repro.rpc.mux import AsyncServerTransport
from repro.rpc.pool import EndpointPool
from repro.rpc.resilience import CircuitBreaker, ResilientTransport, RetryPolicy
from repro.rpc.server import RPCServer
from repro.rpc.forward import ForwardingHandler
from repro.rpc.transport import (
    FrameBuffer,
    InProcessTransport,
    SimulatedTransport,
    TCPTransport,
    ThrottledTransport,
    Transport,
)

__all__ = [
    "pack",
    "unpack",
    "ExtType",
    "Timestamp",
    "RPCServer",
    "RPCClient",
    "PendingCall",
    "Transport",
    "InProcessTransport",
    "TCPTransport",
    "AsyncServerTransport",
    "FairScheduler",
    "FrameBuffer",
    "ForwardingHandler",
    "SimulatedTransport",
    "ThrottledTransport",
    "ResilientTransport",
    "EndpointPool",
    "RetryPolicy",
    "CircuitBreaker",
    "DeadlineScope",
    "check_deadline",
]
