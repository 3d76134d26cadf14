"""Deadline propagation: the server-side half.

Admission itself — bounding concurrency, queueing, and shedding with a
``retry_after`` hint — is :class:`~repro.rpc.fairshare.FairScheduler`'s
alone; this module keeps the per-request time budget.

The client's remaining retry budget rides the request envelope's ctx
map (key ``"deadline"``, seconds — a *duration*, not a wall-clock
instant, so client and server clocks never need agreement).  The fair
queue charges the time a request spent queued against it; the server
then wraps handler execution in a :class:`DeadlineScope` and work
between phases calls :func:`check_deadline` to abandon doomed work early.

The client-side half — splicing the remaining budget into each attempt's
frame and spotting a shed inside a successful exchange — is
``ResilientTransport`` using :mod:`repro.rpc.envelope`.

Wire compatibility: a request without a deadline is byte-identical to a
pre-deadline frame — both sides treat the extra ctx key as optional.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import DeadlineExpiredError

__all__ = [
    "DeadlineScope",
    "current_deadline",
    "check_deadline",
]

_scope_stack = threading.local()


def _stack() -> list:
    stack = getattr(_scope_stack, "scopes", None)
    if stack is None:
        stack = []
        _scope_stack.scopes = stack
    return stack


class DeadlineScope:
    """A per-request time budget, checkable from anywhere on the thread.

    The budget is converted to an absolute expiry against the injected
    clock at construction, so repeated :meth:`remaining` calls measure
    real elapsed work.  Used as a context manager around handler
    execution; nested scopes see the innermost deadline.
    """

    def __init__(self, budget: float, clock: Callable[[], float] = time.monotonic):
        self.budget = float(budget)
        self._clock = clock
        self.expires_at = clock() + self.budget

    def remaining(self) -> float:
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def __enter__(self) -> DeadlineScope:
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()


def current_deadline() -> DeadlineScope | None:
    """The innermost active scope on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


def check_deadline(phase: str = "processing") -> None:
    """Abandon doomed work: raise if the active deadline has expired.

    A no-op outside any scope, so pipeline code can call it
    unconditionally — only deadline-carrying requests pay the check.
    """
    scope = current_deadline()
    if scope is not None and scope.expired():
        raise DeadlineExpiredError(
            f"deadline expired before {phase} "
            f"(budget {scope.budget:.3f}s exceeded by "
            f"{-scope.remaining():.3f}s); abandoning request"
        )
