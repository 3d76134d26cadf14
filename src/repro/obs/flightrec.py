"""Flight recorder: an always-on bounded ring of recent structured events.

When a shed, an integrity failure, or a p999 blowup happens, a trace that
was never started cannot explain it.  The flight recorder is the
black-box counterpart to :mod:`repro.obs.trace`: every server and client
component feeds it continuously — request begin/end, phase timings,
retries, sheds, breaker flips, cache and integrity events — at a cost
low enough to leave on in production even with tracing off, and when
something goes wrong the last N seconds are *already there*.

Design for the hot path:

* :meth:`FlightRecorder.record` takes **no lock**.  The ring is a
  fixed-size Python list of event tuples indexed by a global sequence
  counter; the slot store is one ``STORE_SUBSCR`` bytecode, atomic under
  the GIL, and each event tuple is built completely before it is
  published, so concurrent readers never observe a torn event.
* :meth:`snapshot` copies the slot list in one atomic slice, then sorts
  by timestamp — a self-consistent view without ever blocking writers.
* Trigger kinds (error, shed, integrity failure, deadline bust) make the
  recorder dump itself: the last window of events is serialized to JSONL
  in ``dump_dir``, throttled so an error storm produces a bounded number
  of files.  ``SIGUSR2`` (see :func:`install_signal_dump`), the ``dump``
  RPC endpoint, and drain all reuse the same :meth:`dump` path.

:data:`NULL_RECORDER` is the inert default (``bool() is False``), so
components can record unconditionally and un-wired code paths stay free.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable

__all__ = [
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_RECORDER",
    "DEFAULT_TRIGGERS",
    "install_signal_dump",
]

#: Event kinds that make the recorder snapshot itself to disk.
DEFAULT_TRIGGERS = frozenset({
    "request.error",
    "tenant.shed",
    "deadline.expired",
    "integrity.failure",
    "breaker.open",
})


class NullFlightRecorder:
    """The zero-cost stand-in: every operation is a no-op.

    ``bool(NULL_RECORDER)`` is ``False`` so callers can guard optional
    work (building field dicts) with a plain truth test, exactly like
    :data:`~repro.obs.trace.NULL_TRACER`.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    def record(self, kind: str, /, **fields) -> None:
        pass

    def phase(self, name: str, **fields) -> "_NullPhase":
        return _NULL_PHASE

    def snapshot(self, last_seconds: float | None = None) -> list:
        return []

    def dump(self, reason: str = "manual", path: str | None = None,
             last_seconds: float | None = None) -> str | None:
        return None

    def info(self) -> dict:
        return {"enabled": False}


class _NullPhase:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()

#: Shared inert recorder; the default for every instrumented component.
NULL_RECORDER = NullFlightRecorder()


class _Phase:
    """Times one pipeline phase and records it as a single event."""

    __slots__ = ("_recorder", "_name", "_fields", "_t0")

    def __init__(self, recorder: "FlightRecorder", name: str, fields: dict):
        self._recorder = recorder
        self._name = name
        self._fields = fields

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._t0
        fields = self._fields
        if exc is not None:
            fields = dict(fields)
            fields["error"] = f"{exc_type.__name__}: {exc}"
        self._recorder.record(
            "phase", name=self._name, duration=duration, **fields
        )
        return False


class FlightRecorder:
    """Lock-free bounded ring of recent structured events.

    Parameters
    ----------
    capacity:
        Ring size in events; the newest ``capacity`` events are retained.
    window:
        Default horizon (seconds) a trigger/dump serializes.
    dump_dir:
        Directory trigger dumps are written into (created on first
        dump).  ``None`` disables automatic trigger dumps — explicit
        :meth:`dump` calls with a ``path`` still work, and
        :meth:`snapshot` is always available.
    trigger_kinds:
        Event kinds that fire an automatic dump (when ``dump_dir`` is
        set).  Defaults to :data:`DEFAULT_TRIGGERS`.
    dump_interval:
        Minimum seconds between automatic dumps: an error storm yields
        one dump per interval, not one per error.
    clock:
        Injectable monotonic clock (tests use a fake).  Event wall
        timestamps always come from ``time.time()`` so dumps carry
        human-readable epochs.
    process:
        Label stamped into dump headers (``"server"``, ``"client"``).
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 8192,
        window: float = 30.0,
        dump_dir: str | None = None,
        trigger_kinds: frozenset[str] | None = None,
        dump_interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        process: str = "server",
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.window = float(window)
        self.dump_dir = dump_dir
        self.trigger_kinds = (
            frozenset(trigger_kinds) if trigger_kinds is not None
            else DEFAULT_TRIGGERS
        )
        self.dump_interval = float(dump_interval)
        self.process = process
        self._clock = clock
        self._slots: list = [None] * self.capacity
        self._seq = itertools.count(1)
        self._dump_lock = threading.Lock()
        self._last_dump = -float("inf")
        self._dumps = 0
        self._dump_failures = 0
        self._on_dump: list[Callable[[str, str], None]] = []

    def __bool__(self) -> bool:
        return True

    # -- hot path ----------------------------------------------------------
    def record(self, kind: str, /, **fields) -> None:
        """Append one event; safe from any thread, no lock taken.

        ``kind`` is positional-only so a field may itself be named
        ``kind`` (phase events forward arbitrary caller fields).  The
        event tuple is fully constructed before the single atomic slot
        store publishes it, so readers can never see a torn event; the
        per-process sequence number orders events across threads.
        """
        seq = next(self._seq)
        event = (
            seq, time.time(), self._clock(), threading.get_ident(),
            kind, fields,
        )
        self._slots[(seq - 1) % self.capacity] = event
        if kind in self.trigger_kinds:
            self._maybe_auto_dump(kind)

    def phase(self, name: str, **fields) -> _Phase:
        """Context manager: time a pipeline phase, record one event."""
        return _Phase(self, name, fields)

    # -- reading -----------------------------------------------------------
    def snapshot(self, last_seconds: float | None = None) -> list[dict]:
        """Self-consistent copy of the retained events, oldest first.

        The slot list is copied in one atomic slice (writers never
        block); events are then ordered by monotonic timestamp, with the
        sequence number as the tiebreaker, so the returned timeline is
        monotonic by construction.  ``last_seconds`` bounds the horizon
        (default: everything retained).
        """
        slots = self._slots[:]
        horizon = None
        if last_seconds is not None:
            horizon = self._clock() - float(last_seconds)
        events = [
            ev for ev in slots
            if ev is not None and (horizon is None or ev[2] >= horizon)
        ]
        events.sort(key=lambda ev: (ev[2], ev[0]))
        # Reserved keys win over same-named caller fields (a phase may
        # legitimately carry a ``kind=`` field of its own).
        return [
            {
                **fields,
                "seq": seq, "wall": wall, "mono": mono, "thread": thread,
                "kind": kind,
            }
            for seq, wall, mono, thread, kind, fields in events
        ]

    def info(self) -> dict:
        """Summary for ``health``/``stats`` collectors."""
        slots = self._slots[:]
        retained = sum(1 for ev in slots if ev is not None)
        newest = max((ev[0] for ev in slots if ev is not None), default=0)
        return {
            "enabled": True,
            "capacity": self.capacity,
            "retained": retained,
            "recorded": newest,
            "dumps": self._dumps,
            "dump_failures": self._dump_failures,
            "dump_dir": self.dump_dir or "",
        }

    # -- dumping -----------------------------------------------------------
    def on_dump(self, hook: Callable[[str, str], None]) -> None:
        """Register ``hook(path, reason)`` called after each dump."""
        self._on_dump.append(hook)

    def dump(self, reason: str = "manual", path: str | None = None,
             last_seconds: float | None = None) -> str | None:
        """Serialize the last window of events to JSONL; returns the path.

        The first line is a header record (``"kind": "flightrec.header"``)
        carrying the process label, reason, and wall epoch; every
        following line is one event.  With neither ``path`` nor a
        configured ``dump_dir`` the dump is skipped (returns ``None``).
        """
        if path is None:
            if self.dump_dir is None:
                return None
            os.makedirs(self.dump_dir, exist_ok=True)
            stamp = time.strftime("%Y%m%d-%H%M%S")
            safe = "".join(c if c.isalnum() or c in "._-" else "_"
                           for c in reason)
            path = os.path.join(
                self.dump_dir, f"flightrec-{stamp}-{safe}.jsonl"
            )
        events = self.snapshot(
            last_seconds if last_seconds is not None else self.window
        )
        header = {
            "kind": "flightrec.header",
            "process": self.process,
            "reason": reason,
            "wall": time.time(),
            "events": len(events),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for event in events:
                fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        self._dumps += 1
        for hook in self._on_dump:
            try:
                hook(path, reason)
            except Exception:
                pass  # observability must never take down the caller
        return path

    def _maybe_auto_dump(self, kind: str) -> None:
        if self.dump_dir is None:
            return
        now = self._clock()
        with self._dump_lock:
            if now - self._last_dump < self.dump_interval:
                return
            self._last_dump = now
        try:
            self.dump(reason=kind)
        except Exception:
            # A full disk must not turn one shed into a crash loop.
            self._dump_failures += 1


def install_signal_dump(recorder: FlightRecorder, signum=None) -> bool:
    """Install a SIGUSR2 handler that dumps ``recorder`` on demand.

    Returns ``False`` (and installs nothing) off the main thread or on
    platforms without ``SIGUSR2`` — callers treat the signal hook as
    opportunistic sugar, never a requirement.
    """
    import signal

    if threading.current_thread() is not threading.main_thread():
        return False
    if signum is None:
        signum = getattr(signal, "SIGUSR2", None)
        if signum is None:
            return False

    def _handler(_signum, _frame):
        recorder.dump(reason="signal")

    signal.signal(signum, _handler)
    return True
