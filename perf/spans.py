"""In-memory span recorder for the traced run (benchmark-side only).

A span is (id, parent, name, request, start, end); spans of one request
share its ``workload/round/index`` id.  Spans stay in memory and are written
as JSON lines when the run ends.  Self time is a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    request: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """One per tenant: spans of different tenants never nest."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[Span] = []

    @property
    def current(self) -> Span:
        """The innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.request,
                    time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> dict[int, float]:
    """``span id -> duration minus its direct children`` (one recorder's
    spans: ids are that recorder's list positions)."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


def write_jsonl(recorders: dict, path: str) -> None:
    """One line per span; ``recorder`` tells apart the per-thread id spaces."""
    with open(path, "w") as fh:
        for label, recorder in recorders.items():
            for span in recorder.spans:
                fh.write(json.dumps(dict(asdict(span), recorder=label)) + "\n")


def read_jsonl(path: str) -> dict[str, list[Span]]:
    """``recorder label -> spans``, as :func:`write_jsonl` wrote them."""
    out: dict[str, list[Span]] = {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            out.setdefault(row.pop("recorder"), []).append(Span(**row))
    return out


REPLAY = "_replay"  # label of the recorder that holds the replayed half


def main(argv=None) -> int:
    """``python3 perf/spans.py TRACE.jsonl``: self time per span name, the
    real path (``rpc.tcp`` is the server, opaque) apart from the replay of
    the server half (as if every cache missed; a sample of the requests)."""
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 1:
        print(main.__doc__, file=sys.stderr)
        return 2
    tables: dict[str, dict[str, float]] = {"real path": {}, "replay": {}}
    for label, recorder_spans in read_jsonl(paths[0]).items():
        totals = tables["replay" if label == REPLAY else "real path"]
        for name, seconds in self_time_by_name(recorder_spans).items():
            totals[name] = totals.get(name, 0.0) + seconds
    for title, totals in tables.items():
        whole = sum(totals.values())
        print(f"{title}: {whole * 1e3:.0f} ms")
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {seconds * 1e3:10.1f} ms self "
                  f"{seconds / whole:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
