"""Compare two ledger records: ``python3 perf/compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians, both spreads
and the bound.  Verdicts, B against A:

* ``worse`` / ``better`` — the median moved by more than the bound;
* ``same`` — it did not;
* ``unresolved`` — a run-to-run spread exceeds the bound, so the runs cannot
  tell (unless every run of B beats every run of A, which is ``better``).

A rise of ``failed_share`` is always ``worse``.  Exit code 1 on any
``worse`` row.
"""

from __future__ import annotations

import json
import sys


def worsening(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative: B is better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def verdict(a: dict, b: dict) -> str:
    """``a`` and ``b`` are one metric's entries from two records."""
    bound, better = a["bound"], a["better"]
    change = worsening(a["median"], b["median"], better)
    if max(a["spread"], b["spread"]) > bound:
        if better == "lower":
            b_wins = max(b["runs"]) < min(a["runs"])
        else:
            b_wins = min(b["runs"]) > max(a["runs"])
        return "better" if b_wins else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(record_a: dict, record_b: dict) -> list[tuple]:
    """Rows ``(workload, metric, median_a, spread_a, median_b, spread_b,
    bound, verdict)`` for every workload and metric of A."""
    rows = []
    for workload, entry_a in record_a["workloads"].items():
        entry_b = record_b["workloads"][workload]
        for metric, a in entry_a["end_to_end"].items():
            b = entry_b["end_to_end"][metric]
            rows.append((workload, metric, a["median"], a["spread"],
                         b["median"], b["spread"], a["bound"], verdict(a, b)))
        fa, fb = entry_a["failed_share"], entry_b["failed_share"]
        rows.append((workload, "failed_share", fa, 0.0, fb, 0.0, 0.0,
                     "worse" if fb > fa else "same"))
    return rows


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    rows = compare(*records)
    print(f"{'workload':16s} {'metric':15s} {'A':>10s} {'spread':>7s} "
          f"{'B':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, metric, a, sa, b, sb, bound, word in rows:
        print(f"{workload:16s} {metric:15s} {a:10.4g} {sa:7.3f} "
              f"{b:10.4g} {sb:7.3f} {bound:6.2f}  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
