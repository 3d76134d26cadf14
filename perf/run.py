"""Wall-clock perf ledger against the default ``repro serve``.

Driver mode (one run, last stdout line is the result object)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Ledger mode (every workload, interleaved untraced runs, then one traced run
each; prints every metric as ``workload name value unit`` and writes the
record ``perf/compare.py`` reads)::

    python3 perf/run.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.quantiles import median, spread  # noqa: E402
from perf.runner import OUT_DIR, run_workload  # noqa: E402
from perf.workloads import DIM, WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
LEDGER_RUNS = 3  # untraced runs per workload in ledger mode, interleaved


def _print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{workload} failed_share {share:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")


def ledger(seed: int, seconds: float, out: Path) -> int:
    """Interleaved runs (A B C D, A B C D, ...), median and spread per
    metric, then one traced run per workload."""
    untraced = {name: [] for name in WORKLOADS}
    for _ in range(LEDGER_RUNS):
        for name in WORKLOADS:
            untraced[name].append(run_workload(name, seed, seconds, False))
    bounds = {m["name"]: m for m in CONTRACT["end_to_end"]}
    record = {
        "meta": {"seed": seed, "seconds": seconds, "runs": LEDGER_RUNS,
                 "dim": DIM,
                 "link": "lan", "nproc": os.cpu_count()},
        "workloads": {},
    }
    failed = 0
    for name in WORKLOADS:
        results = untraced[name]
        traced = run_workload(name, seed, seconds, True)
        end_to_end = {}
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            end_to_end[metric] = {
                "median": median(values), "spread": spread(values),
                "runs": values, "unit": spec["unit"],
                "better": spec["better"], "bound": spec["bound"],
            }
            print(f"{name} {metric} {median(values):.6g} {spec['unit']} "
                  f"(spread {spread(values):.3f} over {LEDGER_RUNS} runs)")
        attempted = sum(r["attempted"] for r in results + [traced])
        run_failed = sum(r["failed"] for r in results + [traced])
        failed += run_failed
        print(f"{name} failed_share {run_failed / attempted:.6g} ratio "
              f"({run_failed} of {attempted})")
        _print_metrics(name, traced)
        record["workloads"][name] = {
            "end_to_end": end_to_end,
            "failed_share": run_failed / attempted,
            "per_layer": traced["metrics"],
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(CONTRACT["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "record.json",
                        help="ledger mode: where the record goes")
    args = parser.parse_args(argv)
    # A terminated benchmark must still stop its server and drop its store.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        return ledger(args.seed, args.seconds, args.out)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    _print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
