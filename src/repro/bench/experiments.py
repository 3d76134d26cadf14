"""Per-figure/table experiment definitions.

Each ``run_*`` function reproduces one artifact of the paper's evaluation
as a list of row dicts (printable with
:func:`~repro.bench.reporting.print_table`).  DESIGN.md §4 maps artifacts
to these functions; EXPERIMENTS.md records measured-vs-paper shapes.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import CODECS, CONTOUR_VALUES, BenchEnv
from repro.core.encoding import encode_selection, wire_size

__all__ = [
    "run_fig1",
    "run_fig5_sizes",
    "run_fig5_remote",
    "run_fig5_local",
    "run_fig6",
    "run_fig13",
    "run_table2",
    "run_fig14",
    "run_encoding_ablation",
    "run_link_sweep",
]


# ---------------------------------------------------------------------------
# Fig. 1 — reduction-ratio ranges: compression vs contour-based selection
# ---------------------------------------------------------------------------

def run_fig1(env: BenchEnv, array: str = "v02") -> list[dict]:
    """Reduction ratios across timesteps and contour values.

    Compression rows report ``raw / stored``; the NDP row reports
    ``raw / selection-wire-bytes`` over contour values 0.1..0.9 — the
    paper's "7 orders of magnitude" candidate.
    """
    gzip_r, lz4_r, ndp_r = [], [], []
    for step in env.timesteps:
        sizes = env.stored_sizes("asteroid", step, array)
        raw = sizes["raw"]
        gzip_r.append(raw / sizes["gzip"])
        lz4_r.append(raw / sizes["lz4"])
        for v in CONTOUR_VALUES:
            sel = env.selection("asteroid", step, array, [v])
            wire = wire_size(encode_selection(sel))
            ndp_r.append(raw / wire)
    rows = []
    for name, ratios in (("gzip", gzip_r), ("lz4", lz4_r), ("contour-selection", ndp_r)):
        rows.append(
            {
                "technique": name,
                "min_ratio": float(np.min(ratios)),
                "median_ratio": float(np.median(ratios)),
                "max_ratio": float(np.max(ratios)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 5 — compression sizes and load times (remote + local placements)
# ---------------------------------------------------------------------------

def run_fig5_sizes(env: BenchEnv, array: str) -> list[dict]:
    """Fig. 5a/5d: stored sizes (MB) per codec per timestep."""
    rows = []
    for step in env.timesteps:
        sizes = env.stored_sizes("asteroid", step, array)
        rows.append(
            {
                "timestep": step,
                "raw_mb": sizes["raw"] / 1e6,
                "gzip_mb": sizes["gzip"] / 1e6,
                "lz4_mb": sizes["lz4"] / 1e6,
                "gzip_ratio": sizes["raw"] / sizes["gzip"],
                "lz4_ratio": sizes["raw"] / sizes["lz4"],
            }
        )
    return rows


def _fig5_times(env: BenchEnv, array: str, local: bool) -> list[dict]:
    rows = []
    for step in env.timesteps:
        row = {"timestep": step}
        for codec in CODECS:
            _, res = env.baseline_load("asteroid", codec, step, array, local=local)
            row[f"{codec}_s"] = res.seconds
        rows.append(row)
    return rows


def run_fig5_remote(env: BenchEnv, array: str) -> list[dict]:
    """Fig. 5b/5e: load times through the remote mount (1 GbE)."""
    return _fig5_times(env, array, local=False)


def run_fig5_local(env: BenchEnv, array: str) -> list[dict]:
    """Fig. 5c/5f: load times from a local filesystem (LZ4 beats GZip)."""
    return _fig5_times(env, array, local=True)


# ---------------------------------------------------------------------------
# Fig. 6 — data selection rates (permillage)
# ---------------------------------------------------------------------------

def run_fig6(env: BenchEnv, array: str) -> list[dict]:
    rows = []
    for step in env.timesteps:
        row = {"timestep": step}
        for v in CONTOUR_VALUES:
            row[f"val{v:g}"] = env.selection_permillage("asteroid", step, array, [v])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — baseline vs NDP load times, per codec/array/contour value
# ---------------------------------------------------------------------------

def run_fig13(env: BenchEnv, array: str, codec: str,
              values=CONTOUR_VALUES) -> list[dict]:
    """One Fig. 13 subfigure: rows = timesteps, columns = baseline + NDP
    per contour value."""
    rows = []
    for step in env.timesteps:
        _, base = env.baseline_load("asteroid", codec, step, array)
        row = {"timestep": step, "baseline_s": base.seconds}
        for v in values:
            _, ndp = env.ndp_load("asteroid", codec, step, array, [v])
            row[f"ndp{v:g}_s"] = ndp.seconds
        row["speedup_at_0.1"] = row["baseline_s"] / row["ndp0.1_s"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table II — speedup matrix over technique combinations
# ---------------------------------------------------------------------------

def run_table2(env: BenchEnv, arrays=("v02", "v03"),
               values=CONTOUR_VALUES) -> list[dict]:
    """Speedups in total (summed over timesteps) data load time, relative
    to the RAW baseline — the paper's Table II."""
    rows = []
    for array in arrays:
        base_total = {codec: 0.0 for codec in CODECS}
        for codec in CODECS:
            for step in env.timesteps:
                _, res = env.baseline_load("asteroid", codec, step, array)
                base_total[codec] += res.seconds
        raw_total = base_total["raw"]
        for v in values:
            ndp_total = {codec: 0.0 for codec in CODECS}
            for codec in CODECS:
                for step in env.timesteps:
                    _, res = env.ndp_load("asteroid", codec, step, array, [v])
                    ndp_total[codec] += res.seconds
            rows.append(
                {
                    "array": array,
                    "value": v,
                    "RAW": 1.0,
                    "NDP": raw_total / ndp_total["raw"],
                    "GZip": raw_total / base_total["gzip"],
                    "LZ4": raw_total / base_total["lz4"],
                    "GZip+NDP": raw_total / ndp_total["gzip"],
                    "LZ4+NDP": raw_total / ndp_total["lz4"],
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 14 — Nyx dataset load times
# ---------------------------------------------------------------------------

def run_fig14(env: BenchEnv, threshold: float = 81.66) -> list[dict]:
    """Baseline vs NDP on the Nyx baryon-density halo contour."""
    rows = []
    for codec in CODECS:
        _, base = env.baseline_load("nyx", codec, 0, "baryon_density")
        _, ndp = env.ndp_load("nyx", codec, 0, "baryon_density", [threshold])
        rows.append(
            {
                "codec": codec,
                "baseline_s": base.seconds,
                "ndp_s": ndp.seconds,
                "speedup": base.seconds / ndp.seconds,
                "stored_mb": base.stored_bytes / 1e6,
                "ndp_net_kb": ndp.network_bytes / 1e3,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Ablations (beyond the paper)
# ---------------------------------------------------------------------------

def run_encoding_ablation(env: BenchEnv, array: str = "v02") -> list[dict]:
    """Wire size of each selection encoding across timesteps, plus the
    effect of compressing the payload (the NDP server's default)."""
    rows = []
    for step in env.timesteps:
        sel = env.selection("asteroid", step, array, list(CONTOUR_VALUES))
        row = {"timestep": step, "permillage": sel.permillage}
        for method in ("ids", "bitmap", "auto"):
            row[f"{method}_kb"] = wire_size(encode_selection(sel, method)) / 1e3
        for codec in ("lz4", "gzip"):
            row[f"auto+{codec}_kb"] = (
                wire_size(encode_selection(sel, "auto", payload_codec=codec)) / 1e3
            )
        rows.append(row)
    return rows


def run_link_sweep(env: BenchEnv, array: str = "v02",
                   ratios=(0.25, 0.5, 1.0, 2.0, 4.0)) -> list[dict]:
    """NDP speedup vs network:SSD bandwidth ratio.

    The paper notes NDP's gain is "upperbounded by local data read times";
    sweeping the link speed shows the crossover explicitly.
    """
    rows = []
    base_net = env.testbed.net.bandwidth_bps
    step = env.timesteps[len(env.timesteps) // 2]
    try:
        for ratio in ratios:
            env.testbed.net.bandwidth_bps = env.testbed.ssd_bps * ratio
            _, base = env.baseline_load("asteroid", "raw", step, array)
            _, ndp = env.ndp_load("asteroid", "raw", step, array, [0.1])
            rows.append(
                {
                    "net_over_ssd": ratio,
                    "baseline_s": base.seconds,
                    "ndp_s": ndp.seconds,
                    "speedup": base.seconds / ndp.seconds,
                }
            )
    finally:
        env.testbed.net.bandwidth_bps = base_net
    return rows
