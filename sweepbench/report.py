"""Metric names, units, statistics and the per-layer roll-up of a trace."""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Sequence, Tuple

from tracing import Span, rollup, sim_span_name, SIM_ALGORITHMS

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: ``(name, unit)`` of every end-to-end metric (untraced runs).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("configs_per_s", "configs/s"),
    ("config_p50_s", "s"),
    ("config_p90_s", "s"),
    ("error_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

_SIM = tuple(sim_span_name(algorithm) for algorithm in SIM_ALGORITHMS)

#: Span names reported with ``.calls`` / ``.busy_s``.
CALLS = ("grid.make_shape", "grid.compute_metrics", "grid.diameter_within",
         "amoebot.scheduler_run") + _SIM + (
         "state.write_checkpoint", "state.read_checkpoint", "session.execute",
         "cache.get", "cache.put", "ledger.append")
BUSY = ("grid.make_shape", "grid.compute_metrics", "grid.diameter_within",
        "grid.grid_diameter", "amoebot.scheduler_run") + _SIM + (
        "core.obd", "core.collect", "state.write_checkpoint", "session.execute",
        "cache.get", "cache.put", "ledger.append", "ledger.completed",
        "ledger.failures", "io.records_to_dicts", "io.records_from_dicts")
#: Layers reported with ``.self_s``; the transport layer's self time is
#: reported as ``transport.wait_s``.
SELF_LAYERS = ("grid", "amoebot", "sim", "state", "session", "cache", "ledger",
               "io", "sweep")

#: ``(name, unit)`` of every per-layer metric (traced runs).
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [(f"{name}.calls", "count") for name in CALLS]
    + [(f"{name}.busy_s", "s") for name in BUSY]
    + [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
    + [(f"{name}.errors", "count") for name in _SIM]
    + [("amoebot.rounds", "count"), ("amoebot.activations", "count"),
       ("amoebot.moves", "count"), ("state.write_checkpoint.bytes", "bytes"),
       ("grid.compute_metrics.share", "ratio"), ("cache.hit_ratio", "ratio"),
       ("transport.wait_s", "s"), ("trace.wall_s", "s"), ("trace.accounted_frac", "ratio"),
       ("trace.overhead", "ratio"), ("trace.spans", "count")])


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def layer_metrics(spans: Sequence[Span], counts: Mapping[str, float],
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced process; ``wall_s`` is its timed
    wall time (all passes)."""
    roll = rollup(spans)
    metrics: Dict[str, float] = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = float(roll.calls[name])
    for name in BUSY:
        metrics[f"{name}.busy_s"] = roll.busy[name]
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = roll.layer_self[layer]
    for name in _SIM:
        metrics[f"{name}.errors"] = float(counts.get(f"{name}.errors", 0))
    for name in ("amoebot.rounds", "amoebot.activations", "amoebot.moves",
                 "state.write_checkpoint.bytes"):
        metrics[name] = float(counts.get(name, 0))
    metrics["grid.compute_metrics.share"] = (
        roll.busy["grid.compute_metrics"] / wall_s if wall_s else 0.0)
    gets = roll.calls["cache.get"]
    metrics["cache.hit_ratio"] = counts.get("cache.get.hits", 0) / gets if gets else 0.0
    metrics["transport.wait_s"] = roll.layer_self["transport"]
    metrics["trace.wall_s"] = wall_s
    metrics["trace.accounted_frac"] = roll.rooted_self / wall_s if wall_s else 0.0
    metrics["trace.spans"] = float(len(spans))
    return metrics


def format_table(workload: str, metrics: Mapping[str, float]) -> str:
    """The per-layer table, one row per layer."""
    rows: Dict[str, List[str]] = {}
    for name, unit in PER_LAYER:
        if name not in metrics:
            continue
        layer = name.split(".", 1)[0]
        value = metrics[name]
        shown = f"{value:.6g}" if unit != "count" else f"{value:.0f}"
        rows.setdefault(layer, []).append(f"{name.split('.', 1)[1]}={shown}")
    lines = [f"per-layer metrics, workload {workload} (times in s):"]
    width = max(len(layer) for layer in rows) if rows else 0
    for layer, cells in rows.items():
        lines.append(f"  {layer.ljust(width)}  " + "  ".join(cells))
    return "\n".join(lines)
