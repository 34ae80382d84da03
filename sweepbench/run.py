"""End-to-end sweep benchmark: config list -> flushed ledger lines.

Run from the root of a checkout::

    python3 sweepbench/run.py --workload table1-cold --seed 0 --seconds 25 --trace 0

Starts ``child.py`` in a fresh interpreter once per sample, one after
another, until ``--seconds`` are spent (at least ``MIN_SAMPLES`` samples),
and prints the medians over the samples as the last line of output::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples, prints the per-layer table and reports the
per-layer metrics, the tracing overhead among them.  ``correct`` is false
when any config failed other than by the recorded shape-fault defect
(see README.md), or when a sample failed to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent

#: Samples per run, whatever ``--seconds`` says.
MIN_SAMPLES = 4
#: A sample that runs longer than this is killed and the run fails.
SAMPLE_TIMEOUT_S = 150.0
#: No new sample starts once this much wall time is spent.
RUN_LIMIT_S = 150.0
#: Scratch space for samples, under the checkout (listed in .gitignore).
WORK_ROOT = Path(".sweepbench")


def fail(message: str) -> int:
    print(f"sweepbench: {message}", file=sys.stderr)
    return 2


def run_sample(workload: str, seed: int, trace: bool, index: int) -> Dict[str, Any]:
    """One child process, waited for; raises on failure."""
    work = WORK_ROOT / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--work", str(work)]
    if trace:
        command += ["--trace", "--spans", str(WORK_ROOT / f"spans-{workload}.jsonl")]
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    try:
        completed = subprocess.run(command + ["--t0", repr(time.monotonic())],
                                   env=env, stdout=subprocess.PIPE, text=True,
                                   timeout=SAMPLE_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"sample {index} of {workload} exited with "
                           f"{completed.returncode}")
    return json.loads(lines[-1])


def aggregate_end_to_end(samples: List[Dict[str, Any]]) -> Dict[str, float]:
    from report import median, percentile

    attempted = sum(sample["attempted"] for sample in samples)
    # Every sample sweeps the same configs: pool their completion intervals.
    intervals = [value for sample in samples for value in sample["intervals"]]
    return {
        "configs_per_s": median([configs / wall for s in samples
                                 for configs, wall in s["repeats"]]),
        "config_p50_s": percentile(intervals, 50),
        "config_p90_s": percentile(intervals, 90),
        "error_frac": sum(s["failed"] for s in samples) / attempted,
        "setup_s": median([s["setup_s"] for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
    }


def aggregate_layers(traced: List[Dict[str, Any]],
                     untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    from report import PER_LAYER, median

    metrics = {}
    for name, _unit in PER_LAYER:
        values = [sample["layers"][name] for sample in traced
                  if name in sample["layers"]]
        metrics[name] = median(values) if values else 0.0
    metrics["trace.overhead"] = (median([s["wall_s"] for s in traced])
                                 / median([s["wall_s"] for s in untraced]))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end sweep benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "repro" / "__init__.py").is_file():
        return fail("run from the root of a checkout: ./src/repro is missing")
    sys.path.insert(0, str(Path("src").resolve()))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")

    started = time.monotonic()
    samples: List[Dict[str, Any]] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        enough = len(samples) >= MIN_SAMPLES * (2 if args.trace else 1)
        if enough and (elapsed + longest > args.seconds or elapsed + longest > RUN_LIMIT_S):
            break
        # With --trace 1, even samples run untraced and odd ones traced.
        traced = bool(args.trace) and len(samples) % 2 == 1
        before = time.monotonic()
        try:
            samples.append(run_sample(args.workload, args.seed, traced, len(samples)))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            return fail(str(exc))
        longest = max(longest, time.monotonic() - before)

    untraced = [sample for sample in samples if not sample["traced"]]
    traced = [sample for sample in samples if sample["traced"]]
    if args.trace:
        from report import PER_LAYER, format_table

        values = aggregate_layers(traced, untraced)
        print(format_table(args.workload, values))
        units = dict(PER_LAYER)
    else:
        from report import END_TO_END

        values = aggregate_end_to_end(untraced)
        units = dict(END_TO_END)
    for sample in samples:
        for example in sample["unexpected_examples"]:
            print(f"unexpected failure: {example}", file=sys.stderr)
    result = {
        "correct": all(sample["unexpected"] == 0 for sample in samples),
        "attempted": sum(sample["attempted"] for sample in samples),
        "failed": sum(sample["failed"] for sample in samples),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
