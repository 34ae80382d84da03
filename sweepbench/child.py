"""One workload instance in a fresh interpreter: set-up, timed passes, checks.

``run.py`` starts this script once per sample, so every sample pays its
own imports and set-up and finds the process-wide shape/metrics cache
empty.  It prints one JSON object as its last line of output.

    python3 sweepbench/child.py --workload table1-cold --seed 0 \
        --t0 <time.monotonic() at spawn> --work .sweepbench/w0 [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: How the recorded shape-fault defect surfaces: the state of a particle
#: added mid-run is missing (``KeyError``), or DLE's own Claim 10 check
#: trips on it first.
DEFECT_ERRORS = ("KeyError", "repro.core.dle.LeaderElectionError")


def _known_defect(config_dict: Dict[str, Any], error: Optional[str]) -> bool:
    """Whether a config failed by the recorded shape-fault defect."""
    lines = (error or "").strip().splitlines()
    return ("shape:" in str(config_dict.get("faults", ""))
            and bool(lines) and lines[-1].split(":", 1)[0] in DEFECT_ERRORS)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the spans here when tracing")
    args = parser.parse_args(argv)

    import repro
    from repro.io import records_to_dicts
    from repro.orchestrator import run_sweep

    source = Path(repro.__file__).resolve()
    if Path.cwd().resolve() / "src" not in source.parents:
        raise SystemExit(f"imported repro from {source}, not from ./src")

    import checks
    import report
    import workloads

    tracer = installation = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        if installation.missing:
            print(f"not wrapped (gone from the program): {installation.missing}",
                  file=sys.stderr)

    workload = workloads.make_workload(args.workload, args.seed, args.work)
    workload.setup()
    passes = workload.passes()
    setup_s = time.monotonic() - args.t0

    outcomes = []
    if tracer is not None:
        tracer.active = True
    for sweep_pass in passes:
        stamps: List[Any] = []

        def progress(_done: int, _total: int, result: Any) -> None:
            stamps.append((time.perf_counter(), result))

        root = tracer.begin("sweep") if tracer is not None else None
        start = time.perf_counter()
        result = run_sweep(workload.configs, progress=progress, **sweep_pass.kwargs)
        end = time.perf_counter()
        if tracer is not None:
            tracer.end(root)
        outcomes.append((sweep_pass, start, end, stamps, result))
    if tracer is not None:
        tracer.active = False
        installation.uninstall()

    reference = (checks.load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    checker = checks.Checker(reference)
    unexpected: List[str] = []
    intervals: List[float] = []
    wall_s = 0.0
    #: repeat -> [configs, wall seconds]
    repeats: Dict[int, List[float]] = {}
    for sweep_pass, start, end, stamps, result in outcomes:
        wall_s += end - start
        totals = repeats.setdefault(sweep_pass.repeat, [0, 0.0])
        totals[0] += len(result.results)
        totals[1] += end - start
        previous = start
        for stamp, run in stamps:
            intervals.append(stamp - previous)
            previous = stamp
        for run in result.results:
            config_dict = run.config.to_dict()
            record = records_to_dicts([run.record])[0] if run.ok else None
            problems = checker.check(config_dict, record, run.error)
            if problems and not (record is None and _known_defect(config_dict, run.error)):
                unexpected.append(f"{run.config.describe()}: {'; '.join(problems)}")

    sample: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "repeats": list(repeats.values()),
        "intervals": intervals,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "unexpected": len(unexpected),
        "unexpected_examples": unexpected[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": tracer is not None,
        "layers": {},
    }
    if tracer is not None:
        sample["layers"].update(report.layer_metrics(tracer.spans, tracer.counts,
                                                     wall_s))
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
