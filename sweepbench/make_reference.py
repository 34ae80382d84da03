"""Regenerate ``reference/<workload>.json``: record hashes at the default seed.

    python3 sweepbench/make_reference.py [WORKLOAD ...]

Runs every config of each workload once, in process, with no cache, and
stores ``config_key -> record_hash`` for the configs that produced a
record.  Configs that raise are left out, so a later fix that makes them
produce a record is checked by the invariants only.  Regenerate only for
a change that is meant to alter records; the diff of these files is then
part of that change's review.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.io import records_to_dicts
    from repro.orchestrator import run_sweep

    import checks
    import workloads

    names = argv or list(workloads.WORKLOADS)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        configs = workloads.WORKLOADS[name].make_configs(workloads.DEFAULT_SEED)
        result = run_sweep(configs, jobs=1)
        records = {checks.config_key(run.config.to_dict()):
                   checks.record_hash(records_to_dicts([run.record])[0])
                   for run in result.results if run.ok}
        path = checks.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "seed": workloads.DEFAULT_SEED,
                                    "records": records}, indent=0, sort_keys=True)
                        + "\n")
        print(f"{path}: {len(records)} records, "
              f"{len(configs) - len(records)} configs without one")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
