"""Output checks: which configs of a sweep count toward ``error_frac``.

A config counts as failed when its run raised, or when its record breaks
an invariant that must hold whatever the program's speed:

* metrics ordered ``D_G <= D_A <= D``, and ``n`` equal to the shape size;
* ``succeeded`` on every fault-free ``dle`` / ``obd+dle+collect`` config,
  and on fault-free ``erosion`` where the shape has no holes;
* at the default seed, the record equal to the one committed under
  ``reference/`` (compared by a hash of its canonical JSON).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Algorithms that must elect a leader on every fault-free config.
MUST_SUCCEED = frozenset({"dle", "obd+dle+collect"})

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ShapeFacts = Callable[[str, int, int], Tuple[int, int]]


def config_key(config_dict: Dict[str, Any]) -> str:
    """Short stable key of a config (its canonical JSON, hashed)."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def record_hash(record_dict: Dict[str, Any]) -> str:
    """Hash of a record's canonical JSON."""
    canonical = json.dumps(record_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def record_violations(config_dict: Dict[str, Any], record_dict: Dict[str, Any],
                      shape_size: int, shape_holes: int,
                      reference: Optional[str] = None) -> List[str]:
    """Every invariant ``record_dict`` breaks (empty when it is sound)."""
    problems = []
    metrics = record_dict.get("metrics", {})
    d_g, d_a, d = metrics.get("D_G"), metrics.get("D_A"), metrics.get("D")
    if not (isinstance(d_g, int) and isinstance(d_a, int) and isinstance(d, int)
            and d_g <= d_a <= d):
        problems.append(f"metrics not ordered D_G <= D_A <= D: {d_g}, {d_a}, {d}")
    if metrics.get("n") != shape_size:
        problems.append(f"n = {metrics.get('n')} but the shape has {shape_size} points")
    algorithm = config_dict.get("algorithm")
    if not config_dict.get("faults"):
        must = algorithm in MUST_SUCCEED or (algorithm == "erosion" and shape_holes == 0)
        if must and record_dict.get("succeeded") is not True:
            problems.append(f"{algorithm} did not succeed on a fault-free config")
    if reference is not None and record_hash(record_dict) != reference:
        problems.append("record differs from the committed reference")
    return problems


def shape_facts() -> ShapeFacts:
    """``(family, size, seed) -> (points, holes)``, memoised."""
    from repro.grid.generators import make_shape

    memo: Dict[Tuple[str, int, int], Tuple[int, int]] = {}

    def facts(family: str, size: int, seed: int) -> Tuple[int, int]:
        key = (family, size, seed)
        if key not in memo:
            shape = make_shape(family, size, seed=seed)
            memo[key] = (len(shape.points), len(shape.holes))
        return memo[key]

    return facts


def load_reference(workload: str) -> Dict[str, str]:
    """``config_key -> record_hash`` committed for the default seed."""
    path = REFERENCE_DIR / f"{workload}.json"
    return dict(json.loads(path.read_text())["records"])


class Checker:
    """Counts attempted and failed configs over one or more sweeps."""

    def __init__(self, reference: Optional[Dict[str, str]] = None,
                 facts: Optional[ShapeFacts] = None) -> None:
        self.reference = reference
        self.facts = facts or shape_facts()
        self.attempted = 0
        self.failed = 0

    def check(self, config_dict: Dict[str, Any], record_dict: Optional[Dict[str, Any]],
              error: Optional[str] = None) -> List[str]:
        """Count one config outcome; returns its problems (empty = passed)."""
        self.attempted += 1
        if record_dict is None:
            last = (error or "no record").strip().splitlines()[-1:]
            problems = [f"raised: {last[0] if last else error}"]
        else:
            points, holes = self.facts(config_dict["family"], int(config_dict["size"]),
                                       int(config_dict["seed"]))
            expected = (self.reference.get(config_key(config_dict))
                        if self.reference is not None else None)
            problems = record_violations(config_dict, record_dict, points, holes,
                                         expected)
        if problems:
            self.failed += 1
        return problems
