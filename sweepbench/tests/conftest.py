"""Makes the benchmark's modules (and ./src) importable for its tests.

Run from the root of a checkout::

    python3 -m pytest sweepbench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
