"""One-off check of the graded-wide oracle that no published series covers.

``transpositions:3`` with the constant zeta_3 cocycle is expected to give
graded dimensions 1, 3, 9, 21, 50, 111 up to degree 5.  This recomputes
them, and the same on a relabeled copy of the rack, with the dense oracle
of the test suite (``tests/oracle_dense.py``), which shares no code with
``rackcover.nichols``.  It takes about 20 s on a 2-CPU Xeon.

    python3 perfbench/crosscheck.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracle_dense import oracle_graded_dims  # noqa: E402
from rackcover.braiding import BraidedSpace, Cocycle  # noqa: E402
from rackcover.racks import catalog  # noqa: E402

from workloads import T3_ZETA3_DIMS  # noqa: E402


def main() -> int:
    failures = 0
    for perm in ((0, 1, 2), (2, 0, 1)):
        rack = catalog("transpositions:3").relabel(perm)
        space = BraidedSpace(rack, Cocycle.constant(rack, 3, 1))
        dims = oracle_graded_dims(space, len(T3_ZETA3_DIMS) - 1)
        ok = dims == list(T3_ZETA3_DIMS)
        failures += not ok
        print(f"relabeling {perm}: {dims} {'ok' if ok else 'MISMATCH'}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
