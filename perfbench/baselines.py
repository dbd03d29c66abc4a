"""Time the single cases whose baselines the roadmap quotes.

    python3 perfbench/baselines.py

Each case runs cold (sympy's cache cleared first) and prints the median of
REPEATS runs, separately for building the structure equations and for the
check that follows, so a quoted figure can be matched to what it measured.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPEATS = 3
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from sympy.core.cache import clear_cache  # noqa: E402

from mcforge import detsys, structure  # noqa: E402
from workloads import COORDS, bundled  # noqa: E402


def diffeo(dim):
    return lambda: detsys.DeterminingSystem.empty(COORDS[:dim])


def essential():
    return detsys.parse_system(bundled("cartan_essential.dsys"))


CASES = [  # (label, system factory, order, also time check_d_squared)
    ("d2 diffeo m=2 order 5", diffeo(2), 5, True),
    ("d2 diffeo m=3 order 3", diffeo(3), 3, True),
    ("essential order-3 structure", essential, 3, False),
]


def timed(fn):
    clear_cache()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def main() -> int:
    for label, make, order, with_d2 in CASES:
        build, check = [], []
        for _ in range(REPEATS):
            system = make()
            t, eqs = timed(lambda: structure.pseudo_group_structure(system, order))
            build.append(t)
            if with_d2:
                t, report = timed(lambda: structure.check_d_squared(eqs))
                if not report.ok:
                    sys.exit(f"{label}: nonzero d^2 residue")
                check.append(t)
        line = f"{label}: structure {statistics.median(build):.3f} s"
        if check:
            line += (f", check_d_squared {statistics.median(check):.3f} s"
                     f", together {statistics.median(build) + statistics.median(check):.3f} s")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
