"""Record the reference digests and exact counts that the benchmark's gate checks.

    python3 perfbench/record_reference.py

Runs every input of every workload once, on the unpermuted sources, and
writes ``reference.json``.  The references were recorded once; run this
again only when a change is meant to alter the rendered output, and say so
in that change.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from sympy.core.cache import clear_cache  # noqa: E402

from workloads import REFERENCE, WORKLOADS, PointSource, source_texts  # noqa: E402


def main() -> int:
    texts = source_texts()
    points = PointSource(random.Random(0))
    reference = {}
    for inputs in WORKLOADS.values():
        for name, run in inputs.items():
            clear_cache()
            outcome = run(texts, points)
            if outcome.problems:
                sys.exit(f"{name}: {outcome.problems}")
            entry = {}
            if outcome.digest is not None:
                entry["digest"] = outcome.digest
            if outcome.counts:
                entry["counts"] = outcome.counts
            reference[name] = entry
            print(name, entry)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
