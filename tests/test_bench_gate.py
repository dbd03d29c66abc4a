"""One seeded pass of every benchmark input through the benchmark's own gate.

``perfbench/workloads.py`` checks each input's digest or counts against
``perfbench/reference.json`` (pairing, triple and bracket-table counts on
``duality``, rendered-output digests elsewhere).  Running one job of each
workload here makes every ``pytest`` run check the same things.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "_mcforge_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload", ["diffeo-d2", "rational-solve", "duality"])
def test_one_job_passes_the_gate(workloads, workload):
    reference = json.loads(workloads.REFERENCE.read_text())
    source = workloads.JobSource(workload, seed=1)
    order, texts = source.next_job()
    assert sorted(order) == sorted(workloads.WORKLOADS[workload])
    for name in order:
        problems, _ = workloads.run_input(source, name, texts, reference)
        assert problems == [], name
