"""Self-test of the benchmark's correctness gate and tracer.

    python3 perfbench/selftest.py

Shows that the gate cannot pass vacuously: a corrupted reference digest and
a hand-flipped structure coefficient must each be reported as a failure,
while the untouched inputs pass.  Also checks that the tracer restores every
function it wraps, that it stops on a function wrapped twice, and that the
metric names and units printed by run.py match BENCHMARK.json.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import REFERENCE, JobSource, run_input  # noqa: E402


def flip_first_coefficient(eqs) -> None:
    """Negate one nonzero coefficient of the first non-trivial structure equation."""
    for g in eqs.basis:
        two = eqs.equations[g]
        if two.terms:
            key = next(iter(two.terms))
            two.terms[key] = -two.terms[key]
            return
    raise AssertionError("no structure equation has a term to flip")


def gate_cases(reference: dict):
    """(description, workload, input, reference, tamper, expected problem or None)."""
    corrupted = copy.deepcopy(reference)
    digest = corrupted["translation_o3"]["digest"]
    corrupted["translation_o3"]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    return [
        ("untouched translation_o3", "rational-solve", "translation_o3", reference, None, None),
        ("untouched essential_o3", "rational-solve", "essential_o3", reference, None, None),
        ("untouched coframe", "rational-solve", "coframe", reference, None, None),
        ("untouched duality_essential_o1", "duality", "duality_essential_o1", reference, None, None),
        ("corrupted reference digest", "rational-solve", "translation_o3", corrupted, None,
         "output digest"),
        ("flipped coefficient, rendered output", "rational-solve", "essential_o3",
         reference, flip_first_coefficient, "output digest"),
        ("flipped coefficient, duality check", "duality", "duality_essential_o1",
         reference, flip_first_coefficient, "duality violations"),
    ]


def check_tracer_restores() -> bool:
    from mcforge import detsys, jetalg, kernel, structure
    from tracing import Tracer, install
    before = (detsys.solve_to_order, structure.solve_to_order, jetalg.solve_to_order,
              structure.reduce_two, kernel.ScalarExpr.__init__, kernel.sp.cancel)
    uninstall = install(Tracer())
    wrapped = (detsys.solve_to_order, structure.solve_to_order, jetalg.solve_to_order,
               structure.reduce_two, kernel.ScalarExpr.__init__, kernel.sp.cancel)
    # one wrapper per original function, shared by every module that imported it
    shared = detsys.solve_to_order is structure.solve_to_order is jetalg.solve_to_order
    uninstall()
    after = (detsys.solve_to_order, structure.solve_to_order, jetalg.solve_to_order,
             structure.reduce_two, kernel.ScalarExpr.__init__, kernel.sp.cancel)
    return (shared and all(a is not b for a, b in zip(before, wrapped))
            and all(a is b for a, b in zip(before, after)))


def check_wrapped_twice() -> bool:
    """A function wrapped twice raises, whether its spans are recorded or aggregated."""
    import sympy
    from mcforge import detsys
    from tracing import Tracer, install
    from workloads import source_texts
    tracer = Tracer()
    undo = [install(tracer), install(tracer)]
    x = sympy.Symbol("x")
    caught = []
    try:
        for call in (lambda: detsys.parse_system(source_texts()["essential"]),  # recorded
                     lambda: sympy.cancel(x / x)):  # aggregate
            try:
                call()
                caught.append(False)
            except AssertionError as exc:
                caught.append("wrapped twice" in str(exc))
    finally:
        for uninstall in reversed(undo):
            uninstall()
    return caught == [True, True]


def check_metric_table() -> bool:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed_layer = {name: entry[0] for name, entry in run.PER_LAYER.items()}
    printed_layer.update(run.TRACE_RUN)
    return declared_e2e == run.END_TO_END and declared_layer == printed_layer


def main() -> int:
    reference = json.loads(REFERENCE.read_text())
    ok = True
    for description, workload, name, ref, tamper, expected in gate_cases(reference):
        source = JobSource(workload, seed=0)
        _, texts = source.next_job()
        problems, _ = run_input(source, name, texts, ref, tamper)
        if expected is None:
            good = not problems
        else:  # exactly the expected kind of failure, not some other error
            good = len(problems) == 1 and expected in problems[0]
        ok &= good
        verdict = "failure" if problems else "pass"
        print(f"{'ok  ' if good else 'BAD '} {description}: gate reports {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    loop = run.Loop("rational-solve", seed=0)
    loop.reference = gate_cases(reference)[4][3]  # the corrupted digest
    loop.run_job(0, traced=False)
    counted = (loop.attempted, loop.failed) == (1, 1)
    for description, result in [("a failing input fails its job in the loop", counted),
                                ("tracer restores wrapped functions", check_tracer_restores()),
                                ("tracer stops a function wrapped twice",
                                 check_wrapped_twice()),
                                ("metric names and units match BENCHMARK.json",
                                 check_metric_table())]:
        ok &= result
        print(f"{'ok  ' if result else 'BAD '} {description}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
