"""One traced and one untraced job of every workload through the benchmark's loop.

``perfbench/run.py --trace 1`` exits 1 when ``tracing.install`` cannot find a
name it hooks, when a traced job's span self times do not account for its wall
time within 1%, or when a job has other than one root span.  These tests run
the two jobs through ``run.Loop`` and ``run.trace_metrics`` as the runner
does, so those failures show up in every ``pytest`` run, and they check the
scalar layer's counts for the traced jobs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.Loop imports workloads and tracing
    spec = importlib.util.spec_from_file_location("_mcforge_bench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("workloads", "tracing"):
        sys.modules.pop(name, None)


def test_traced_rational_solve_job(bench_run):
    from tracing import Tracer

    for seed in (1, 2):
        tracer = Tracer()
        loop = bench_run.Loop("rational-solve", seed, tracer)
        traced_s = loop.run_job(1, traced=True)
        untraced_s = loop.run_job(2, traced=False)
        assert loop.failed == 0
        metrics = bench_run.trace_metrics(tracer, [1], [traced_s], [untraced_s],
                                          loop.source.points.redraws)
        # sympy's cancel never runs: the field cancels every value, and the
        # genericity ledger normalizes its entries in the field too (5 calls
        # in this job when it went through sympy's simplifier, 8 839 when
        # every ScalarExpr was cancelled)
        assert metrics["kernel.cancel_calls"][0] == 0
        # the parser's non-constant divisors and the eliminator's non-constant
        # pivots reach the ledger, one call each; each system eliminates each
        # order once however many solves read it (the second solve of an input
        # used to eliminate every pivot again: 38 calls), and the count does
        # not depend on how the seed orders the equation lines
        assert metrics["kernel.assumptions"][0] == 24
        # a constant is never a ScalarExpr, so none is zero
        assert metrics["kernel.scalar_zero_frac"][0] == 0


def _traced_and_untraced(bench_run, workload, seed):
    from tracing import Tracer

    tracer = Tracer()
    loop = bench_run.Loop(workload, seed, tracer)
    traced_s = loop.run_job(1, traced=True)
    untraced_s = loop.run_job(2, traced=False)
    assert loop.failed == 0
    return bench_run.trace_metrics(tracer, [1], [traced_s], [untraced_s],
                                   loop.source.points.redraws)


def test_traced_diffeo_d2_job(bench_run):
    for seed in (1, 2):
        metrics = _traced_and_untraced(bench_run, "diffeo-d2", seed)
        # every coefficient of the diffeomorphism group is a plain int: no
        # ScalarExpr at all in this job (1 102 when the coefficients of the
        # returned forms were wrapped, 11 573 when every product was)
        assert metrics["kernel.scalar_new"][0] == 0
        assert metrics["kernel.scalar_zero_frac"][0] == 0
        assert metrics["kernel.cancel_calls"][0] == 0
        assert metrics["structure.basis_size"][0] > 0


def test_traced_duality_job(bench_run):
    for seed in (1, 2):
        metrics = _traced_and_untraced(bench_run, "duality", seed)
        assert metrics["jetalg.pairings"][0] > 0
        assert metrics["kernel.scalar_zero_frac"][0] == 0
        assert metrics["kernel.cancel_calls"][0] == 0
