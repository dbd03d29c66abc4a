"""Spans and counters recorded around mcforge's public functions.

The tracer wraps functions from the benchmark's side: nothing in ``src/`` is
changed.  Every wrapped call pushes a frame on a stack; when it returns, its
duration is added to the parent's child time, so a span's self time is its
duration minus the time its children covered.  A span that returns directly
inside a span of its own name raises: that is a function wrapped twice.  Spans are kept in memory and
written out when the benchmark ends.

Three kinds of wrapper:

* recorded spans keep one record per call (name, start, end, parent, job);
* aggregate spans, for functions called tens of thousands of times per job
  (``sympy.cancel``, ``jetalg.bracket``), keep only a per-job total of self
  time and calls, but still take part in the self-time accounting;
* counters keep a per-job call count and take no time of their own.

Modules use ``from .x import y``, so one function is bound under several
names (``detsys.solve_to_order`` is also ``structure.solve_to_order`` and
``jetalg.solve_to_order``).  ``install`` creates one wrapper per original
function and rebinds every module attribute that refers to it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import sympy


class Tracer:
    """Span stack, span records and per-job counters for one run."""

    def __init__(self):
        self.records: list[tuple] = []  # (id, name, start, end, parent, job, self_s)
        # (job, name, caller span name) -> [self_s, calls]
        self.aggregates: dict = defaultdict(lambda: [0.0, 0])
        self.counts: dict = defaultdict(int)  # (job, name) -> count
        self._stack: list[list] = []  # [id, name, start, child_s, recorded]
        self._next_id = 0
        self.job = None
        self.derived_orders: list[int] = []  # orders of total derivatives in a prolong call

    # -- spans -----------------------------------------------------------

    def push(self, name: str, recorded: bool = True) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0, recorded])

    def pop(self) -> float:
        end = time.perf_counter()
        span_id, name, start, child_s, recorded = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            if parent[1] == name:  # recorded and aggregate spans alike
                raise AssertionError(f"span {name} called directly inside itself: "
                                     "wrapped twice?")
            parent[3] += duration
        if recorded:
            self.records.append((span_id, name, start, end,
                                 parent[0] if parent else None, self.job, self_s))
        else:
            agg = self.aggregates[(self.job, name, parent[1] if parent else None)]
            agg[0] += self_s
            agg[1] += 1
        return duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.job, name)] += n

    # -- per-job views ---------------------------------------------------

    def job_records(self, job) -> list[tuple]:
        return [r for r in self.records if r[5] == job]

    def self_times(self, job) -> dict[str, float]:
        """Self time per span name for one job, aggregates included."""
        out: dict[str, float] = defaultdict(float)
        for r in self.job_records(job):
            out[r[1]] += r[6]
        for (j, name, _), (self_s, _) in self.aggregates.items():
            if j == job:
                out[name] += self_s
        return out

    def kernel_callers(self, job) -> dict[str, float]:
        """Self time of ``kernel.*`` aggregates per calling span, for one job."""
        out: dict[str, float] = defaultdict(float)
        for (j, name, caller), (self_s, _) in self.aggregates.items():
            if j == job and name.startswith("kernel."):
                out[caller] += self_s
        return out

    def job_self_s(self, job) -> float:
        """Sum of the self times of all spans in one job, aggregates included.

        ``run.py`` compares it with the job's wall time on its own clock.
        """
        roots = [r for r in self.job_records(job) if r[4] is None]
        if len(roots) != 1:
            raise AssertionError(f"job {job} has {len(roots)} root spans")
        return sum(self.self_times(job).values())

    def to_json(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "job", "self_s"), r))
                      for r in self.records],
            "aggregates": [{"job": j, "name": n, "caller": c, "self_s": v[0], "calls": v[1]}
                           for (j, n, c), v in self.aggregates.items()],
            "counts": [{"job": j, "name": n, "count": c}
                       for (j, n), c in self.counts.items()],
        }


def _span(tracer: Tracer, name: str, fn, recorded=True, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.push(name, recorded)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if on_result is not None:
            on_result(tracer, args, result)
        return result
    return wrapper


def _counter(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count(name)
        if on_result is not None:
            on_result(tracer, args, result)
        return result
    return wrapper


# -- result hooks: counts derived from a call's arguments and result --------


def _after_total_derivative(tracer, args, deq):
    if deq.terms:
        tracer.derived_orders.append(deq.order)


def _after_prolong(tracer, args, out):
    # prolong(system, n) keeps the derived equations of order <= n; those
    # not in the output duplicate one already seen
    system, n = args
    tracer.count("detsys.derived_eqs", sum(k <= n for k in tracer.derived_orders))
    tracer.derived_orders.clear()
    tracer.count("detsys.kept_eqs", len(out.equations) - len(system.equations))


def _after_reduce(tracer, args, solved):
    pivots = len(solved.solved)
    tracer.count("detsys.pivots", pivots)
    tracer.count("detsys.redundant_rows", len(args[0].equations) - pivots)
    tracer.count("detsys.parametric", len(solved.parametric))


def _after_structure(tracer, args, eqs):
    tracer.count("structure.basis_size", len(eqs.basis))


def _after_form(tracer, args, form):
    tracer.count("exterior.terms_out", len(form.terms))


def _after_duality(tracer, args, report):
    tracer.count("jetalg.pairings", report.pairings)


def _after_jacobi(tracer, args, report):
    tracer.count("jetalg.triples", report.triples)


def install(tracer: Tracer):
    """Wrap the traced functions; returns a callable that restores them."""
    from mcforge import (coordforms, detsys, exterior, jetalg, kernel,
                         multiindex, render, structure)

    spans = [
        (detsys, "parse_system", True, None),
        (detsys, "prolong", True, _after_prolong),
        (detsys, "solve_to_order", True, None),
        (detsys, "reduce_system", True, _after_reduce),
        (detsys, "lift", True, None),
        (structure, "pseudo_group_structure", True, _after_structure),
        (structure, "diffeo_structure_equation", True, None),
        (structure, "check_d_squared", True, None),
        (structure, "d_squared_residues", True, None),
        (exterior, "reduce_one", True, _after_form),
        (exterior, "reduce_two", True, _after_form),
        (exterior, "reduce_three", True, _after_form),
        (exterior, "d_apply", True, None),
        (exterior, "d_apply_two", True, None),
        (jetalg, "solution_basis", True, None),
        (jetalg, "check_duality", True, _after_duality),
        (jetalg, "jacobi_check", True, _after_jacobi),
        (jetalg, "bracket", False, None),
        (coordforms, "parse_coframe", True, None),
        (coordforms, "verify_structure_equations", True, None),
        (render, "render_structure_text", True, None),
        (render, "render_structure_latex", True, None),
        (render, "structure_json_obj", True, None),
        (render, "render_lift_text", True, None),
        (render, "render_json", True, None),
    ]
    counters = [
        (detsys, "total_derivative", _after_total_derivative),
        (exterior, "wedge", None),
        (exterior, "wedge_two_one", None),
        (multiindex, "multinomial", None),
    ]

    replacements: dict = {}  # id(original) -> wrapper
    for module, attr, recorded, hook in spans:
        fn = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        replacements[id(fn)] = (fn, _span(tracer, name, fn, recorded, hook))
    for module, attr, hook in counters:
        fn = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        replacements[id(fn)] = (fn, _counter(tracer, name, fn, hook))

    # rebind every module-level name that refers to a wrapped original
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "mcforge" and not modname.startswith("mcforge."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])

    # methods and the sympy entry point that kernel reaches through ``sp.``
    scalar_cls = kernel.ScalarExpr
    init = scalar_cls.__init__
    zero = sympy.S.Zero

    @functools.wraps(init)
    def traced_init(self, expr, table=None):
        init(self, expr, table)
        counts = tracer.counts
        counts[(tracer.job, "kernel.scalar_new")] += 1
        if self.expr is zero:
            counts[(tracer.job, "kernel.scalar_zero")] += 1

    methods = [
        (scalar_cls, "__init__", traced_init),
        (scalar_cls, "substitute",
         _counter(tracer, "kernel.substitute_calls", scalar_cls.substitute)),
        (kernel.SymbolTable, "record_nonzero",
         _counter(tracer, "kernel.assumptions", kernel.SymbolTable.record_nonzero)),
        (sympy, "cancel", _span(tracer, "kernel.cancel", sympy.cancel, recorded=False)),
    ]
    for owner, attr, wrapper in methods:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
