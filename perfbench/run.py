"""mcforge benchmark: one workload, one process, one thread, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload diffeo-d2 --seed 1 --seconds 30 --trace 0

Without ``--workload`` the three workloads run in turn in the same process.
One caller sends the next job as soon as the previous one has completed.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced jobs alternate and
the JSON holds the per-layer metrics, computed from the traced jobs only.
Lines before it are a human-readable table.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
ACCOUNT_TOLERANCE = 0.01  # share of a traced job's wall time its spans may leave out

# name -> unit; the order is the order of the printed table
END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, how it is computed from a job's profile)
#   ("self", spans...)  median over traced jobs of the summed self time
#   ("count", names...) median over traced jobs of the summed counts
#   ("ratio", num, den) total of num counts over total of den counts
PER_LAYER = {
    "detsys.parse_s": ("s", "self", "detsys.parse_system"),
    "detsys.prolong_s": ("s", "self", "detsys.prolong"),
    "detsys.prolong_calls": ("count", "count", "calls:detsys.prolong"),
    "detsys.derived_eqs": ("count", "count", "detsys.derived_eqs"),
    "detsys.dup_frac": ("ratio", "ratio", "detsys.dup_eqs", "detsys.derived_eqs"),
    "detsys.reduce_s": ("s", "self", "detsys.reduce_system"),
    "detsys.pivots": ("count", "count", "detsys.pivots"),
    "detsys.redundant_rows": ("count", "count", "detsys.redundant_rows"),
    "detsys.parametric": ("count", "count", "detsys.parametric"),
    "detsys.lift_s": ("s", "self", "detsys.lift"),
    "structure.expand_reduce_s": ("s", "self", "structure.pseudo_group_structure",
                                  "structure.diffeo_structure_equation"),
    "structure.d2_s": ("s", "self", "structure.check_d_squared",
                       "structure.d_squared_residues"),
    "structure.basis_size": ("count", "count", "structure.basis_size"),
    "exterior.reduce_s": ("s", "self", "exterior.reduce_one", "exterior.reduce_two",
                          "exterior.reduce_three"),
    "exterior.d_apply_s": ("s", "self", "exterior.d_apply", "exterior.d_apply_two"),
    "exterior.wedge_calls": ("count", "count", "exterior.wedge", "exterior.wedge_two_one"),
    "exterior.terms_out": ("count", "count", "exterior.terms_out"),
    "jetalg.basis_s": ("s", "self", "jetalg.solution_basis"),
    "jetalg.duality_s": ("s", "self", "jetalg.check_duality"),
    "jetalg.pairings": ("count", "count", "jetalg.pairings"),
    "jetalg.pairings_per_s": ("1/s", "ratio", "jetalg.pairings", "wall:jetalg.check_duality"),
    "jetalg.bracket_s": ("s", "self", "jetalg.bracket"),
    "jetalg.bracket_calls": ("count", "count", "calls:jetalg.bracket"),
    "jetalg.jacobi_s": ("s", "self", "jetalg.jacobi_check"),
    "jetalg.triples": ("count", "count", "jetalg.triples"),
    "multiindex.multinomial_calls": ("count", "count", "multiindex.multinomial"),
    "kernel.scalar_new": ("count", "count", "kernel.scalar_new"),
    "kernel.scalar_zero_frac": ("ratio", "ratio", "kernel.scalar_zero", "kernel.scalar_new"),
    "kernel.cancel_calls": ("count", "count", "calls:kernel.cancel"),
    "kernel.cancel_s": ("s", "self", "kernel.cancel"),
    "kernel.substitute_calls": ("count", "count", "kernel.substitute_calls"),
    "kernel.assumptions": ("count", "count", "kernel.assumptions"),
    "coordforms.verify_s": ("s", "self", "coordforms.parse_coframe",
                            "coordforms.verify_structure_equations"),
    "render.s": ("s", "self", "render.render_structure_text", "render.render_structure_latex",
                 "render.structure_json_obj", "render.render_lift_text", "render.render_json"),
    "render.bytes": ("bytes", "count", "render.bytes"),
}
# metrics of the traced run as a whole, computed in trace_metrics()
TRACE_RUN = {
    "trace.overhead_s": "s",
    "inputs.point_redraws": "count",
}
WORKLOADS = ["diffeo-d2", "rational-solve", "duality"]
LAYERS = ["bench", "detsys", "structure", "exterior", "jetalg", "kernel",
          "coordforms", "render"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"],
                   help="one workload, or all three in turn (the default)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_mcforge():
    """Import mcforge from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mcforge" / "__init__.py").is_file():
        sys.exit(f"error: no mcforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mcforge
    if Path(mcforge.__file__).resolve().parent != SRC / "mcforge":
        sys.exit(f"error: imported mcforge from {mcforge.__file__}, not {SRC}")


SETUP_CODE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from importlib import resources
import mcforge
mcforge.parse_system(resources.files("mcforge").joinpath("data", "cartan_essential.dsys").read_text())
"""


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing mcforge and parsing an input."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Closed loop with one caller over one workload's seeded job stream.

    ``workloads`` and ``tracing`` import mcforge, so they are imported only
    after ``import_mcforge`` has put this checkout's ``src`` on the path.
    """

    def __init__(self, workload: str, seed: int, tracer=None):
        from workloads import REFERENCE, JobSource
        self.source = JobSource(workload, seed)
        self.reference = json.loads(REFERENCE.read_text())
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def run_job(self, job_id: int, traced: bool) -> float:
        from workloads import run_input
        order, texts = self.source.next_job()
        tracer = self.tracer if traced else None
        uninstall = None
        if tracer is not None:
            from tracing import install
            uninstall = install(tracer)
            tracer.job = job_id
        problems = []
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.push("bench.job")
            for name in order:
                if tracer is not None:
                    tracer.push("bench.input")
                found, rendered = run_input(self.source, name, texts, self.reference)
                if tracer is not None:
                    tracer.pop()
                    tracer.count("render.bytes", rendered)
                problems += [f"{name}: {p}" for p in found]
            if tracer is not None:
                tracer.pop()
        finally:
            if uninstall is not None:
                uninstall()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"job {job_id} FAILED {p}", file=sys.stderr)
        return elapsed


def trace_metrics(tracer, traced_ids, traced_times, untraced_times, redraws) -> dict:
    profiles = [job_profile(tracer, j) for j in traced_ids]
    out = {}
    for name, (unit, kind, *keys) in PER_LAYER.items():
        if kind == "ratio":
            num = sum(p.get(keys[0], 0) for p in profiles)
            den = sum(p.get(keys[1], 0) for p in profiles)
            value = num / den if den else 0.0
        else:
            prefix = "self:" if kind == "self" else ""
            value = statistics.median(
                sum(p.get(prefix + k, 0) for k in keys) for p in profiles)
        out[name] = (value, unit)
    # the self times of a job's spans must account for its wall time as
    # run_job measured it; the few setattr calls that restore the wrapped
    # functions are the only work outside the spans
    for j, elapsed in zip(traced_ids, traced_times):
        self_sum = tracer.job_self_s(j)
        if not 0 <= elapsed - self_sum <= ACCOUNT_TOLERANCE * elapsed:
            raise AssertionError(f"job {j}: self times sum to {self_sum} s, "
                                 f"job wall time {elapsed} s")
    values = {
        "trace.overhead_s": statistics.median(traced_times) - statistics.median(untraced_times),
        "inputs.point_redraws": redraws,
    }
    for name, unit in TRACE_RUN.items():
        out[name] = (values[name], unit)
    return out


def job_profile(tracer, job) -> dict:
    """Flat view of one job: self:<span>, calls:<span>, wall:<span>, counts."""
    out: dict = {}
    for r in tracer.job_records(job):
        out["self:" + r[1]] = out.get("self:" + r[1], 0.0) + r[6]
        out["calls:" + r[1]] = out.get("calls:" + r[1], 0) + 1
        out["wall:" + r[1]] = out.get("wall:" + r[1], 0.0) + (r[3] - r[2])
    for (j, name, _), (self_s, calls) in tracer.aggregates.items():
        if j == job:
            out["self:" + name] = out.get("self:" + name, 0.0) + self_s
            out["calls:" + name] = out.get("calls:" + name, 0) + calls
    for (j, name), count in tracer.counts.items():
        if j == job:
            out[name] = count
    out["detsys.dup_eqs"] = max(0, out.get("detsys.derived_eqs", 0) - out.get("detsys.kept_eqs", 0))
    return out


def layer_split(tracer, traced_ids) -> tuple[dict[str, float], dict[str, float]]:
    """Shares of the traced job time by layer: (own code, own code + kernel calls).

    The first charges each layer its self time, with ``kernel`` as a layer of
    its own; the second charges kernel time to the layer that called it.
    """
    own = dict.fromkeys(LAYERS, 0.0)
    caller = dict.fromkeys(LAYERS, 0.0)
    job_s = 0.0
    for j in traced_ids:
        for name, self_s in tracer.self_times(j).items():
            layer = name.partition(".")[0]
            own[layer] += self_s
            if layer != "kernel":
                caller[layer] += self_s
        for span, self_s in tracer.kernel_callers(j).items():
            caller[span.partition(".")[0]] += self_s
        job_s += tracer.job_self_s(j)
    return ({k: v / job_s for k, v in own.items()},
            {k: v / job_s for k, v in caller.items() if k != "kernel"})


def emit(metrics: dict, attempted: int, failed: int) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Measure one workload and print its table and JSON line."""
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()

    setup_s = measure_setup()
    loop = Loop(workload, seed, tracer)
    loop.run_job(0, traced=False)  # warm-up: gated, not timed

    times, traced_ids, traced_times = [], [], []
    start = time.perf_counter()
    job_id = 1
    while time.perf_counter() - start < seconds:
        traced = tracer is not None and job_id % 2 == 1
        elapsed = loop.run_job(job_id, traced)
        if traced:
            traced_ids.append(job_id)
            traced_times.append(elapsed)
        else:
            times.append(elapsed)
        job_id += 1
    wall = time.perf_counter() - start

    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"jobs {loop.attempted} (1 warm-up)  failed {loop.failed}  "
          f"point_redraws {loop.source.points.redraws}")
    failed_frac = f"  {'failed_frac':<14} {loop.failed / loop.attempted:12.6f} ratio"

    if tracer is None:
        value, pct = tail(times)
        values = {
            "setup_s": setup_s,
            "job_p50_s": statistics.median(times),
            "job_tail_s": value,
            "jobs_per_s": len(times) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        for name, (v, unit) in metrics.items():
            note = (f"  (p{pct:.1f} of {len(times)} jobs, {min(TAIL_BEYOND, len(times) - 1)} beyond)"
                    if name == "job_tail_s" else "")
            print(f"  {name:<14} {v:12.6f} {unit}{note}")
        print(failed_frac)
        emit(metrics, loop.attempted, loop.failed)
        return

    if not traced_ids or not times:
        sys.exit("error: a traced run needs at least one traced and one untraced job")
    metrics = trace_metrics(tracer, traced_ids, traced_times, times,
                            loop.source.points.redraws)
    own, with_kernel = layer_split(tracer, traced_ids)
    for name, (v, unit) in metrics.items():
        print(f"  {name:<30} {v:14.6f} {unit}")
    print(failed_frac)
    print("  layer split, self time: " + ", ".join(f"{k} {v:.1%}" for k, v in own.items()))
    print("  layer split, kernel charged to caller: " +
          ", ".join(f"{k} {v:.1%}" for k, v in with_kernel.items()))
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-seed{seed}.json"
    dump.write_text(json.dumps({
        "workload": workload, "seed": seed, "traced_jobs": traced_ids,
        "layer_split_self": own, "layer_split_with_kernel": with_kernel,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **tracer.to_json(),
    }))
    print(f"  spans written to {dump.relative_to(ROOT)}")
    emit(metrics, loop.attempted, loop.failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_mcforge()
    sys.path.insert(0, str(HERE))
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
