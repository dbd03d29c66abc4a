"""Seeded inputs, the three workloads' jobs, and the correctness gate.

A job is one pass over a workload's inputs in a seeded order, each input run
as one CLI command would run it: sympy's cache is cleared and the input is
parsed again first.  Every input's result is checked; a job fails when any
of its inputs raises, gives a wrong verdict or renders output whose sha256
differs from the reference recorded in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

from sympy.core.cache import clear_cache

from mcforge import coordforms, detsys, jetalg, render, structure
from mcforge.kernel import DegeneratePointError

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

COORDS = ["x", "y", "z"]
POINT_RANGE = 9  # evaluation points p/q with |p| <= 9 and 1 <= q <= 9


def bundled(name: str) -> str:
    return resources.files("mcforge").joinpath("data", name).read_text()


def source_texts() -> dict[str, str]:
    return {
        "essential": bundled("cartan_essential.dsys"),
        "translation": bundled("intransitive_translation.dsys"),
        "janet": (HERE / "inputs" / "janet.dsys").read_text(),
        "coframe": bundled("cartan_example2.coframe"),
    }


def permute_equations(text: str, rng: random.Random) -> str:
    """Shuffle the ``eq:`` lines of a .dsys text among their own positions."""
    lines = text.splitlines()
    slots = [i for i, line in enumerate(lines) if line.lstrip().startswith("eq:")]
    eqs = [lines[i] for i in slots]
    rng.shuffle(eqs)
    for i, line in zip(slots, eqs):
        lines[i] = line
    return "\n".join(lines) + "\n"


class PointSource:
    """Seeded rational evaluation points; counts redraws after degenerate ones."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.redraws = 0

    def draw(self, coords: list[str]) -> dict[str, Fraction]:
        r = self.rng
        return {c: Fraction(r.randint(-POINT_RANGE, POINT_RANGE), r.randint(1, POINT_RANGE))
                for c in coords}

    def run(self, coords: list[str], check: Callable[[dict], "Outcome"]) -> "Outcome":
        """Run ``check`` at a fresh point, drawing again on DegeneratePointError."""
        while True:
            try:
                return check(self.draw(coords))
            except DegeneratePointError:
                self.redraws += 1


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one input produced: a digest or exact counts, and bytes rendered."""

    digest: Optional[str] = None
    counts: dict = field(default_factory=dict)
    rendered_bytes: int = 0
    problems: list = field(default_factory=list)


Tamper = Optional[Callable[[structure.StructureEquationSet], None]]


# ---------------------------------------------------------------------------
# Inputs.  Each takes its (already permuted) source texts, a point source and
# an optional ``tamper`` hook that corrupts a structure equation set; the
# hook exists only for the gate's self-test.
# ---------------------------------------------------------------------------


def diffeo_d2(dim: int, order: int):
    def run(texts, points, tamper: Tamper = None) -> Outcome:
        system = detsys.DeterminingSystem.empty(COORDS[:dim])
        eqs = structure.pseudo_group_structure(system, order)
        if tamper:
            tamper(eqs)
        report = structure.check_d_squared(eqs)
        text = render.render_structure_text(eqs)
        out = Outcome(digest(text), rendered_bytes=len(text))
        if not report.ok:
            out.problems.append(f"nonzero d^2 residue for {report.failures()}")
        return out
    return run


def rational_solve(source: str, order: int, cap: Optional[int] = None):
    def run(texts, points, tamper: Tamper = None) -> Outcome:
        system = detsys.parse_system(texts[source])
        relations = detsys.lift(detsys.solve_to_order(system, order, cap=cap))
        eqs = structure.pseudo_group_structure(system, order, cap=cap)
        if tamper:
            tamper(eqs)
        parts = (render.render_lift_text(relations),
                 render.render_structure_text(eqs),
                 render.render_structure_latex(eqs),
                 render.render_json(render.structure_json_obj(eqs)))
        return Outcome(digest(*parts), rendered_bytes=sum(map(len, parts)))
    return run


def coframe_verify(texts, points, tamper: Tamper = None) -> Outcome:
    session = coordforms.parse_coframe(texts["coframe"])
    report = coordforms.verify_structure_equations(session)
    obj = {"verified": report.verified,
           "residues": {name: [{"pair": list(key), "coeff": render.coeff_text(c)}
                               for key, c in sorted(two.terms.items())]
                        for name, two in report.residues.items()}}
    text = render.render_json(obj)
    out = Outcome(digest(text), rendered_bytes=len(text))
    if not report.verified:
        out.problems.append("coframe verification failed")
    return out


def _system(texts, source: Optional[str]) -> detsys.DeterminingSystem:
    if source is None:  # the full diffeomorphism pseudo-group of the plane
        return detsys.DeterminingSystem.empty(COORDS[:2])
    return detsys.parse_system(texts[source])


def duality_check(source: Optional[str], order: int, with_jacobi: bool):
    """check_duality of the order-``order`` structure against an order+1 basis."""
    def run(texts, points, tamper: Tamper = None) -> Outcome:
        system = _system(texts, source)
        eqs = structure.pseudo_group_structure(system, order)
        if tamper:
            tamper(eqs)

        def at(point):
            basis = jetalg.solution_basis(system, point, order + 1)
            report = jetalg.check_duality(eqs, basis, point)
            out = Outcome(counts={"pairings": report.pairings})
            if report.violations:
                out.problems.append(f"{len(report.violations)} duality violations")
            if with_jacobi:
                jacobi = jetalg.jacobi_check(basis)
                out.counts["triples"] = jacobi.triples
                if jacobi.violations:
                    out.problems.append(f"{len(jacobi.violations)} Jacobi violations")
            return out
        return points.run(system.coords, at)
    return run


def bracket_table(source: str, order: int):
    """Brackets of every pair of basis jets, each checked against its reverse.

    The values depend on the seeded point, so they have no reference digest;
    the gate checks the table's size and that [w, v] = -[v, w] for every pair.
    """
    def run(texts, points, tamper: Tamper = None) -> Outcome:
        system = _system(texts, source)

        def at(point):
            basis = jetalg.solution_basis(system, point, order)
            pairs = list(itertools.combinations(basis, 2))
            rows = [jetalg.bracket(v, w) for v, w in pairs]
            text = "".join(f"{br!r}\n" for br in rows)
            out = Outcome(counts={"dimension": len(basis), "brackets": len(rows)},
                          rendered_bytes=len(text))
            skew = sum(not (row + jetalg.bracket(w, v)).is_zero
                       for row, (v, w) in zip(rows, pairs))
            if skew:
                out.problems.append(f"{skew} brackets not antisymmetric")
            return out
        return points.run(system.coords, at)
    return run


WORKLOADS: dict[str, dict[str, Callable]] = {
    "diffeo-d2": {
        "d2_m2_o4": diffeo_d2(2, 4),
        "d2_m3_o2": diffeo_d2(3, 2),
    },
    "rational-solve": {
        "essential_o3": rational_solve("essential", 3),
        "janet_o4_cap7": rational_solve("janet", 4, cap=7),
        "translation_o3": rational_solve("translation", 3),
        "coframe": coframe_verify,
    },
    "duality": {
        "duality_diffeo_m2_o2": duality_check(None, 2, with_jacobi=True),
        "duality_essential_o1": duality_check("essential", 1, with_jacobi=False),
        "bracket_essential_o2": bracket_table("essential", 2),
    },
}


class JobSource:
    """The seeded stream of jobs for one workload.

    Each job permutes the ``eq:`` lines of every .dsys input and shuffles
    the order of the workload's inputs; duality inputs draw their evaluation
    points from the same stream.
    """

    def __init__(self, workload: str, seed: int):
        self.inputs = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.points = PointSource(self.rng)
        self.sources = source_texts()

    def next_job(self) -> tuple[list[str], dict[str, str]]:
        texts = {name: (text if name == "coframe" else permute_equations(text, self.rng))
                 for name, text in self.sources.items()}
        order = list(self.inputs)
        self.rng.shuffle(order)
        return order, texts


def check(name: str, outcome: Outcome, reference: dict) -> list[str]:
    """Compare one input's outcome against its reference entry."""
    expected = reference[name]
    problems = list(outcome.problems)
    if "digest" in expected and outcome.digest != expected["digest"]:
        problems.append(f"output digest {outcome.digest} != reference {expected['digest']}")
    for key, value in expected.get("counts", {}).items():
        if outcome.counts.get(key) != value:
            problems.append(f"{key} = {outcome.counts.get(key)}, expected {value}")
    return problems


def run_input(source: JobSource, name: str, texts: dict, reference: dict,
              tamper: Tamper = None) -> tuple[list[str], int]:
    """Run one input cold, as a fresh CLI call would; returns (problems, bytes)."""
    clear_cache()
    try:
        outcome = source.inputs[name](texts, source.points, tamper)
    except Exception as exc:  # any exception fails the job, and the run goes on
        return [f"raised {type(exc).__name__}: {exc}"], 0
    return check(name, outcome, reference), outcome.rendered_bytes
