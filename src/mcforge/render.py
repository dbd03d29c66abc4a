"""Text, LaTeX and JSON emitters with stable, diffable ordering.

Every command's report is written here, and only here: each report has one
``render_*`` writer that takes the format and returns the text the command
prints.  A ``Notation`` says how text or LaTeX spells a generator, a
coefficient, a wedge and an equation; JSON spells every atom as text does.  A
report with no LaTeX form (the prolonged system and the verdicts) prints its
text for ``latex``.
"""

from __future__ import annotations

import json
from sys import get_int_max_str_digits
from typing import Callable, NamedTuple

import sympy as sp

from .coordforms import CoframeReport, CoframeSession
from .detsys import DeterminingSystem, LiftedRelations
from .exterior import McGenerator, _gens
from .jetalg import DualityReport, JetVectorField
from .kernel import McforgeError, as_expr, as_fraction, integers, is_constant
from .multiindex import render_index
from .structure import D2Report, StructureEquationSet


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def _check_printable(c) -> None:
    """Refuse ``c`` if an integer in it has more digits than Python converts to text."""
    limit = get_int_max_str_digits()
    big = max(map(abs, integers(c)))
    # an integer of more than ``limit`` digits has more than 3 * limit bits
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise McforgeError(f"coefficient too large to print: an integer of "
                           f"{big.bit_length()} bits, more than {limit} digits")


def coeff_text(c) -> str:
    # str of an int or a Fraction spells it exactly as sympy prints the equal
    # Integer or Rational, and str of a ScalarExpr is sympy's
    _check_printable(c)
    return str(c)


def coeff_latex(c) -> str:
    # a constant is spelled as sympy's LaTeX printer spells the equal Rational
    _check_printable(c)
    if not is_constant(c):
        return sp.latex(as_expr(c), order="lex")
    q = as_fraction(c)
    if q.denominator == 1:
        return str(q.numerator)
    sign = "- " if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


class Notation(NamedTuple):
    mu: str                  # the generators' letter
    brace_component: bool    # group a component name longer than one letter
    coeff: Callable
    parens: tuple[str, str]  # around a coefficient that is a sum
    times: str               # between a coefficient and its generators
    wedge: str
    equals: str
    eol: str
    aligned: bool            # one aligned block of equations, with no header


TEXT = Notation("mu", False, coeff_text, ("(", ")"), " ", " ^ ", " = ", "", False)
LATEX = Notation("\\mu", True, coeff_latex, ("\\left(", "\\right)"), "\\,", "\\wedge ",
                 " &= ", " \\\\", True)
NOTATIONS = {"text": TEXT, "latex": LATEX}


def _braced(s: str) -> str:
    return s if len(s) == 1 else f"{{{s}}}"


def _gen(g: McGenerator, coords: list[str], targets: list[str], notation: Notation) -> str:
    comp = coords[g.component]
    head = f"{notation.mu}^{_braced(comp) if notation.brace_component else comp}"
    if g.index.order == 0:
        return head
    return f"{head}_{_braced(render_index(g.index, targets))}"


def gen_text(g: McGenerator, coords: list[str], targets: list[str]) -> str:
    return _gen(g, coords, targets, TEXT)


def jet_text(js: McGenerator, sys: DeterminingSystem) -> str:
    name = sys.fields[js.component]
    if js.index.order == 0:
        return name
    return f"{name}_{render_index(js.index, sys.coords)}"


def _with_coeff(c, body: str, notation: Notation, times: str) -> str:
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    text = notation.coeff(c)
    if not is_constant(c) and as_expr(c).is_Add:
        text = f"{notation.parens[0]}{text}{notation.parens[1]}"
    return f"{text}{times}{body}"


def _joined(parts: list[str]) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _form(form, coords, targets, notation: Notation) -> str:
    """A one- or two-form; each key holds the generators its term wedges together."""
    parts = []
    for key, c in form.sorted_terms():
        body = notation.wedge.join([_gen(g, coords, targets, notation) for g in _gens(key)])
        parts.append(_with_coeff(c, body, notation, notation.times))
    return _joined(parts)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _report(result, title: list[str], label: str, gens, rows, notation: Notation) -> str:
    """One ``lhs = rhs`` line per row: in LaTeX one aligned block; in text below
    the title, the assumptions, any stability warning and the listed ``gens``."""
    lines = [f"{lhs}{notation.equals}{rhs}{notation.eol}" for lhs, rhs in rows]
    if notation.aligned:
        return "\n".join(["\\begin{aligned}", *lines, "\\end{aligned}"]) + "\n"
    sys = result.system
    header = list(title)
    if result.assumptions:
        listed = ", ".join(f"{coeff_text(a)} != 0" for a in result.assumptions)
        header.append(f"assuming: {listed}")
    if not result.stable:
        header.append("warning: solved shape still changing at the prolongation cap")
    header.append(f"{label}: " + ", ".join(gen_text(g, sys.coords, sys.targets) for g in gens))
    return "\n".join(header + lines) + "\n"


def render_structure(eqs: StructureEquationSet, fmt: str) -> str:
    if fmt == "json":
        return render_json(structure_json_obj(eqs))
    notation, sys = NOTATIONS[fmt], eqs.system
    rows = [(f"d{_gen(g, sys.coords, sys.targets, notation)}",
             _form(eqs.equations[g], sys.coords, sys.targets, notation))
            for g in eqs.basis]
    title = [f"# structure equations, order {eqs.order}, dim {eqs.dim}",
             "# order-0 horizontal forms satisfy the same equations "
             "as the order-0 generators (sigma = -mu on the fiber)"]
    return _report(eqs, title, "basis", eqs.basis, rows, notation)


def render_structure_text(eqs: StructureEquationSet) -> str:
    return render_structure(eqs, "text")


def render_structure_latex(eqs: StructureEquationSet) -> str:
    return render_structure(eqs, "latex")


def structure_json_obj(eqs: StructureEquationSet) -> dict:
    sys = eqs.system
    return {
        "dim": eqs.dim,
        "order": eqs.order,
        "basis": [gen_text(g, sys.coords, sys.targets) for g in eqs.basis],
        "assumptions": [coeff_text(a) for a in eqs.assumptions],
        "equations": [
            {"lhs": gen_text(g, sys.coords, sys.targets),
             "rhs": [{"pair": [gen_text(h, sys.coords, sys.targets) for h in pair],
                      "coeff": coeff_text(c)}
                     for pair, c in eqs.equations[g].sorted_terms()]}
            for g in eqs.basis
        ],
        "coefficient_dependence": [
            {"lhs": gen_text(g, sys.coords, sys.targets),
             "targets": eqs.coefficient_dependence.get(g, [])}
            for g in eqs.basis
        ],
    }


def render_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def render_lift(rel: LiftedRelations, fmt: str) -> str:
    if fmt == "json":
        return render_json(lift_json_obj(rel))
    notation, sys = NOTATIONS[fmt], rel.system
    rows = [(_gen(g, sys.coords, sys.targets, notation),
             _form(rel.solved[g], sys.coords, sys.targets, notation))
            for g in sorted(rel.solved, key=McGenerator.sort_key)]
    title = [f"# lifted determining relations, order {rel.order}"]
    return _report(rel, title, "parametric", rel.parametric, rows, notation)


def render_lift_text(rel: LiftedRelations) -> str:
    return render_lift(rel, "text")


def lift_json_obj(rel: LiftedRelations) -> dict:
    sys = rel.system
    return {
        "order": rel.order,
        "parametric": [gen_text(g, sys.coords, sys.targets) for g in rel.parametric],
        "assumptions": [coeff_text(a) for a in rel.assumptions],
        "relations": [
            {"lhs": gen_text(g, sys.coords, sys.targets),
             "rhs": [{"gen": gen_text(h, sys.coords, sys.targets),
                      "coeff": coeff_text(c)}
                     for h, c in rel.solved[g].sorted_terms()]}
            for g in sorted(rel.solved, key=McGenerator.sort_key)
        ],
    }


def _sorted_jets(eq):
    return sorted(eq.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)


def render_prolong(sys: DeterminingSystem, fmt: str) -> str:
    """The prolonged system; it has no LaTeX form, so ``latex`` prints its text."""
    if fmt == "json":
        return render_json(prolong_json_obj(sys))
    lines = [f"# prolonged system, order {sys.order}, {len(sys.equations)} equations"]
    for eq in sys.equations:
        body = _joined([_with_coeff(c, jet_text(js, sys), TEXT, "*")
                        for js, c in _sorted_jets(eq)])
        lines.append(f"{body} = 0")
    return "\n".join(lines) + "\n"


def prolong_json_obj(sys: DeterminingSystem) -> dict:
    equations = [[{"jet": jet_text(js, sys), "coeff": coeff_text(c)}
                  for js, c in _sorted_jets(eq)]
                 for eq in sys.equations]
    return {"coords": sys.coords, "fields": sys.fields,
            "order": sys.order, "equations": equations}


# ---------------------------------------------------------------------------
# Verdicts and tables
# ---------------------------------------------------------------------------


def render_d2(report: D2Report, sys: DeterminingSystem, fmt: str) -> str:
    """check-d2's verdict: every generator whose d^2 leaves a residue."""
    failures = [gen_text(g, sys.coords, sys.targets) for g in report.failures()]
    if fmt == "json":
        return render_json({"order": report.order, "ok": report.ok, "failures": failures})
    return "".join(f"nonzero residue for d^2 {g}\n" for g in failures) or "all residues zero\n"


def render_duality(report: DualityReport, order: int, fmt: str) -> str:
    """check-duality's verdict at structure order ``order``."""
    if fmt == "json":
        return render_json({"order": order, "pairings": report.pairings, "ok": report.ok,
                            "violations": len(report.violations)})
    return f"{report.pairings} pairings checked, {len(report.violations)} violations\n"


def render_brackets(dimension: int, order: int,
                    brackets: list[tuple[int, int, JetVectorField]], fmt: str) -> str:
    """The bracket table of a solution basis of ``dimension`` order-``order`` jets:
    (i, j, [v_i, v_j]) for each pair, each bracket's terms by index, then component."""
    rows = [(i, j, sorted(br.coefficients.items(),
                          key=lambda gc: (gc[0].index.sort_key(), gc[0].component)))
            for i, j, br in brackets]
    if fmt == "json":
        return render_json({"dimension": dimension, "order": order, "brackets": [
            {"i": i, "j": j,
             "terms": [{"component": g.component, "index": list(g.index.entries),
                        "coeff": coeff_text(c)} for g, c in terms]}
            for i, j, terms in rows]})
    lines = [f"solution basis dimension: {dimension}"]
    for i, j, terms in rows:
        body = " + ".join(f"({coeff_text(c)})*zeta[{g.component}]{list(g.index.entries)}"
                          for g, c in terms) or "0"
        lines.append(f"[v{i+1}, v{j+1}] = {body}")
    return "\n".join(lines) + "\n"


def render_coframe(session: CoframeSession, report: CoframeReport, fmt: str) -> str:
    """verify-coframe's verdict: each form's status and residue terms, in declaration order."""
    if fmt == "json":
        return render_json({"verified": report.verified, "residues": {
            name: [{"pair": list(key), "coeff": coeff_text(c)}
                   for key, c in sorted(two.terms.items())]
            for name, two in report.residues.items()}})
    lines = []
    for name in session.forms:
        residue = report.residues.get(name)
        if residue is not None and residue.is_zero:
            lines.append(f"d{name}: ok")
            continue
        lines.append(f"d{name}: RESIDUE")
        if residue is not None:
            lines += [f"  residue term: ({coeff_text(c)}) d{s}^d{t}"
                      for (s, t), c in sorted(residue.terms.items())]
    lines.append("verified" if report.verified else "verification failed")
    return "\n".join(lines) + "\n"
