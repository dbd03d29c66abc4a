"""Text, LaTeX and JSON emitters with stable, diffable ordering."""

from __future__ import annotations

import json
from fractions import Fraction

import sympy as sp

from .detsys import DeterminingSystem, LiftedRelations
from .exterior import McGenerator, OneForm, TwoForm
from .kernel import ScalarExpr
from .multiindex import render_index
from .structure import StructureEquationSet


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def gen_text(g: McGenerator, coords: list[str], targets: list[str]) -> str:
    comp = coords[g.component]
    if g.index.order == 0:
        return f"mu^{comp}"
    sub = render_index(g.index, targets)
    return f"mu^{comp}_{sub}" if len(sub) == 1 else f"mu^{comp}_{{{sub}}}"


def gen_latex(g: McGenerator, coords: list[str], targets: list[str]) -> str:
    comp = coords[g.component]
    if g.index.order == 0:
        return f"\\mu^{comp}" if len(comp) == 1 else f"\\mu^{{{comp}}}"
    sub = render_index(g.index, targets)
    head = f"\\mu^{comp}" if len(comp) == 1 else f"\\mu^{{{comp}}}"
    return f"{head}_{sub}" if len(sub) == 1 else f"{head}_{{{sub}}}"


def jet_text(js: McGenerator, sys: DeterminingSystem) -> str:
    name = sys.fields[js.component]
    if js.index.order == 0:
        return name
    return f"{name}_{render_index(js.index, sys.coords)}"


def coeff_text(c: ScalarExpr | Fraction) -> str:
    # str(Fraction) spells p/q exactly as sympy prints the equal Rational
    if isinstance(c, Fraction):
        return str(c)
    return sp.sstr(c.expr, order="lex")


def coeff_latex(c: ScalarExpr) -> str:
    return sp.latex(c.expr, order="lex")


def _with_coeff(c: ScalarExpr, body: str, times: str = " ") -> str:
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    text = coeff_text(c)
    if c.expr.is_Add:
        text = f"({text})"
    return f"{text}{times}{body}"


def _with_coeff_latex(c: ScalarExpr, body: str) -> str:
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    text = coeff_latex(c)
    if c.expr.is_Add:
        text = f"\\left({text}\\right)"
    return f"{text}\\,{body}"


def _joined(parts: list[str]) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def oneform_text(form: OneForm, coords, targets) -> str:
    return _joined([_with_coeff(c, gen_text(g, coords, targets))
                    for g, c in form.sorted_terms()])


def oneform_latex(form: OneForm, coords, targets) -> str:
    return _joined([_with_coeff_latex(c, gen_latex(g, coords, targets))
                    for g, c in form.sorted_terms()])


def twoform_text(form: TwoForm, coords, targets) -> str:
    parts = []
    for (g, h), c in form.sorted_terms():
        body = f"{gen_text(g, coords, targets)} ^ {gen_text(h, coords, targets)}"
        parts.append(_with_coeff(c, body))
    return _joined(parts)


def twoform_latex(form: TwoForm, coords, targets) -> str:
    parts = []
    for (g, h), c in form.sorted_terms():
        body = f"{gen_latex(g, coords, targets)}\\wedge {gen_latex(h, coords, targets)}"
        parts.append(_with_coeff_latex(c, body))
    return _joined(parts)


def twoform_json(form: TwoForm, coords, targets) -> list:
    return [{"pair": [gen_text(g, coords, targets), gen_text(h, coords, targets)],
             "coeff": coeff_text(c)}
            for (g, h), c in form.sorted_terms()]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _assumption_lines(assumptions) -> list[str]:
    if not assumptions:
        return []
    listed = ", ".join(f"{coeff_text(a)} != 0" for a in assumptions)
    return [f"assuming: {listed}"]


def render_structure_text(eqs: StructureEquationSet) -> str:
    sys = eqs.system
    lines = [f"# structure equations, order {eqs.order}, dim {eqs.dim}"]
    lines += ["# order-0 horizontal forms satisfy the same equations "
              "as the order-0 generators (sigma = -mu on the fiber)"]
    lines += _assumption_lines(eqs.assumptions)
    if not eqs.stable:
        lines.append("warning: solved shape still changing at the prolongation cap")
    lines.append("basis: " + ", ".join(gen_text(g, sys.coords, sys.targets)
                                       for g in eqs.basis))
    for g in eqs.basis:
        lhs = gen_text(g, sys.coords, sys.targets)
        rhs = twoform_text(eqs.equations[g], sys.coords, sys.targets)
        lines.append(f"d{lhs} = {rhs}")
    return "\n".join(lines) + "\n"


def render_structure_latex(eqs: StructureEquationSet) -> str:
    sys = eqs.system
    lines = ["\\begin{aligned}"]
    for g in eqs.basis:
        lhs = gen_latex(g, sys.coords, sys.targets)
        rhs = twoform_latex(eqs.equations[g], sys.coords, sys.targets)
        lines.append(f"d{lhs} &= {rhs} \\\\")
    lines.append("\\end{aligned}")
    return "\n".join(lines) + "\n"


def structure_json_obj(eqs: StructureEquationSet) -> dict:
    sys = eqs.system
    return {
        "dim": eqs.dim,
        "order": eqs.order,
        "basis": [gen_text(g, sys.coords, sys.targets) for g in eqs.basis],
        "assumptions": [coeff_text(a) for a in eqs.assumptions],
        "equations": [
            {"lhs": gen_text(g, sys.coords, sys.targets),
             "rhs": twoform_json(eqs.equations[g], sys.coords, sys.targets)}
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


def render_lift_text(rel: LiftedRelations) -> str:
    sys = rel.system
    lines = [f"# lifted determining relations, order {rel.order}"]
    lines += _assumption_lines(rel.assumptions)
    if not rel.stable:
        lines.append("warning: solved shape still changing at the prolongation cap")
    lines.append("parametric: " + ", ".join(
        gen_text(g, sys.coords, sys.targets) for g in rel.parametric))
    for g in sorted(rel.solved, key=McGenerator.sort_key):
        lhs = gen_text(g, sys.coords, sys.targets)
        rhs = oneform_text(rel.solved[g], sys.coords, sys.targets)
        lines.append(f"{lhs} = {rhs}")
    return "\n".join(lines) + "\n"


def render_lift_latex(rel: LiftedRelations) -> str:
    sys = rel.system
    lines = ["\\begin{aligned}"]
    for g in sorted(rel.solved, key=McGenerator.sort_key):
        lhs = gen_latex(g, sys.coords, sys.targets)
        rhs = oneform_latex(rel.solved[g], sys.coords, sys.targets)
        lines.append(f"{lhs} &= {rhs} \\\\")
    lines.append("\\end{aligned}")
    return "\n".join(lines) + "\n"


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


def render_prolong_text(sys: DeterminingSystem) -> str:
    lines = [f"# prolonged system, order {sys.order}, {len(sys.equations)} equations"]
    for eq in sys.equations:
        terms = sorted(eq.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)
        body = _joined([_with_coeff(c, jet_text(js, sys), times="*")
                        for js, c in terms])
        lines.append(f"{body} = 0")
    return "\n".join(lines) + "\n"


def prolong_json_obj(sys: DeterminingSystem) -> dict:
    equations = []
    for eq in sys.equations:
        terms = sorted(eq.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)
        equations.append([{"jet": jet_text(js, sys), "coeff": coeff_text(c)}
                          for js, c in terms])
    return {"coords": sys.coords, "fields": sys.fields,
            "order": sys.order, "equations": equations}
