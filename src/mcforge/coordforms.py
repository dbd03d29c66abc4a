"""Coordinate-level exterior calculus for verifying explicit invariant coframes.

Only rational-function coefficients are supported; coframes needing
transcendental entries are rejected rather than approximated, so equality
stays decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exterior import _FormBase, _wedge_into
from .kernel import (
    SCALAR,
    ExprParser,
    McforgeError,
    ParseError,
    ScalarExpr,
    SymbolKind,
    SymbolTable,
    echelon,
    eliminate_forward,
    split_names,
)


class DependentCoframeError(McforgeError):
    """The supplied one-forms are linearly dependent over the function field."""


class CoordOneForm(_FormBase):
    """sum coeff * d(symbol); keys are declared symbol names."""


class CoordTwoForm(_FormBase):
    """sum coeff * d(s) ^ d(t); keys are pairs ordered by symbol declaration."""


@dataclass
class CoframeSession:
    """Declared symbols, named coframe one-forms, and claimed structure equations."""

    table: SymbolTable
    symbols: list[str]
    forms: dict[str, CoordOneForm]
    claims: dict[str, list[tuple[ScalarExpr, str, str]]]

    def symbol_order(self, name: str) -> int:
        return self.symbols.index(name)


def exterior_derivative(omega: CoordOneForm, session: CoframeSession) -> CoordTwoForm:
    """d(f ds) = sum_t (df/dt) dt ^ ds over the declared symbols."""
    out: dict = {}
    for s, f in omega.terms.items():
        df = CoordOneForm({t: f.diff(session.table.lookup(t)) for t in session.symbols})
        _wedge_into(out, None, df, s, key=session.symbol_order)
    return CoordTwoForm(out)


def wedge_coord(alpha: CoordOneForm, beta: CoordOneForm,
                session: CoframeSession) -> CoordTwoForm:
    out: dict = {}
    _wedge_into(out, None, alpha, beta, key=session.symbol_order)
    return CoordTwoForm(out)


# ---------------------------------------------------------------------------
# Linear algebra over ScalarExpr
# ---------------------------------------------------------------------------


_ONE = "1"  # the constant column of an augmented row


def _solvable(rows: list[dict], rhs: list[ScalarExpr], unknowns: list) -> bool:
    """Whether sum_u rows[r][u] * x_u = rhs[r] has a solution.

    The augmented constant column sorts below every unknown, so it is a pivot
    only when the system is inconsistent.
    """
    rank = {u: -i for i, u in enumerate(unknowns)}
    rank[_ONE] = -len(unknowns)
    forward: dict = {}
    eliminate_forward(forward, ({**row, _ONE: -b} if b else row for row, b in zip(rows, rhs)),
                      rank.__getitem__)
    return _ONE not in forward


def coframe_rank_ok(session: CoframeSession) -> bool:
    """Linear independence of the coframe over the rational-function field."""
    _, redundant = echelon((form.terms for form in session.forms.values()),
                           lambda name: -session.symbol_order(name))
    return not redundant


@dataclass
class CoframeReport:
    verified: bool
    residues: dict[str, CoordTwoForm] = field(default_factory=dict)
    unexpressible: list[str] = field(default_factory=list)


def verify_structure_equations(session: CoframeSession) -> CoframeReport:
    """Check each claimed d(form) against the computed exterior derivative.

    Each d(form) is also checked to be expressible in the wedge basis of the
    coframe by solving a linear system; failure is reported separately.
    """
    if not coframe_rank_ok(session):
        raise DependentCoframeError("coframe forms are linearly dependent")
    names = list(session.forms)
    pair_names = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    wedges = {p: wedge_coord(session.forms[p[0]], session.forms[p[1]], session)
              for p in pair_names}

    # assemble the linear system: one row per coordinate wedge monomial
    keys = sorted({k for w in wedges.values() for k in w.terms},
                  key=lambda st: (session.symbol_order(st[0]), session.symbol_order(st[1])))
    rows = []
    for key in keys:
        rows.append({p: wedges[p].terms[key] for p in pair_names
                     if key in wedges[p].terms})

    report = CoframeReport(verified=True)
    for name in names:
        d_omega = exterior_derivative(session.forms[name], session)
        rhs = [d_omega.terms.get(key, ScalarExpr(0)) for key in keys]
        if not _solvable(rows, rhs, pair_names):
            report.unexpressible.append(name)
            report.verified = False
        residue = dict(d_omega.terms)
        for c, a, b in session.claims.get(name, []):
            _wedge_into(residue, -c, session.forms[a], session.forms[b],
                        key=session.symbol_order)
        report.residues[name] = CoordTwoForm(residue)
        if residue:
            report.verified = False
    return report


# ---------------------------------------------------------------------------
# Coframe file parsing
# ---------------------------------------------------------------------------


class _FormParser(ExprParser):
    """`form` lines: symbols are scalars, and d<symbol> is the basis key <symbol>."""

    def name(self, tok):
        text = tok.text
        if self.table.get(text) is None and text.startswith("d") \
                and self.table.get(text[1:]) is not None:
            return {text[1:]: ScalarExpr(1, self.table)}
        return super().name(tok)

    def nonscalar(self, op):
        return ParseError("use '^' to wedge forms" if op.text == "*"
                          else "cannot divide by a form", op.line, op.col)

    def power(self, base, exponent, op):
        raise ParseError("forms cannot be wedged inside a 'form' line", op.line, op.col)


class _ClaimParser(_FormParser):
    """`d` claims: symbols are scalars, form names and form-name pairs the basis keys."""

    def __init__(self, table, forms):
        super().__init__(table)
        self.forms = forms

    def name(self, tok):
        if tok.text in self.forms:
            return {tok.text: ScalarExpr(1, self.table)}
        return ExprParser.name(self, tok)  # d<symbol> is not a claim term

    def power(self, base, exponent, op):
        # wedge two one-forms: their keys are form names, never tuples
        if any(isinstance(k, tuple) for k in (*base, *exponent)):
            raise ParseError("'^' needs two one-forms or an integer exponent",
                             op.line, op.col)
        return {(a, b): u * v for a, u in base.items()
                for b, v in exponent.items() if a != b}


def parse_coframe(text: str) -> CoframeSession:
    """Parse a coframe file: symbols, `form` definitions, and d-claims."""
    table = SymbolTable()
    symbols: list[str] = []
    forms: dict[str, CoordOneForm] = {}
    claims: dict[str, list[tuple[ScalarExpr, str, str]]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lead = len(raw) - len(raw.lstrip())  # columns before ``line`` in the raw line
        if line.startswith("symbols:"):
            for name in split_names(line, lineno):
                if name in symbols:
                    raise ParseError(f"symbol {name!r} declared twice", lineno, 1)
                table.declare(name, SymbolKind.SOURCE)
                symbols.append(name)
        elif line.startswith("form "):
            body = line[5:]
            if "=" not in body:
                raise ParseError("expected 'form <name> = <expr>'", lineno, 1)
            name, rhs = body.split("=", 1)
            name = name.strip()
            if name in forms or name in symbols:
                raise ParseError(f"form name {name!r} already in use", lineno, 1)
            value = _FormParser(table).parse(rhs, lineno, lead + len(line) - len(rhs) + 1)
            if not value or SCALAR in value:
                raise ParseError("a form line must define a one-form", lineno, 1)
            forms[name] = CoordOneForm(value)
        elif line.startswith("d") and "=" in line:
            lhs, rhs = line.split("=", 1)
            name = lhs.strip()[1:]
            if name not in forms:
                raise ParseError(f"claim for undefined form {name!r}", lineno, 1)
            if name in claims:
                raise ParseError(f"second claim for d{name}", lineno, 1)
            value = _ClaimParser(table, forms).parse(rhs, lineno,
                                                     lead + len(line) - len(rhs) + 1)
            if not all(isinstance(k, tuple) and len(k) == 2 for k in value):
                raise ParseError("a claim must be a two-form (or 0)", lineno, 1)
            claims[name] = [(c, a, b) for (a, b), c in value.items()]
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno, 1)

    if not symbols:
        raise ParseError("missing 'symbols:' declaration")
    if not forms:
        raise ParseError("no coframe forms defined")
    return CoframeSession(table, symbols, forms, claims)

