"""Coordinate-level exterior calculus for verifying explicit invariant coframes.

Only rational-function coefficients are supported; coframes needing
transcendental entries are rejected rather than approximated, so equality
stays decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exterior import _FormBase, _wedge_into
from .kernel import (
    ExprParser,
    McforgeError,
    ParseError,
    ScalarExpr,
    SymbolKind,
    SymbolTable,
    accumulate,
    echelon,
    eliminate_forward,
    split_names,
    tokenize,
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

    @property
    def ok(self):
        return self.verified


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


class _ClaimVal:
    """Scalar, one-form (by coframe name), or two-form (name pairs) value."""

    def __init__(self, scalar=None, one=None, two=None):
        self.scalar = scalar
        self.one = {k: v for k, v in (one or {}).items() if not v.is_zero}
        self.two = {k: v for k, v in (two or {}).items() if not v.is_zero}

    @property
    def degree(self):
        if self.two:
            return 2
        if self.one:
            return 1
        return 0


class _ClaimSemantics:
    def __init__(self, table, form_names):
        self.table = table
        self.form_names = form_names

    def integer(self, n):
        return _ClaimVal(scalar=ScalarExpr(n, self.table))

    def name(self, text, token):
        if text in self.form_names:
            return _ClaimVal(one={text: ScalarExpr(1, self.table)})
        entry = self.table.get(text)
        if entry is None:
            raise ParseError(f"unknown symbol {text!r}", token.line, token.col)
        return _ClaimVal(scalar=self.table.expr(entry))

    def _zero_scalar(self):
        return ScalarExpr(0, self.table)

    def add(self, a, b, token):
        one, two = dict(a.one), dict(a.two)
        for k, v in b.one.items():
            accumulate(one, k, v)
        for k, v in b.two.items():
            accumulate(two, k, v)
        sa = a.scalar if a.scalar is not None else self._zero_scalar()
        sb = b.scalar if b.scalar is not None else self._zero_scalar()
        return _ClaimVal(scalar=sa + sb, one=one, two=two)

    def sub(self, a, b, token):
        return self.add(a, self.neg(b), token)

    def neg(self, a):
        return _ClaimVal(
            scalar=None if a.scalar is None else -a.scalar,
            one={k: -v for k, v in a.one.items()},
            two={k: -v for k, v in a.two.items()})

    def mul(self, a, b, token):
        if a.degree and b.degree:
            raise ParseError("use '^' to wedge forms", token.line, token.col)
        if b.degree:
            a, b = b, a
        s = b.scalar if b.scalar is not None else self._zero_scalar()
        return _ClaimVal(
            scalar=None if a.scalar is None else a.scalar * s,
            one={k: v * s for k, v in a.one.items()},
            two={k: v * s for k, v in a.two.items()})

    def div(self, a, b, token):
        if b.degree:
            raise ParseError("cannot divide by a form", token.line, token.col)
        if b.scalar is None or b.scalar.is_zero:
            raise ParseError("division by zero", token.line, token.col)
        return _ClaimVal(
            scalar=None if a.scalar is None else a.scalar / b.scalar,
            one={k: v / b.scalar for k, v in a.one.items()},
            two={k: v / b.scalar for k, v in a.two.items()})

    def power(self, a, b, token):
        if a.degree == 1 and b.degree == 1:
            # wedge of two coframe names
            two = {}
            for ka, va in a.one.items():
                for kb, vb in b.one.items():
                    if ka == kb:
                        continue
                    two[(ka, kb)] = va * vb
            return _ClaimVal(two=two)
        if a.degree == 0 and b.degree == 0 and b.scalar is not None \
                and b.scalar.expr.is_Integer:
            return _ClaimVal(scalar=a.scalar ** int(b.scalar.expr))
        raise ParseError("'^' needs two form names or an integer exponent",
                         token.line, token.col)


class _FormSemantics:
    """Expression semantics where d<sym> atoms build coordinate one-forms."""

    def __init__(self, table, symbols):
        self.table = table
        self.symbols = symbols

    def integer(self, n):
        return _ClaimVal(scalar=ScalarExpr(n, self.table))

    def name(self, text, token):
        if text in self.symbols:
            return _ClaimVal(scalar=self.table.expr(text))
        if text.startswith("d") and text[1:] in self.symbols:
            return _ClaimVal(one={text[1:]: ScalarExpr(1, self.table)})
        raise ParseError(f"unknown symbol {text!r}", token.line, token.col)

    add = _ClaimSemantics.add
    sub = _ClaimSemantics.sub
    neg = _ClaimSemantics.neg
    mul = _ClaimSemantics.mul
    div = _ClaimSemantics.div
    _zero_scalar = _ClaimSemantics._zero_scalar

    def power(self, a, b, token):
        if a.degree == 0 and b.degree == 0 and b.scalar is not None \
                and b.scalar.expr.is_Integer:
            return _ClaimVal(scalar=a.scalar ** int(b.scalar.expr))
        raise ParseError("forms cannot be wedged inside a 'form' line",
                         token.line, token.col)


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
            name, rhs = (part.strip() for part in body.split("=", 1))
            if name in forms or name in symbols:
                raise ParseError(f"form name {name!r} already in use", lineno, 1)
            sem = _FormSemantics(table, symbols)
            value = ExprParser(tokenize(rhs, lineno), sem).parse()
            if value.degree != 1 or (value.scalar is not None and not value.scalar.is_zero):
                raise ParseError("a form line must define a one-form", lineno, 1)
            forms[name] = CoordOneForm(dict(value.one))
        elif line.startswith("d") and "=" in line:
            lhs, rhs = (part.strip() for part in line.split("=", 1))
            name = lhs[1:]
            if name not in forms:
                raise ParseError(f"claim for undefined form {name!r}", lineno, 1)
            if name in claims:
                raise ParseError(f"second claim for d{name}", lineno, 1)
            sem = _ClaimSemantics(table, list(forms))
            value = ExprParser(tokenize(rhs, lineno), sem).parse()
            if value.one or (value.scalar is not None and not value.scalar.is_zero):
                raise ParseError("a claim must be a two-form (or 0)", lineno, 1)
            claims[name] = [(c, a, b) for (a, b), c in value.two.items()]
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno, 1)

    if not symbols:
        raise ParseError("missing 'symbols:' declaration")
    if not forms:
        raise ParseError("no coframe forms defined")
    return CoframeSession(table, symbols, forms, claims)

