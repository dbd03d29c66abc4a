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
    SymbolTable,
    diff,
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
    claims: dict[str, list[tuple]]  # (coefficient, form name, form name)

    def symbol_order(self, name: str) -> int:
        return self.symbols.index(name)


def exterior_derivative(omega: CoordOneForm, session: CoframeSession) -> CoordTwoForm:
    """d(f ds) = sum_t (df/dt) dt ^ ds over the declared symbols."""
    out: dict = {}
    for s, f in omega.terms.items():
        df = CoordOneForm({t: diff(f, t) for t in session.symbols})
        _wedge_into(out, None, df, s, key=session.symbol_order)
    return CoordTwoForm(out)


def coframe_rank_ok(session: CoframeSession) -> bool:
    """Linear independence of the coframe over the rational-function field."""
    return not eliminate_forward({}, (form.terms for form in session.forms.values()),
                                 lambda name: -session.symbol_order(name))


@dataclass
class CoframeReport:
    verified: bool
    residues: dict[str, CoordTwoForm] = field(default_factory=dict)


def verify_structure_equations(session: CoframeSession) -> CoframeReport:
    """Check each claimed d(form) against the computed exterior derivative.

    A claim is a sum of function multiples of wedges of coframe forms, so a
    d(form) that is not expressible in their wedge basis always leaves a
    nonzero residue: the residue alone decides the verdict.
    """
    if not coframe_rank_ok(session):
        raise DependentCoframeError("coframe forms are linearly dependent")
    report = CoframeReport(verified=True)
    for name, form in session.forms.items():
        residue = dict(exterior_derivative(form, session).terms)
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
        names = self.table.names
        if text not in names and text.startswith("d") and text[1:] in names:
            return {text[1:]: 1}
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
            return {tok.text: 1}
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
    claims: dict[str, list[tuple]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lead = len(raw) - len(raw.lstrip())  # columns before ``line`` in the raw line
        if line.startswith("symbols:"):
            for name in split_names(line, lineno):
                if name in symbols:
                    raise ParseError(f"symbol {name!r} declared twice", lineno, 1)
                if name in forms:
                    raise ParseError(f"symbol {name!r} already names a form", lineno, 1)
                table.declare(name)
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

