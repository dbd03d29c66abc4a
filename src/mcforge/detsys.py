"""Linear infinitesimal determining systems: parse, prolong, solve, lift.

The DSL accepts linear homogeneous PDE systems for vector-field jets
(``eta_xy`` is the second derivative of the eta component by x and y).
Jets and Maurer-Cartan generators share one key, ``McGenerator(b, A)``.
Solving puts the system in triangular form over the rational-function field;
lifting renames source coordinates to targets, so the solved jet relations
become the linear relations among the restricted forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import Optional

from .exterior import McGenerator, OneForm
from .kernel import (
    SCALAR,
    ExprParser,
    InvalidOrderError,
    McforgeError,
    ParseError,
    SymbolTable,
    accumulate,
    as_expr,
    back_substitute,
    diff,
    echelon,
    eliminate_forward,
    graded_add,
    graded_neg,
    is_constant,
    quotient,
    split_names,
    substitute,
)
from .multiindex import MultiIndex, all_indices


class NonlinearInputError(McforgeError):
    """A product of jet symbols appeared in a determining equation."""


@dataclass
class LinearPdeEquation:
    """Homogeneous linear equation sum coeff(z) * zeta^b_A = 0."""

    terms: dict  # jet -> nonzero coefficient

    @property
    def order(self) -> int:
        return max(js.index.order for js in self.terms)

    def pivot(self) -> McGenerator:
        return max(self.terms, key=McGenerator.sort_key)

    def normal_key(self):
        # scale-invariant canonical key for deduplication
        c0 = self.terms[self.pivot()]
        items = [((js.component, js.index.entries), quotient(c, c0))
                 for js, c in self.terms.items()]
        items.sort(key=lambda it: it[0])
        return tuple(items)


def _key_text(key) -> str:
    """A normal key spelled with sympy expressions, the tie-break between rows."""
    return str(tuple((jet, as_expr(c)) for jet, c in key))


class _Prolongation:
    """Rows by jet order, the last order's front, the forward elimination, and its pivot
    count and ledger length after each order; it holds no system, so no GC cycle.

    ``reduced`` maps (g, k) to the reduced structure equation of generator g,
    where k is the number of solved pivots of order <= |g| + 1
    (``structure.pseudo_group_structure`` fills it).
    """

    def __init__(self):
        self.rows, self.front, self.forward, self.sizes, self.ledger = [], [], {}, [], []
        self.reduced = {}


@dataclass
class DeterminingSystem:
    """A determining system and the one prolongation that every solve of it extends.

    Each jet order is derived once, when ``prolong`` or a solve first reaches
    it, and eliminated once, when a solve does; ``prolong`` eliminates
    nothing.  The equations are fixed once the system is prolonged or solved.
    Like the genericity ledger of its table, the prolongation is per-system.
    """

    table: SymbolTable
    coords: list[str]
    targets: list[str]
    fields: list[str]
    equations: list[LinearPdeEquation]
    _prolongation: _Prolongation = field(default_factory=_Prolongation, init=False,
                                         compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def order(self) -> int:
        return max((eq.order for eq in self.equations), default=0)

    @classmethod
    def empty(cls, coords: list[str], targets: Optional[list[str]] = None,
              fields: Optional[list[str]] = None) -> "DeterminingSystem":
        targets = targets or [c.upper() for c in coords]
        fields = fields or [f"zeta{i + 1}" for i in range(len(coords))]
        table = SymbolTable()
        for name in [*coords, *targets]:
            table.declare(name)
        return cls(table, list(coords), targets, fields, [])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _EquationParser(ExprParser):
    """Sides of a `.dsys` equation: coordinates are scalars and jets the basis keys."""

    def __init__(self, table, coords, fields):
        super().__init__(table)
        self.coords = coords
        self.fields = fields

    def name(self, tok):
        text = tok.text
        if text in self.coords:
            return {SCALAR: self.table.expr(text)}
        js = self._jet_symbol(text, tok)
        if js is not None:
            return {js: 1}
        if text in self.table.names:  # declared, and neither a coordinate nor a jet
            raise ParseError(
                f"target coordinate {text!r} cannot appear in determining equations",
                tok.line, tok.col)
        raise ParseError(f"unknown symbol {text!r}", tok.line, tok.col)

    def _jet_symbol(self, text, tok):
        if text in self.fields:
            return McGenerator(self.fields.index(text), MultiIndex())
        if "_" not in text:
            return None
        base, _, suffix = text.rpartition("_")
        if base not in self.fields:
            return None
        readings = _suffix_readings(suffix, self.coords)
        if not readings:
            raise ParseError(
                f"cannot read {suffix!r} as derivative coordinates in {text!r}",
                tok.line, tok.col)
        if len(readings) > 1:
            first, second = (", ".join(self.coords[a] for a in r) for r in readings)
            raise ParseError(f"ambiguous derivative coordinates {suffix!r} in {text!r}: "
                             f"({first}) or ({second})", tok.line, tok.col)
        return McGenerator(self.fields.index(base), readings[0])

    def nonscalar(self, op):
        what = "product of jet symbols" if op.text == "*" else "division by a jet symbol"
        return NonlinearInputError(f"nonlinear term: {what} at line {op.line}")

    def power(self, base, exponent, op):
        n = self.exponent(exponent, op)
        if n != 1:
            raise NonlinearInputError(
                f"nonlinear term: jet symbol raised to power {n} at line {op.line}")
        return base


def _suffix_readings(suffix: str, coords: list[str]) -> list[MultiIndex]:
    """The multi-indices that split ``suffix`` into coordinate names: none, one, or two
    of the distinct ones when there are more.

    One left-to-right pass keeps, at each position, at most two distinct
    multi-indices of the splits of the text before it.  That is exact: two
    distinct ones at a position that some split continues to the end give
    two distinct ones at the end, so a third one there decides nothing.
    """
    reads: list[list[MultiIndex]] = [[] for _ in range(len(suffix) + 1)]
    reads[0].append(MultiIndex())
    for i, here in enumerate(reads):
        for a, name in enumerate(coords):
            if here and suffix.startswith(name, i):
                there = reads[i + len(name)]
                for index in here:
                    index = index.append(a)
                    if len(there) < 2 and index not in there:
                        there.append(index)
    return reads[-1]


def parse_system(text: str) -> DeterminingSystem:
    """Parse the determining-system DSL into a DeterminingSystem."""
    headers: dict[str, list[str]] = {"coords": [], "targets": [], "fields": []}
    header_lines: dict[str, int] = {}
    raw_equations: list[tuple[str, int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, _ = line.partition(":")
        if colon and head in headers:
            if head in header_lines:
                raise ParseError(f"second '{head}:' line", lineno, 1)
            headers[head], header_lines[head] = split_names(line, lineno), lineno
        elif line.startswith("eq:"):
            # the equation and the column it starts at in the raw line
            raw_equations.append((line[3:], lineno, len(raw) - len(raw.lstrip()) + 4))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno, 1)

    coords, targets, fields = headers["coords"], headers["targets"], headers["fields"]
    if not coords:
        raise ParseError("missing 'coords:' declaration")
    if not fields:
        raise ParseError("missing 'fields:' declaration")
    if len(fields) != len(coords):
        raise ParseError("fields must match coords positionally")
    if not targets:
        targets = [c.upper() for c in coords]
        if set(targets) & set(coords):
            raise ParseError("cannot auto-name targets; add an explicit 'targets:' line")
    if len(targets) != len(coords):
        raise ParseError("targets must match coords positionally")
    declared: dict[str, str] = {}
    for head, names in (("coords", coords), ("targets", targets), ("fields", fields)):
        for name in names:
            if name in declared:
                raise ParseError(f"{head} name {name!r} already declared in "
                                 f"'{declared[name]}:'", header_lines.get(head), 1)
            declared[name] = head

    system = DeterminingSystem.empty(coords, targets, fields)
    parser = _EquationParser(system.table, coords, fields)
    for text_eq, lineno, column in raw_equations:
        if text_eq.count("=") != 1:
            raise ParseError("an equation needs exactly one '='", lineno, 1)
        lhs_text, rhs_text = text_eq.split("=")
        lhs = parser.parse(lhs_text, lineno, column)
        rhs = parser.parse(rhs_text, lineno, column + len(lhs_text) + 1)
        diff = graded_add(lhs, graded_neg(rhs))
        if SCALAR in diff:
            raise ParseError(
                f"equation is not homogeneous (constant term {diff[SCALAR]})", lineno, 1)
        if not diff:
            raise ParseError("equation has no jet symbols", lineno, 1)
        system.equations.append(LinearPdeEquation(diff))
    return system


# ---------------------------------------------------------------------------
# Prolongation
# ---------------------------------------------------------------------------


def total_derivative(eq: LinearPdeEquation, a: int,
                     sys: DeterminingSystem) -> LinearPdeEquation:
    """D_{z^a} of a linear equation: differentiate coefficients, shift jets."""
    terms: dict = {}
    for js, c in eq.terms.items():
        accumulate(terms, js, diff(c, sys.coords[a]))
        accumulate(terms, McGenerator(js.component, js.index.append(a)), c)
    return LinearPdeEquation(terms)


def _rows_to(sys: DeterminingSystem, n: int) -> list[list[LinearPdeEquation]]:
    """The rows of jet order 0..n, each a D^A E, one per normal key; new orders are derived.

    Each front entry is a D^A E with the last coordinate it was differentiated
    by, and is differentiated only by that coordinate and later ones, so each
    multi-index A is taken once.  The front keeps every row: a row dropped
    from the output as a multiple of another still has derivatives of its own.
    Rows are sorted by pivot; rows sharing one are ordered by the text of
    their normal key, and of those sharing a key the one kept has a constant
    pivot coefficient or else the first pivot coefficient by text.
    """
    state = sys._prolongation
    for k in range(len(state.rows), n + 1):
        state.front = [(total_derivative(eq, a, sys), a)
                       for eq, last in state.front for a in range(last, sys.dim)]
        state.front += [(eq, 0) for eq in sys.equations if eq.order == k]
        by_pivot: dict[McGenerator, list[LinearPdeEquation]] = {}
        for eq, _ in state.front:
            by_pivot.setdefault(eq.pivot(), []).append(eq)
        rows = []
        for pivot in sorted(by_pivot, key=McGenerator.sort_key):
            group = by_pivot[pivot]
            if len(group) == 1:
                rows += group
                continue
            kept: dict[tuple, tuple] = {}
            for eq in group:
                c = eq.terms[pivot]
                rank, key = (not is_constant(c), str(as_expr(c))), eq.normal_key()
                if key not in kept or rank < kept[key][0]:
                    kept[key] = (rank, eq)
            rows += [kept[key][1] for key in sorted(kept, key=_key_text)]
        state.rows.append(rows)
    return state.rows[:n + 1]


def prolong(sys: DeterminingSystem, n: int) -> DeterminingSystem:
    """The system prolonged to jet order n: every D^A E of order <= n, one per normal key."""
    if n < sys.order:
        raise InvalidOrderError(
            f"prolongation order {n} below system order {sys.order}")
    return DeterminingSystem(sys.table, sys.coords, sys.targets, sys.fields,
                             list(chain.from_iterable(_rows_to(sys, n))))


# ---------------------------------------------------------------------------
# Row reduction over the rational-function field
# ---------------------------------------------------------------------------


@dataclass
class SolvedRelations:
    """Triangular solved form: each dependent jet -> combination of parametric jets.

    A solve gives it in source coordinates and ``lift`` in target ones; every
    later stage reads it.  ``assumptions`` are the ledger entries the solve
    recorded.
    """

    system: DeterminingSystem
    order: int
    solved: dict[McGenerator, OneForm]
    parametric: list[McGenerator]
    assumptions: list
    stable: bool = True


def _parametric(dim: int, order: int, solved) -> list[McGenerator]:
    parametric = [
        McGenerator(b, A)
        for A in all_indices(dim, order)
        for b in range(dim)
        if McGenerator(b, A) not in solved
    ]
    parametric.sort(key=McGenerator.sort_key)
    return parametric


def reduce_system(sys: DeterminingSystem,
                  order: Optional[int] = None) -> SolvedRelations:
    """Gaussian elimination, eliminating the highest-ordered jets first.

    The assumptions reported are the table's whole ledger, on a fresh parse
    what these rows recorded: input divisors and every non-constant pivot.
    ``order`` bounds the parametric enumeration; it defaults to the highest
    equation order but must be given explicitly for systems with few or no
    equations (the diffeomorphism pseudo-group has none at all).
    """
    solved, _ = echelon((eq.terms for eq in sys.equations), McGenerator.sort_key)
    order = sys.order if order is None else max(order, sys.order)
    return SolvedRelations(sys, order, {p: OneForm(rhs) for p, rhs in solved.items()},
                           _parametric(sys.dim, order, solved),
                           list(sys.table.assumed_nonzero))


def solve_to_order(sys: DeterminingSystem, order: int,
                   cap: Optional[int] = None) -> SolvedRelations:
    """Prolong-and-solve until the solved shape at the working order stabilizes.

    ``order`` is the working order: the result holds the relations and
    parametric jets of order <= ``order``, and ``stable`` says whether their
    shape was unchanged by the last prolongation step.  It concerns this order
    only (``pseudo_group_structure`` at order n solves at n + 1).

    The system is prolonged to k = max(order, system order), k + 1, ... up to
    ``cap`` (default ``order + 2``); a cap below k + 1 is raised to k + 1, so
    at least one step is compared.  Late integrability conditions show up as
    new low-order relations when the system is prolonged further; if the
    shape is still changing at the cap the result is flagged unstable.

    Elimination only appends pivots and never rewrites a row, so that of the
    rows of order <= k is the first ``sizes[k]`` pivots of the system's one
    forward elimination, however deep an earlier solve went.  A step changes
    the solved shape exactly when it adds a pivot of order <= ``order``; the
    loop stops on that count and back-substitutes once.  The result equals
    prolonging and reducing a fresh parse from scratch at every order: its
    ledger is the prefix of the table's that was recorded up to the last order
    k compared, whatever deeper orders earlier solves recorded.
    """
    start = max(order, sys.order)
    cap = max(cap if cap is not None else order + 2, start + 1)
    state = sys._prolongation
    ledger = sys.table.assumed_nonzero
    for k in range(start + 1, cap + 1):
        for batch in _rows_to(sys, k)[len(state.sizes):]:
            eliminate_forward(state.forward, (eq.terms for eq in batch), McGenerator.sort_key)
            state.sizes.append(len(state.forward))
            state.ledger.append(len(ledger))
        added = islice(state.forward, state.sizes[k - 1], state.sizes[k])
        stable = all(p.index.order > order for p in added)
        if stable:
            break
    forward = dict(islice(state.forward.items(), state.sizes[k]))
    solved = back_substitute(forward, McGenerator.sort_key,
                             [p for p in forward if p.index.order <= order])
    return SolvedRelations(sys, order, {p: OneForm(rhs) for p, rhs in solved.items()},
                           _parametric(sys.dim, order, forward),
                           ledger[:state.ledger[k]], stable)


# ---------------------------------------------------------------------------
# Lifting (source -> target, jets -> Maurer-Cartan generators)
# ---------------------------------------------------------------------------


def lift(rel: SolvedRelations) -> SolvedRelations:
    """Replace z by Z in every coefficient; a jet's key already names its generator."""
    rename = dict(zip(rel.system.coords, rel.system.targets))
    return replace(
        rel, solved={p: OneForm({j: substitute(v, rename) for j, v in rhs.terms.items()})
                     for p, rhs in rel.solved.items()},
        assumptions=[substitute(a, rename) for a in rel.assumptions])
