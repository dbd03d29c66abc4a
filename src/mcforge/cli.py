"""Command-line front end: one table of commands over one output path.

Each row of ``COMMANDS`` holds a command's name, help, the arguments it reads
and its function, which returns the text that ``render`` writes for its
result, or ``(text, ok)`` for a verdict.  ``main`` writes that text to stdout
once and exits 0, or 1 when a verdict fails (nonzero residue, duality
violation or coframe residue).  An input error, a ``McforgeError`` raised
while computing or rendering, exits 2 with one ``error:`` line on stderr and
nothing on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from itertools import combinations

from . import coordforms, detsys, jetalg, render, structure
from .exterior import MissingRuleError
from .kernel import SCALAR, ExprParser, McforgeError, ParseError, SymbolTable, as_constant


def _diag(message: str) -> str:
    if os.environ.get("MCFORGE_COLOR", "0") == "1":
        return f"\x1b[31m{message}\x1b[0m"
    return message


def _read_input(path: str) -> str:
    if path.startswith("@"):
        # bundled example inputs, e.g. @cartan_essential.dsys: only the names
        # of files directly in mcforge/data, so no name reaches another file
        data = resources.files("mcforge").joinpath("data")
        bundled = {ref.name: ref for ref in data.iterdir() if ref.is_file()}
        if path[1:] not in bundled:
            raise McforgeError(f"no bundled input named {path[1:]!r}")
        return bundled[path[1:]].read_text()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise McforgeError(f"cannot read {path!r}: {exc}") from exc


def _parse_point(text: str | None, system: detsys.DeterminingSystem) -> dict:
    point = jetalg.default_point(system)
    if not text:
        return point
    given = set()
    for item in text.split(","):
        if "=" not in item:
            raise McforgeError(f"bad --point entry {item!r} (expected name=value)")
        name, value = (part.strip() for part in item.split("=", 1))
        if name not in point:
            raise McforgeError(f"unknown coordinate {name!r} in --point")
        if name in given:
            raise McforgeError(f"coordinate {name!r} given twice in --point")
        given.add(name)
        try:
            # no symbols: a value is a constant within the grammar's bounds
            parsed = ExprParser(SymbolTable()).parse(value)
        except ParseError as exc:
            raise McforgeError(f"bad rational value {value!r} in --point: {exc}") from None
        point[name] = as_constant(parsed.get(SCALAR, 0))
    return point


# The most Maurer-Cartan generators, m C(m + n + 1, n + 1) in dimension m at
# order n, that a command may work with.  The largest structure command
# allowed, diffeo --dim 1 --order 498, takes about 20 s on a 2-vCPU x86-64
# host; past the limit the cost grows without bound, so such a command is
# refused before anything is built.
MAX_GENERATORS = 500
# counts larger than this are reported as larger than it
_COUNT_SHOWN = 10 ** 18


def _generator_count(m: int, n: int) -> int | None:
    """m C(m + n + 1, n + 1), or None when it exceeds _COUNT_SHOWN.

    C(max + j, j) with j = min(m, n + 1) is built one factor at a time; it at
    least doubles per factor, so a few dozen steps decide the answer.
    """
    j, top = min(m, n + 1), max(m, n + 1)
    c = 1
    for i in range(1, j + 1):
        c = c * (top + i) // i
        if m * c > _COUNT_SHOWN:
            return None
    return m * c


def _check_size(m: int, n: int, what: str | None = None) -> None:
    """Refuse ``what``, by default ``order n``, when the generators of order <= n + 1
    are more than MAX_GENERATORS."""
    count = _generator_count(m, n)
    if count is None or count > MAX_GENERATORS:
        shown = f"more than {_COUNT_SHOWN}" if count is None else count
        raise McforgeError(
            f"{what or f'order {n}'} in dimension {m} needs {shown} Maurer-Cartan "
            f"generators, above the limit of {MAX_GENERATORS}")


def _system(args) -> detsys.DeterminingSystem:
    """The command's determining system: its input's, or for ``diffeo`` one with no equations.

    A command whose order, or whose explicit ``--cap`` C (a solve may prolong
    to order C), needs more than MAX_GENERATORS generators is refused here,
    before anything is prolonged or solved.
    """
    system = None
    if args.dim is None:
        system = detsys.parse_system(_read_input(args.input))
        m = len(system.coords)
    elif args.dim < 1:
        raise McforgeError("--dim must be >= 1")
    else:
        m = args.dim
    _check_size(m, args.order)
    if args.cap is not None:
        _check_size(m, args.cap - 1, f"--cap {args.cap}")
    if system is not None:
        return system
    coords = ["x", "y", "z"][:m] if m <= 3 else [f"z{i+1}" for i in range(m)]
    return detsys.DeterminingSystem.empty(coords)


def cmd_structure(args) -> str:
    eqs = structure.pseudo_group_structure(_system(args), args.order, cap=args.cap)
    return render.render_structure(eqs, args.format)


def cmd_lift(args) -> str:
    solved = detsys.solve_to_order(_system(args), args.order, cap=args.cap)
    return render.render_lift(detsys.lift(solved), args.format)


def cmd_prolong(args) -> str:
    return render.render_prolong(detsys.prolong(_system(args), args.order), args.format)


def cmd_check_d2(args) -> tuple[str, bool]:
    system = _system(args)
    n = args.order
    eqs = structure.pseudo_group_structure(system, n, cap=args.cap)
    try:
        report = structure.check_d_squared(eqs, cap=args.cap)
    except MissingRuleError as exc:
        # a generator on a right-hand side of eqs is missing from the rules
        # only when the solve at n + 2 solved for it
        cap = "the default cap" if args.cap is None else f"--cap {args.cap}"
        gen = render.gen_text(exc.generator, system.coords, system.targets)
        raise McforgeError(
            f"cannot check d^2 at order {n} with {cap}: the solved shape changed "
            f"between orders {n + 1} and {n + 2} ({gen} is parametric when solved "
            f"to order {n + 1} but dependent when solved to order {n + 2}, so it "
            f"has no structure equation); raise --cap") from None
    return render.render_d2(report, system, args.format), report.ok


def cmd_check_duality(args) -> tuple[str, bool]:
    system = _system(args)
    point = _parse_point(args.point, system)
    eqs = structure.pseudo_group_structure(system, args.order, cap=args.cap)
    basis = jetalg.solution_basis(system, point, args.order + 1, cap=args.cap)
    if len(basis) < 2:
        sys.stderr.write(f"warning: solution basis has dimension {len(basis)}; "
                         "no pair of jets to check\n")
    report = jetalg.check_duality(eqs, basis, point)
    return render.render_duality(report, args.order, args.format), report.ok


def cmd_bracket(args) -> str:
    system = _system(args)
    point = _parse_point(args.point, system)
    basis = jetalg.solution_basis(system, point, args.order, cap=args.cap)
    brackets = [(i, j, jetalg.bracket(basis[i], basis[j]))
                for i, j in combinations(range(len(basis)), 2)]
    return render.render_brackets(len(basis), args.order, brackets, args.format)


def cmd_verify_coframe(args) -> tuple[str, bool]:
    session = coordforms.parse_coframe(_read_input(args.input))
    report = coordforms.verify_structure_equations(session)
    return render.render_coframe(session, report, args.format), report.verified


# Every argument a command may read, in the order its help lists them.
ARGUMENTS = {
    "input": (["input"], {"help": "determining-system file (@name for bundled)"}),
    "dim": (["--dim"], {"type": int, "required": True}),
    "order": (["--order"], {"type": int, "required": True}),
    "cap": (["--cap"], {"type": int, "default": None,
                        "help": "max prolongation order for the fixed-point loop "
                                "(at least --order)"}),
    "format": (["--format"], {"choices": ["text", "latex", "json"], "default": "text"}),
    "point": (["--point"], {"default": None, "help": "evaluation point, e.g. x=1,y=2"}),
}

# name, help, the arguments besides --format that the command reads, function
COMMANDS = [
    ("structure", "pseudo-group structure equations", "input order cap", cmd_structure),
    ("diffeo", "diffeomorphism structure equations", "dim order cap", cmd_structure),
    ("lift", "lifted determining relations", "input order cap", cmd_lift),
    ("prolong", "prolonged determining system", "input order", cmd_prolong),
    ("check-d2", "verify d(d mu) = 0", "input order cap", cmd_check_d2),
    ("check-duality", "verify structure equations against jet brackets",
     "input order cap point", cmd_check_duality),
    ("bracket", "bracket table of the solution basis", "input order cap point", cmd_bracket),
    ("verify-coframe", "check a coframe's structure equations", "input", cmd_verify_coframe),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcforge",
        description="Maurer-Cartan structure equations of Lie pseudo-groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, reads, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        reads = reads.split() + ["format"]
        for arg, (flags, options) in ARGUMENTS.items():
            if arg in reads:
                p.add_argument(*flags, **options)
        # an argument the command does not read is None
        p.set_defaults(func=func, **{arg: None for arg in ARGUMENTS if arg not in reads})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.order is not None and args.order < 0:
            raise McforgeError("order must be >= 0")
        if args.cap is not None and args.cap < args.order:
            raise McforgeError(f"--cap {args.cap} below --order {args.order}")
        result = args.func(args)
    except McforgeError as exc:
        sys.stderr.write(_diag(f"error: {exc}") + "\n")
        return 2
    text, ok = result if isinstance(result, tuple) else (result, True)
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
