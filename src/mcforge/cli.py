"""Command-line front end.

Exit status: 0 on success, 1 when a verification fails (nonzero residue or
duality violation), 2 on input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import resources

from . import coordforms, detsys, jetalg, render, structure
from .exterior import MissingRuleError
from .kernel import McforgeError


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
    except OSError as exc:
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
            point[name] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise McforgeError(f"bad rational value {value!r} in --point") from exc
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
    if args.command != "diffeo":
        system = detsys.parse_system(_read_input(args.input))
        m = len(system.coords)
    elif args.dim < 1:
        raise McforgeError("--dim must be >= 1")
    else:
        m = args.dim
    _check_size(m, args.order)
    cap = getattr(args, "cap", None)
    if cap is not None:
        _check_size(m, cap - 1, f"--cap {cap}")
    if system is not None:
        return system
    coords = ["x", "y", "z"][:m] if m <= 3 else [f"z{i+1}" for i in range(m)]
    return detsys.DeterminingSystem.empty(coords)


def cmd_structure(args) -> int:
    eqs = structure.pseudo_group_structure(_system(args), args.order, cap=args.cap)
    sys.stdout.write(render.render_structure(eqs, args.format))
    return 0


def cmd_lift(args) -> int:
    solved = detsys.solve_to_order(_system(args), args.order, cap=args.cap)
    sys.stdout.write(render.render_lift(detsys.lift(solved), args.format))
    return 0


def cmd_prolong(args) -> int:
    prolonged = detsys.prolong(_system(args), args.order)
    sys.stdout.write(render.render_prolong(prolonged, args.format))
    return 0


def cmd_check_d2(args) -> int:
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
    if args.format == "json":
        obj = {"order": args.order, "ok": report.ok,
               "failures": [render.gen_text(g, system.coords, system.targets)
                            for g in report.failures()]}
        sys.stdout.write(render.render_json(obj))
    else:
        if report.ok:
            sys.stdout.write("all residues zero\n")
        else:
            for g in report.failures():
                sys.stdout.write(
                    f"nonzero residue for d^2 "
                    f"{render.gen_text(g, system.coords, system.targets)}\n")
    return 0 if report.ok else 1


def cmd_check_duality(args) -> int:
    system = _system(args)
    point = _parse_point(args.point, system)
    eqs = structure.pseudo_group_structure(system, args.order, cap=args.cap)
    basis = jetalg.solution_basis(system, point, args.order + 1, cap=args.cap)
    if len(basis) < 2:
        sys.stderr.write(f"warning: solution basis has dimension {len(basis)}; "
                         "no pair of jets to check\n")
    report = jetalg.check_duality(eqs, basis, point)
    if args.format == "json":
        obj = {"order": args.order, "pairings": report.pairings, "ok": report.ok,
               "violations": len(report.violations)}
        sys.stdout.write(render.render_json(obj))
    else:
        sys.stdout.write(
            f"{report.pairings} pairings checked, "
            f"{len(report.violations)} violations\n")
    return 0 if report.ok else 1


def cmd_bracket(args) -> int:
    system = _system(args)
    point = _parse_point(args.point, system)
    basis = jetalg.solution_basis(system, point, args.order, cap=args.cap)
    rows = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = jetalg.bracket(basis[i], basis[j])
            rows.append((i, j, sorted(br.coefficients.items(),
                                      key=lambda gc: (gc[0].index.sort_key(), gc[0].component))))
    if args.format == "json":
        obj = {"dimension": len(basis), "order": args.order,
               "brackets": [
                   {"i": i, "j": j,
                    "terms": [{"component": g.component,
                               "index": list(g.index.entries),
                               "coeff": render.coeff_text(c)}
                              for g, c in entries]}
                   for i, j, entries in rows]}
        sys.stdout.write(render.render_json(obj))
    else:
        sys.stdout.write(f"solution basis dimension: {len(basis)}\n")
        for i, j, entries in rows:
            body = " + ".join(
                f"({render.coeff_text(c)})*zeta[{g.component}]{list(g.index.entries)}"
                for g, c in entries) or "0"
            sys.stdout.write(f"[v{i+1}, v{j+1}] = {body}\n")
    return 0


def cmd_verify_coframe(args) -> int:
    session = coordforms.parse_coframe(_read_input(args.input))
    report = coordforms.verify_structure_equations(session)
    if args.format == "json":
        obj = {"verified": report.verified,
               "residues": {name: [{"pair": list(key),
                                    "coeff": render.coeff_text(c)}
                                   for key, c in sorted(two.terms.items())]
                            for name, two in report.residues.items()}}
        sys.stdout.write(render.render_json(obj))
    else:
        for name in session.forms:
            residue = report.residues.get(name)
            status = "ok" if residue is not None and residue.is_zero else "RESIDUE"
            sys.stdout.write(f"d{name}: {status}\n")
            if residue is not None and not residue.is_zero:
                for (s, t), c in sorted(residue.terms.items()):
                    sys.stdout.write(
                        f"  residue term: ({render.coeff_text(c)}) d{s}^d{t}\n")
        sys.stdout.write("verified\n" if report.verified else "verification failed\n")
    return 0 if report.verified else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcforge",
        description="Maurer-Cartan structure equations of Lie pseudo-groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, order=True, cap=True):
        if needs_input:
            p.add_argument("input", help="determining-system file (@name for bundled)")
        if order:
            p.add_argument("--order", type=int, required=True)
        if cap:
            p.add_argument("--cap", type=int, default=None,
                           help="max prolongation order for the fixed-point loop "
                                "(at least --order)")
        p.add_argument("--format", choices=["text", "latex", "json"], default="text")

    p = sub.add_parser("structure", help="pseudo-group structure equations")
    common(p)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("diffeo", help="diffeomorphism structure equations")
    p.add_argument("--dim", type=int, required=True)
    common(p, needs_input=False)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("lift", help="lifted determining relations")
    common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("prolong", help="prolonged determining system")
    common(p, cap=False)
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("check-d2", help="verify d(d mu) = 0")
    common(p)
    p.set_defaults(func=cmd_check_d2)

    p = sub.add_parser("check-duality",
                       help="verify structure equations against jet brackets")
    common(p)
    p.add_argument("--point", default=None, help="evaluation point, e.g. x=1,y=2")
    p.set_defaults(func=cmd_check_duality)

    p = sub.add_parser("bracket", help="bracket table of the solution basis")
    common(p)
    p.add_argument("--point", default=None, help="evaluation point, e.g. x=1,y=2")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("verify-coframe", help="check a coframe's structure equations")
    common(p, order=False, cap=False)
    p.set_defaults(func=cmd_verify_coframe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        order, cap = getattr(args, "order", None), getattr(args, "cap", None)
        if order is not None and order < 0:
            raise McforgeError("order must be >= 0")
        if cap is not None and order is not None and cap < order:
            raise McforgeError(f"--cap {cap} below --order {order}")
        return args.func(args)
    except McforgeError as exc:
        sys.stderr.write(_diag(f"error: {exc}") + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
