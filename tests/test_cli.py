import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

from mcforge import cli, detsys, jetalg
from mcforge.cli import main

from conftest import bundled


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_structure_text(capsys):
    code, out, _ = run(capsys, "structure", "@cartan_essential.dsys", "--order", "1")
    assert code == 0
    assert "basis: mu^y, mu^z, mu^y_X, mu^y_Y, mu^z_X" in out
    assert "dmu^y = -mu^y ^ mu^y_Y" in out
    assert "dmu^z = -X mu^z ^ mu^y_Y" in out
    assert "dmu^y_Y = 0" in out
    assert "assuming: X != 0" in out


def test_structure_deterministic(capsys):
    _, first, _ = run(capsys, "structure", "@cartan_essential.dsys", "--order", "2")
    _, second, _ = run(capsys, "structure", "@cartan_essential.dsys", "--order", "2")
    assert first == second


def test_structure_json_schema(capsys):
    code, out, _ = run(capsys, "structure", "@cartan_essential.dsys",
                       "--order", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"dim", "order", "basis", "assumptions", "equations",
                        "coefficient_dependence"}
    assert obj["dim"] == 3 and obj["order"] == 1
    assert obj["basis"][0] == "mu^y"
    assert obj["assumptions"] == ["X"]
    eq = {e["lhs"]: e["rhs"] for e in obj["equations"]}
    assert eq["mu^y"] == [{"pair": ["mu^y", "mu^y_Y"], "coeff": "-1"}]
    assert eq["mu^y_Y"] == []
    dep = {e["lhs"]: e["targets"] for e in obj["coefficient_dependence"]}
    assert dep["mu^z"] == ["X"]


def test_structure_latex(capsys):
    code, out, _ = run(capsys, "structure", "@cartan_essential.dsys",
                       "--order", "1", "--format", "latex")
    assert code == 0
    assert "\\begin{aligned}" in out
    assert "\\mu^y_Y" in out and "\\wedge" in out


def test_diffeo_golden(capsys):
    code, out, _ = run(capsys, "diffeo", "--dim", "1", "--order", "3")
    assert code == 0
    assert "dmu^x = -mu^x ^ mu^x_X" in out
    assert "dmu^x_{XX} = -mu^x ^ mu^x_{XXX} - mu^x_X ^ mu^x_{XX}" in out


def test_diffeo_bad_dim(capsys):
    code, _, err = run(capsys, "diffeo", "--dim", "0", "--order", "1")
    assert code == 2
    assert "error" in err


def test_lift_text(capsys):
    code, out, _ = run(capsys, "lift", "@cartan_essential.dsys", "--order", "2")
    assert code == 0
    assert "mu^x = 0" in out
    assert "mu^z_Z = X mu^y_Y" in out
    assert "mu^z_{XZ} = mu^y_Y + X mu^y_{XY}" in out
    assert "mu^y_{YY} = 0" in out


def test_lift_json_roundtrip(capsys):
    code, out, _ = run(capsys, "lift", "@intransitive_translation.dsys",
                       "--order", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["parametric"] == ["mu^y"]
    rel = {r["lhs"]: r["rhs"] for r in obj["relations"]}
    assert rel["mu^x"] == []
    assert rel["mu^y_X"] == [{"gen": "mu^y", "coeff": "1/X"}]
    assert rel["mu^y_Y"] == []


def test_prolong(capsys):
    code, out, _ = run(capsys, "prolong", "@cartan_essential.dsys", "--order", "2")
    assert code == 0
    assert "zeta_z - x*eta_y = 0" in out
    assert "zeta_xz - x*eta_xy - eta_y = 0" in out


@pytest.mark.parametrize("argv", [
    ["prolong", "@cartan_essential.dsys", "--order", "2", "--cap", "3"],
    ["verify-coframe", "@cartan_example2.coframe", "--cap", "3"],
])
def test_cap_refused_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --cap 3" in err
    assert "Traceback" not in err


def test_check_d2_refuses_a_shape_that_changes_past_the_cap(capsys):
    # at cap 5 the solve at order 4 keeps mu^x_XXXX parametric and the solve
    # at order 5 solves for it, so d^2 of the order-3 equations has no rule
    code, out, err = run(capsys, "check-d2", "@janet.dsys", "--order", "3", "--cap", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot check d^2 at order 3 with --cap 5: ")
    assert "the solved shape changed between orders 4 and 5" in err
    assert "mu^x_{XXXX} is parametric" in err and "raise --cap" in err
    assert "mu[" not in err and "Traceback" not in err
    code, out, _ = run(capsys, "check-d2", "@janet.dsys", "--order", "3", "--cap", "7")
    assert code == 1 and out.startswith("nonzero residue for d^2 ")


def test_each_order_is_derived_once_per_system(monkeypatch, capsys):
    # check-d2 solves at n + 1 and again at n + 2, and both solves extend
    # one prolongation; each solve used to derive every order from 0 again
    calls = []
    derive = detsys.total_derivative
    monkeypatch.setattr(detsys, "total_derivative",
                        lambda *args: calls.append(args) or derive(*args))
    for argv, code, derived in [
        (["check-d2", "@cartan_essential.dsys", "--order", "2"], 0, 157),
        (["check-d2", "@janet.dsys", "--order", "2"], 1, 234),
        (["structure", "@janet.dsys", "--order", "4", "--cap", "7"], 0, 348),
    ]:
        calls.clear()
        assert run(capsys, *argv)[0] == code
        assert len(calls) == derived, argv
    # a second basis on the same system, as after a degenerate point is
    # redrawn, reads the prolongation the first one derived
    system = detsys.parse_system(bundled("cartan_essential.dsys"))
    point = jetalg.default_point(system)
    calls.clear()
    first = jetalg.solution_basis(system, point, 2)
    assert calls
    calls.clear()
    assert jetalg.solution_basis(system, point, 2) == first
    assert not calls


def test_check_d2_pass(capsys):
    code, out, _ = run(capsys, "check-d2", "@intransitive_translation.dsys",
                       "--order", "1")
    assert code == 0
    assert "all residues zero" in out


def test_check_duality_pass(capsys):
    code, out, _ = run(capsys, "check-duality", "@cartan_essential.dsys",
                       "--order", "1", "--point", "x=1,y=1,z=1")
    assert code == 0
    assert "0 violations" in out


def test_check_duality_json(capsys):
    code, out, _ = run(capsys, "check-duality", "@intransitive_translation.dsys",
                       "--order", "0", "--point", "x=1,y=0", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True


def test_check_duality_degenerate_point(capsys):
    code, _, err = run(capsys, "check-duality", "@intransitive_translation.dsys",
                       "--order", "0", "--point", "x=0,y=0")
    assert code == 2
    assert "error" in err


def test_bracket_table(capsys):
    code, out, _ = run(capsys, "bracket", "@intransitive_translation.dsys",
                       "--order", "2", "--point", "x=1,y=0")
    assert code == 0
    assert "solution basis dimension: 1" in out


def test_bracket_diffeo_json(capsys):
    code, out, _ = run(capsys, "bracket", "@cartan_essential.dsys",
                       "--order", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 5
    assert any(b["terms"] for b in obj["brackets"])


def test_verify_coframe_pass(capsys):
    code, out, _ = run(capsys, "verify-coframe", "@cartan_example2.coframe")
    assert code == 0
    assert "verified" in out and "RESIDUE" not in out


def test_verify_coframe_fail(tmp_path, capsys):
    bad = tmp_path / "bad.coframe"
    bad.write_text("symbols: x, y\nform w1 = dx\nform w2 = dy - (y/x)*dx\n"
                   "dw1 = 0\ndw2 = (2/x)*w1^w2\n")
    code, out, _ = run(capsys, "verify-coframe", str(bad))
    assert code == 1
    assert "RESIDUE" in out
    assert "verification failed" in out


def test_missing_input_exit_2(capsys):
    code, _, err = run(capsys, "structure", "/no/such/file.dsys", "--order", "1")
    assert code == 2
    assert "error" in err


def test_missing_bundled_exit_2(capsys):
    code, _, err = run(capsys, "structure", "@nope.dsys", "--order", "1")
    assert code == 2
    assert "no bundled input" in err


@pytest.mark.parametrize("name", ["../cli.py", "../data/janet.dsys", "data", ""])
def test_bundled_name_outside_data_exit_2(capsys, name):
    code, out, err = run(capsys, "structure", f"@{name}", "--order", "1")
    assert (code, out) == (2, "")
    assert f"no bundled input named {name!r}" in err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.dsys"
    bad.write_text("coords: x\nfields: xi\neq: xi * xi = 0\n")
    code, _, err = run(capsys, "structure", str(bad), "--order", "1")
    assert code == 2


def test_bad_point_exit_2(capsys):
    code, _, err = run(capsys, "check-duality", "@cartan_essential.dsys",
                       "--order", "1", "--point", "q=1")
    assert code == 2
    assert "unknown coordinate" in err


@pytest.mark.parametrize("value", ["1e10000000", "2^5000", "0.5", "1/0"])
def test_point_value_outside_the_grammar_exit_2_at_once(capsys, value):
    start = time.perf_counter()
    code, out, err = run(capsys, "check-duality", "@intransitive_translation.dsys",
                         "--order", "0", "--point", f"x={value}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad rational value {value!r} in --point: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value, same", [("2/3", "2/3"), ("-1", "-1"), ("0", "0"),
                                         ("(2/3)^2", "4/9"), (" 6/4 ", "3/2")])
def test_point_values_are_rationals(capsys, value, same):
    argv = ["bracket", "@intransitive_translation.dsys", "--order", "2", "--point"]
    expected = run(capsys, *argv, f"x=1,y={same}")
    assert expected[0] == 0
    assert run(capsys, *argv, f"y={value},x=1") == expected


@pytest.mark.parametrize("name, argv", [
    ("bad.dsys", ["structure", "--order", "1"]),
    ("bad.coframe", ["verify-coframe"]),
])
def test_input_that_is_not_utf8_exit_2(tmp_path, capsys, name, argv):
    path = tmp_path / name
    path.write_bytes(b"coords: x\n\xff\xfe\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {str(path)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["check-duality", "bracket"])
def test_repeated_point_coordinate_exit_2(capsys, command):
    code, out, err = run(capsys, command, "@intransitive_translation.dsys",
                         "--order", "1", "--point", "x=1,x=2")
    assert (code, out) == (2, "")
    assert "coordinate 'x' given twice in --point" in err


def test_color_env_controls_stderr(capsys, monkeypatch):
    monkeypatch.setenv("MCFORGE_COLOR", "1")
    code, _, err = run(capsys, "structure", "@nope.dsys", "--order", "1")
    assert code == 2
    assert "\x1b[31m" in err
    monkeypatch.setenv("MCFORGE_COLOR", "0")
    code, _, err = run(capsys, "structure", "@nope.dsys", "--order", "1")
    assert "\x1b[" not in err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_order_below_system_order_exit_2(capsys):
    code, _, err = run(capsys, "prolong", "@cartan_essential.dsys", "--order", "0")
    assert code == 2
    assert err == "error: prolongation order 0 below system order 1\n"


def test_negative_order_exit_2(capsys):
    code, _, err = run(capsys, "structure", "@cartan_essential.dsys", "--order", "-1")
    assert code == 2
    assert err == "error: order must be >= 0\n"


# ---------------------------------------------------------------------------
# Genericity ledger: input-coefficient denominators are reported too
# ---------------------------------------------------------------------------


@pytest.fixture
def pole_input(tmp_path):
    path = tmp_path / "pole.dsys"
    path.write_text("coords: x\nfields: xi\neq: xi_x = xi/(x-1)\n")
    return str(path)


def test_input_denominator_is_assumed(capsys, pole_input):
    code, out, _ = run(capsys, "structure", pole_input, "--order", "1")
    assert code == 0
    assert "assuming: X - 1 != 0\n" in out


@pytest.mark.parametrize("source, point", [
    ("@intransitive_translation.dsys", "x=2,y=3"),
    ("pole", "x=2"),
])
def test_check_duality_warns_on_one_dimensional_basis(capsys, pole_input, source, point):
    source = pole_input if source == "pole" else source
    code, out, err = run(capsys, "check-duality", source, "--order", "1", "--point", point)
    assert code == 0
    assert out == "0 pairings checked, 0 violations\n"
    assert err == "warning: solution basis has dimension 1; no pair of jets to check\n"


def test_check_duality_no_warning_with_pairs(capsys):
    code, _, err = run(capsys, "check-duality", "@cartan_essential.dsys",
                       "--order", "1", "--point", "x=2/3,y=-1,z=5")
    assert code == 0
    assert err == ""


def test_input_denominator_vanishing_at_point(capsys, pole_input):
    code, _, err = run(capsys, "check-duality", pole_input,
                       "--order", "1", "--point", "x=1")
    assert code == 2
    assert err == "error: assumed-nonzero function x - 1 vanishes at the point\n"


@pytest.mark.parametrize("source, expected", [
    ("@cartan_essential.dsys", ["X"]),
    ("@intransitive_translation.dsys", ["X"]),
    ("janet", []),
])
def test_bundled_assumptions_unchanged(capsys, janet_file, source, expected):
    source = janet_file if source == "janet" else source
    code, out, _ = run(capsys, "structure", source, "--order", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["assumptions"] == expected


@pytest.mark.parametrize("command", ["structure", "lift"])
def test_cap_below_order_exit_2(capsys, command):
    code, out, err = run(capsys, command, "@cartan_essential.dsys",
                         "--order", "1", "--cap", "0")
    assert code == 2
    assert out == ""
    assert err == "error: --cap 0 below --order 1\n"


def test_bundled_janet_matches_golden(capsys):
    code, out, _ = run(capsys, "structure", "@janet.dsys", "--order", "4", "--cap", "7")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "structure_janet_o4_cap7.txt"
    assert out == golden.read_text()


# ---------------------------------------------------------------------------
# Input contract: negative orders and duplicate or clashing names exit 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command, extra", [
    ("structure", ["@cartan_essential.dsys"]),
    ("diffeo", ["--dim", "1"]),
    ("lift", ["@cartan_essential.dsys"]),
    ("prolong", ["@cartan_essential.dsys"]),
    ("check-d2", ["@cartan_essential.dsys"]),
    ("check-duality", ["@cartan_essential.dsys"]),
    ("bracket", ["@cartan_essential.dsys"]),
])
def test_negative_order_exit_2_on_every_command(capsys, command, extra):
    code, out, err = run(capsys, command, *extra, "--order", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: order must be >= 0\n"


GUARD = "above the limit of 500\n"


@pytest.mark.parametrize("command, extra", [
    ("structure", ["@cartan_essential.dsys"]),
    ("diffeo", ["--dim", "3"]),
    ("lift", ["@cartan_essential.dsys"]),
    ("prolong", ["@cartan_essential.dsys"]),
    ("check-d2", ["@cartan_essential.dsys"]),
    ("check-duality", ["@cartan_essential.dsys"]),
    ("bracket", ["@cartan_essential.dsys"]),
])
def test_too_many_generators_exit_2_at_once(capsys, command, extra):
    # three coordinates at order 50: 3 C(54, 51) generators
    start = time.perf_counter()
    code, out, err = run(capsys, command, *extra, "--order", "50")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == ("error: order 50 in dimension 3 needs 74412 Maurer-Cartan "
                   "generators, " + GUARD)


def test_generator_limit_boundary(capsys):
    # in dimension 1 there are n + 2 generators at order n
    assert cli._generator_count(1, 498) == cli.MAX_GENERATORS == 500
    code, _, err = run(capsys, "diffeo", "--dim", "1", "--order", "499")
    assert code == 2
    assert err == "error: order 499 in dimension 1 needs 501 Maurer-Cartan generators, " + GUARD
    assert run(capsys, "diffeo", "--dim", "2", "--order", "19")[0] == 0  # 462 generators


def test_astronomical_generator_count_exit_2_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "diffeo", "--dim", "1000000", "--order", "1000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err == ("error: order 1000000 in dimension 1000000 needs more than "
                   "1000000000000000000 Maurer-Cartan generators, " + GUARD)


@pytest.mark.parametrize("command, extra", [
    ("structure", ["@janet.dsys"]),
    ("diffeo", ["--dim", "3"]),
    ("lift", ["@janet.dsys"]),
    ("check-d2", ["@janet.dsys"]),
    ("check-duality", ["@janet.dsys"]),
    ("bracket", ["@janet.dsys"]),
])
def test_cap_above_the_generator_limit_exit_2_at_once(capsys, command, extra):
    # a solve may prolong to the cap: 3 C(43, 40) generators at --cap 40
    start = time.perf_counter()
    code, out, err = run(capsys, command, *extra, "--order", "4", "--cap", "40")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == ("error: --cap 40 in dimension 3 needs 37023 Maurer-Cartan "
                   "generators, " + GUARD)


def test_cap_limit_boundary(capsys):
    # in dimension 1 a cap C allows C + 1 generators
    assert run(capsys, "diffeo", "--dim", "1", "--order", "1", "--cap", "499")[0] == 0
    code, _, err = run(capsys, "diffeo", "--dim", "1", "--order", "1", "--cap", "500")
    assert code == 2
    assert err == "error: --cap 500 in dimension 1 needs 501 Maurer-Cartan generators, " + GUARD
    code, _, err = run(capsys, "structure", "@janet.dsys", "--order", "1",
                       "--cap", str(10 ** 18))
    assert code == 2
    assert err == (f"error: --cap {10 ** 18} in dimension 3 needs more than "
                   "1000000000000000000 Maurer-Cartan generators, " + GUARD)


def test_generator_count_is_the_binomial_formula():
    for m in range(1, 6):
        for n in range(30):
            assert cli._generator_count(m, n) == m * math.comb(m + n + 1, n + 1)


def _dsys_lines(coords="x, y", targets=None, fields="xi, eta", extra=()):
    lines = [f"coords: {coords}"]
    if targets is not None:
        lines.append(f"targets: {targets}")
    lines.append(f"fields: {fields}")
    return "\n".join(lines + list(extra)) + "\n"


@pytest.mark.parametrize("text, line", [
    (_dsys_lines(coords="x, x"), 1),
    (_dsys_lines(targets="X, X"), 2),
    (_dsys_lines(fields="xi, xi"), 2),
    (_dsys_lines(fields="x, eta"), 2),              # field named like a coordinate
    (_dsys_lines(fields="xi, Y"), 2),               # ... like an automatic target
    (_dsys_lines(targets="U, V", fields="xi, V"), 3),  # ... like a declared target
    (_dsys_lines(targets="y, X"), 2),               # target named like a coordinate
    (_dsys_lines(extra=["coords: u, v"]), 3),       # a second header line
])
@pytest.mark.parametrize("command", ["structure", "check-d2"])
def test_duplicate_or_clashing_dsys_names_exit_2(tmp_path, capsys, command, text, line):
    path = tmp_path / "dup.dsys"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path), "--order", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"(line {line}, column 1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, line", [
    ("symbols: x, y", "symbols: x, y, y", 3),
    ("symbols: x, y", "symbols: x, y\nsymbols: y", 4),
    ("form w2 = dy - (y/x)*dx", "form w2 = dy - (y/x)*dx\nform w1 = dy", 6),
    ("form w2 = dy - (y/x)*dx", "form w2 = dy - (y/x)*dx\nform x = dy", 6),
    ("dw1 = 0", "dw1 = 0\ndw1 = w1^w2", 7),
])
def test_duplicate_coframe_names_exit_2(tmp_path, capsys, old, new, line):
    text = bundled("cartan_example2.coframe")
    assert old in text
    path = tmp_path / "dup.coframe"
    path.write_text(text.replace(old, new))
    code, out, err = run(capsys, "verify-coframe", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"(line {line}, column 1)" in err


# ---------------------------------------------------------------------------
# Input grammar: zero forms, scalar parts under '^', and the ledger's order
# ---------------------------------------------------------------------------


def _coframe(tmp_path, form1="dx", claim1="0", claim2="(1/x)*w1^w2"):
    path = tmp_path / "claims.coframe"
    path.write_text(f"symbols: x, y\nform w1 = {form1}\nform w2 = dy - (y/x)*dx\n"
                    f"dw1 = {claim1}\ndw2 = {claim2}\n")
    return str(path)


@pytest.mark.parametrize("form1, claim1", [
    ("dx", "(w1^w1)^2"),             # w1^w1 = 0, and so is its square
    ("(0*dx)^2 + dx", "0"),          # a zero form raised to a power
])
def test_zero_form_powers_verify(tmp_path, capsys, form1, claim1):
    code, out, err = run(capsys, "verify-coframe", _coframe(tmp_path, form1, claim1))
    assert (code, err) == (0, "")
    assert out == "dw1: ok\ndw2: ok\nverified\n"


def test_wedge_of_form_with_scalar_part_exit_2(tmp_path, capsys):
    path = _coframe(tmp_path, claim2="(1/x + w1)^w2")
    code, out, err = run(capsys, "verify-coframe", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "(line 5, column 17)" in err


@pytest.mark.parametrize("equation, expected", [
    ("xi_x + 0/(x - 1) = 0", ["X - 1"]),     # a zero numerator still records
    ("xi_x = xi/(x*y)", ["X*Y"]),
    ("xi_x/(y + 1) + 0/(x - 1) = xi/(x*y)", ["Y + 1", "X - 1", "X*Y"]),
])
def test_input_divisors_listed_in_parse_order(tmp_path, capsys, equation, expected):
    path = tmp_path / "divisors.dsys"
    path.write_text(f"coords: x, y\nfields: xi, eta\neq: {equation}\n")
    code, out, _ = run(capsys, "structure", str(path), "--order", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["assumptions"] == expected


# ---------------------------------------------------------------------------
# Input bounds: nesting depth, the size of a power and of an integer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, text, column", [
    ("lhs.dsys", "coords: x\nfields: xi\neq: 2^3^3^3*xi_x = xi\n", 6),
    ("rhs.dsys", "coords: x\nfields: xi\neq: xi_x = 2^3^3^3*xi\n", 13),
    ("form.coframe", "symbols: x, y\nform w1 = dx\nform w2 = dx + 2^3^3^3*dy\n", 17),
])
def test_parse_error_columns_count_from_the_start_of_the_line(tmp_path, capsys, name,
                                                              text, column):
    path = tmp_path / name
    path.write_text(text)
    argv = (("verify-coframe", str(path)) if name.endswith(".coframe")
            else ("structure", str(path), "--order", "1"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: power too large") and f"(line 3, column {column})" in err


@pytest.mark.parametrize("expression, message", [
    ("(" * 10000 + "x" + ")" * 10000, "nested deeper than 100 levels"),
    ("-" * 10000 + "x", "nested deeper than 100 levels"),
    ("2^3^3^3", "power too large"),
    ("(x + 1)^400", "power too large"),
    ("9" * 5000, "integer too large"),              # past Python's int/str digit limit
    ("*".join(["7" * 1000] * 5), "integer too large"),
])
def test_input_bounds_exit_2_in_both_grammars(tmp_path, capsys, expression, message):
    dsys = tmp_path / "bound.dsys"
    dsys.write_text(f"coords: x\nfields: xi\neq: {expression}*xi_x = xi\n")
    coframe = tmp_path / "bound.coframe"
    coframe.write_text(f"symbols: x, y\nform w1 = dx\nform w2 = {expression}*dy\n")
    for argv in (("structure", str(dsys), "--order", "1"), ("verify-coframe", str(coframe))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err and "(line 3, column " in err
        assert "Traceback" not in err


@pytest.mark.parametrize("lines", [
    ["eq: x*y*eta_yy = 0", "eq: y*(x*y*eta_yy) = 0"],
    ["eq: y*(x*y*eta_yy) = 0", "eq: x*y*eta_yy = 0"],
])
def test_lift_ledger_does_not_depend_on_equation_order(tmp_path, capsys, lines):
    path = tmp_path / "multiple.dsys"
    path.write_text("\n".join(["coords: x, y", "fields: xi, eta", *lines]) + "\n")
    code, out, _ = run(capsys, "lift", str(path), "--order", "2")
    assert code == 0
    assert "\nassuming: X*Y != 0\n" in out


def test_prolong_does_not_depend_on_equation_order(tmp_path, capsys):
    code, expected, _ = run(capsys, "prolong", "@intransitive_translation.dsys", "--order", "3")
    assert code == 0
    lines = bundled("intransitive_translation.dsys").splitlines()
    head = [line for line in lines if not line.startswith("eq:")]
    equations = [line for line in lines if line.startswith("eq:")]
    path = tmp_path / "reordered.dsys"
    for reordered in itertools.permutations(equations):
        path.write_text("\n".join(head + list(reordered)) + "\n")
        assert run(capsys, "prolong", str(path), "--order", "3") == (0, expected, "")


@pytest.fixture(scope="module")
def unprintable_input(tmp_path_factory):
    """Four dense order-0 equations with 1200-digit coefficients, inside the
    parser's integer bound; eliminating them yields integers of ~16 000 bits."""
    rng = random.Random(5)
    lines = ["coords: x, y, z, u, v", "fields: a, b, c, d, e"]
    for _ in range(4):
        terms = [f"{rng.randrange(10**1199, 10**1200)}*{f}" for f in "abcde"]
        lines.append(f"eq: {' + '.join(terms)} = 0")
    path = tmp_path_factory.mktemp("unprintable") / "big.dsys"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_unprintable_coefficient_exit_2(capsys, unprintable_input, fmt):
    code, out, err = run(capsys, "lift", unprintable_input, "--order", "0", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: coefficient too large to print") and "bits" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["2^3000", "(1/2)^3000", "3^2584"])
def test_point_value_inside_the_power_bound_is_accepted(capsys, value):
    code, out, err = run(capsys, "check-duality", "@intransitive_translation.dsys",
                         "--order", "0", "--point", f"x={value}")
    assert (code, err) == (0, "warning: solution basis has dimension 1; no pair of jets to check\n")
    assert out == "0 pairings checked, 0 violations\n"


INPUTS = Path(__file__).parent / "inputs"


def test_coframe_with_split_symbols_verifies_as_one_line(capsys):
    # w1 = dx and the divisor x are built before y is declared
    for fmt in ("text", "json"):
        split = run(capsys, "verify-coframe", str(INPUTS / "split_symbols.coframe"),
                    "--format", fmt)
        one_line = run(capsys, "verify-coframe", "@cartan_example2.coframe", "--format", fmt)
        assert split == one_line and split[0] == 0


@pytest.mark.parametrize("name", ["symbol_named_like_form.coframe",
                                  "symbol_differential_clash.coframe"])
def test_symbol_named_like_an_earlier_form_exits_2(capsys, name):
    # each file declares on line 5 a symbol that names the form of line 4
    code, out, err = run(capsys, "verify-coframe", str(INPUTS / name))
    form = "y" if name == "symbol_named_like_form.coframe" else "w1"
    assert (code, out) == (2, "")
    assert err == f"error: symbol {form!r} already names a form (line 5, column 1)\n"


def test_ambiguous_jet_suffix_exits_2(capsys):
    # prolonged, the jet (x, x, xx) of this input would print as xi_xxxx,
    # which reads back as other jets
    code, out, err = run(capsys, "prolong", str(INPUTS / "ambiguous_suffix.dsys"),
                         "--order", "3")
    assert (code, out) == (2, "")
    assert err == ("error: ambiguous derivative coordinates 'xxx' in 'xi_xxx': "
                   "(x, xx) or (x, x, x) (line 5, column 5)\n")
