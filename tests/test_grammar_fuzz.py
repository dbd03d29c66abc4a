"""Fuzz the `.dsys` and `.coframe` grammars through the CLI's exit-code contract.

Texts are built from the grammar's own tokens: declared and undeclared names,
integers 0-3, '+ - * / ^' with exponents of at most 3, parentheses, and
header lines that are sometimes mutated.  Every run must end in exit 0 or 2
(0, 1 or 2 for ``verify-coframe``, with 1 only for a file that parses), with
an ``error:`` line and nothing on stdout for exit 2, and no exception may
escape ``cli.main``.  Coefficients are polynomials or ratios in the one
coordinate ``x``: multivariate rational coefficients can make exact
elimination take seconds, which a fuzz test cannot afford.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from mcforge.cli import main
from mcforge.coordforms import parse_coframe
from mcforge.kernel import McforgeError

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def expressions(draw, names, depth=3):
    """An expression over ``names`` and the integers 0-3, nested at most ``depth`` deep."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(st.integers(0, 3).map(str), st.sampled_from(names)))
    inner = expressions(names, depth - 1)
    shape = draw(st.sampled_from(["binary", "binary", "paren", "neg", "power"]))
    if shape == "binary":
        return f"{draw(inner)} {draw(st.sampled_from('+-*/'))} {draw(inner)}"
    if shape == "paren":
        return f"({draw(inner)})"
    if shape == "neg":
        return f"-{draw(inner)}"
    exponent = draw(st.sampled_from(["0", "1", "2", "3", "-1"] * 2 + names))
    return f"({draw(inner)})^{exponent}"


@st.composite
def headers(draw, good, mutations):
    """The header lines ``good``, with one of ``mutations`` swapped in or added now and then."""
    lines = list(good)
    if draw(st.sampled_from([False, False, False, True])):
        i = draw(st.integers(0, len(lines)))
        mutated = draw(st.sampled_from(mutations))
        if i < len(lines) and draw(st.booleans()):
            lines[i] = mutated
        else:
            lines.insert(i, mutated)
    return lines


@st.composite
def linear_sums(draw, basis, coefficient_names, other_names):
    """Mostly a sum of coefficient * basis terms; now and then any expression at all."""
    if draw(st.sampled_from([False, False, False, True])):
        return draw(expressions(basis + coefficient_names + other_names))
    coefficient = expressions(coefficient_names, depth=2)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        b, c = draw(st.sampled_from(basis)), draw(coefficient)
        other = draw(st.sampled_from(basis))
        terms.append(draw(st.sampled_from([f"({c})*{b}", f"{b}*({c})", f"{b}/({c})", b,
                                           f"({c})*({b} - {other})", f"(({c})*{b})^2"])))
    return " + ".join(terms) if draw(st.booleans()) else " - ".join(terms)


@st.composite
def dsys_texts(draw):
    two_d = draw(st.booleans())
    good = ["coords: x, y", "fields: xi, eta"] if two_d else ["coords: x", "fields: xi"]
    lines = draw(headers(good, ["", "coords: x, x", "fields: xi, x", "targets: X, X",
                                "targets: x", "fields:", "coords x", "fields: xi, eta, zeta",
                                "eq: xi = 0"]))
    # coefficients stay in x alone, as the module docstring says
    jets = ["xi", "xi_x", "eta", "eta_x", "xi_y"] if two_d else ["xi", "xi_x", "xi_x"]
    for _ in range(draw(st.integers(0, 2))):
        lhs = draw(linear_sums(jets, ["x", "x", "1", "2"],
                               ["X", "q", "xi_q", "xi_xx", "eta", "eta_y"]))
        rhs = draw(st.one_of(st.just("0"), linear_sums(jets, ["x", "3"], ["q"])))
        lines.append(draw(st.sampled_from([f"eq: {lhs} = {rhs}"] * 8
                                          + [f"eq: {lhs}", f"eq: {lhs} = {rhs} = 0"])))
    return "\n".join(lines) + "\n"


@st.composite
def coframe_texts(draw):
    lines = draw(headers(["symbols: x, y"], ["", "symbols: x, x", "symbols: y",
                                             "symbols:", "form x = dx"]))
    for i in (1, 2):
        form = draw(linear_sums(["dx", "dy"], ["x", "x", "1", "2"], ["q", "w1"]))
        lines.append(f"form w{i} = {form}")
    wedges = ["w1^w2", "w2^w1", "w1^w1", "(w1 + w2)^w2", "(w1^w2)", "(2*w1)^(w2/x)"]
    for i in (1, 2):
        if draw(st.sampled_from([True, True, True, False])):
            claim = draw(linear_sums(wedges, ["x", "1", "2"], ["w1", "w2", "dx", "q"]))
            lines.append(f"dw{i} = {claim}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check_input_error(code, out, err):
    if code == 2:
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


@FUZZ
@given(text=dsys_texts())
def test_dsys_grammar_keeps_exit_contract(input_path, text):
    input_path.write_text(text)
    for command, order in (("prolong", "1"), ("structure", "0")):
        code, out, err = _run(command, str(input_path), "--order", order)
        assert code in (0, 2), (command, code, err)
        _check_input_error(code, out, err)


@FUZZ
@given(text=coframe_texts())
def test_coframe_grammar_keeps_exit_contract(input_path, text):
    input_path.write_text(text)
    code, out, err = _run("verify-coframe", str(input_path))
    assert code in (0, 1, 2), (code, err)
    _check_input_error(code, out, err)
    if code == 1:
        try:
            parse_coframe(text)
        except McforgeError as exc:
            pytest.fail(f"exit 1 for a file that does not parse: {exc}")
