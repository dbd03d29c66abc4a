"""Byte-for-byte CLI output against the files in tests/golden/.

A golden file changes only when a change means to change the output; the
commit that does so says why.
"""

from pathlib import Path

import pytest

from mcforge.cli import main

GOLDEN = Path(__file__).parent / "golden"
# conformal maps of the metric 3 dx^2 + 5 dy^2: Cauchy-Riemann after rescaling
# y, and the one input whose constants are not all integers
CONFORMAL = str(Path(__file__).parent / "inputs" / "conformal_3_5.dsys")

CASES = [
    ("structure_essential_o3.txt",
     ["structure", "@cartan_essential.dsys", "--order", "3"]),
    ("structure_essential_o3.tex",
     ["structure", "@cartan_essential.dsys", "--order", "3", "--format", "latex"]),
    ("structure_essential_o3.json",
     ["structure", "@cartan_essential.dsys", "--order", "3", "--format", "json"]),
    ("lift_translation_o3.txt",
     ["lift", "@intransitive_translation.dsys", "--order", "3"]),
    ("lift_essential_o2.tex",
     ["lift", "@cartan_essential.dsys", "--order", "2", "--format", "latex"]),
    ("lift_essential_o2.json",
     ["lift", "@cartan_essential.dsys", "--order", "2", "--format", "json"]),
    ("prolong_essential_o2.txt",
     ["prolong", "@cartan_essential.dsys", "--order", "2"]),
    ("prolong_essential_o2.json",
     ["prolong", "@cartan_essential.dsys", "--order", "2", "--format", "json"]),
    # components z1..z4 are the only ones LaTeX writes as \mu^{z1}
    ("diffeo_d4_o1.txt", ["diffeo", "--dim", "4", "--order", "1"]),
    ("diffeo_d4_o1.tex", ["diffeo", "--dim", "4", "--order", "1", "--format", "latex"]),
    ("diffeo_d4_o1.json", ["diffeo", "--dim", "4", "--order", "1", "--format", "json"]),
    ("structure_janet_o4_cap7.txt",
     ["structure", "{janet}", "--order", "4", "--cap", "7"]),
    ("bracket_essential_o2_point.txt",
     ["bracket", "@cartan_essential.dsys", "--order", "2", "--point", "x=2/3,y=-1,z=5"]),
    ("bracket_essential_o2_point.json",
     ["bracket", "@cartan_essential.dsys", "--order", "2", "--point", "x=2/3,y=-1,z=5",
      "--format", "json"]),
    ("verify_coframe_example2.json",
     ["verify-coframe", "@cartan_example2.coframe", "--format", "json"]),
    ("verify_coframe_example2.txt", ["verify-coframe", "@cartan_example2.coframe"]),
    ("check_d2_essential_o1.txt", ["check-d2", "@cartan_essential.dsys", "--order", "1"]),
    ("check_d2_essential_o1.json",
     ["check-d2", "@cartan_essential.dsys", "--order", "1", "--format", "json"]),
    ("check_duality_essential_o1.txt",
     ["check-duality", "@cartan_essential.dsys", "--order", "1"]),
    ("check_duality_essential_o1.json",
     ["check-duality", "@cartan_essential.dsys", "--order", "1", "--format", "json"]),
    ("structure_conformal_o2.txt", ["structure", CONFORMAL, "--order", "2"]),
    ("structure_conformal_o2.tex",
     ["structure", CONFORMAL, "--order", "2", "--format", "latex"]),
    ("structure_conformal_o2.json",
     ["structure", CONFORMAL, "--order", "2", "--format", "json"]),
    ("lift_conformal_o2.tex", ["lift", CONFORMAL, "--order", "2", "--format", "latex"]),
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(golden, argv, capsys, janet_file):
    code = main([a.format(janet=janet_file) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_conformal_goldens_hold_proper_fractions():
    for name in ("structure_conformal_o2.tex", "lift_conformal_o2.tex"):
        text = (GOLDEN / name).read_text()
        assert "\\frac{3}{5}" in text and "\\frac{5}{3}" in text
    assert "- \\frac{3}{5}" in (GOLDEN / "lift_conformal_o2.tex").read_text()


def test_bracket_latex_prints_its_text_form(capsys):
    """bracket has no LaTeX form, so --format latex prints the text golden."""
    code = main(["bracket", "@cartan_essential.dsys", "--order", "2",
                 "--point", "x=2/3,y=-1,z=5", "--format", "latex"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "bracket_essential_o2_point.txt").read_text()
