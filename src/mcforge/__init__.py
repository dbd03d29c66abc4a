"""mcforge: Maurer-Cartan structure equations of Lie pseudo-groups.

Compute the structure equations of a Lie pseudo-group directly from its
linear infinitesimal determining equations, and verify them independently
against the dual Lie brackets of infinitesimal-generator jets.
"""

from .detsys import (
    DeterminingSystem,
    LinearPdeEquation,
    SolvedRelations,
    lift,
    parse_system,
    prolong,
    solve_to_order,
)
from .exterior import McGenerator, OneForm, ThreeForm, TwoForm
from .jetalg import (
    JetVectorField,
    bracket,
    check_duality,
    jacobi_check,
    solution_basis,
)
from .kernel import (
    DegeneratePointError,
    McforgeError,
    ParseError,
    ScalarExpr,
    SymbolTable,
)
from .multiindex import MultiIndex
from .structure import (
    StructureEquationSet,
    check_d_squared,
    diffeo_structure_equation,
    pseudo_group_structure,
)

__version__ = "0.1.0"

__all__ = [
    "DeterminingSystem", "LinearPdeEquation", "SolvedRelations", "lift",
    "parse_system", "prolong", "solve_to_order",
    "McGenerator", "OneForm", "TwoForm", "ThreeForm", "JetVectorField",
    "bracket", "check_duality", "jacobi_check",
    "solution_basis", "DegeneratePointError", "McforgeError", "ParseError",
    "ScalarExpr", "SymbolTable", "MultiIndex",
    "StructureEquationSet", "check_d_squared",
    "diffeo_structure_equation", "pseudo_group_structure", "__version__",
]
