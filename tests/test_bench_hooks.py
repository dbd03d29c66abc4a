"""The benchmark's tracer must still find, wrap and restore every hooked name.

``perfbench/tracing.py`` wraps mcforge functions by module and name; a rename
under ``src/`` would break ``perfbench/run.py --trace 1``.  This test fails
first.
"""

import importlib.util
import sys
from pathlib import Path

import sympy

# tracing.install hooks coordforms and render too: import them before the snapshot
from mcforge import coordforms, detsys, kernel, render  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_mcforge_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Every attribute the tracer may rebind, by (owner, name)."""
    owners = [m for name, m in sys.modules.items()
              if name == "mcforge" or name.startswith("mcforge.")]
    owners += [kernel.ScalarExpr, kernel.SymbolTable, sympy]
    return {(id(owner), attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    before = _snapshot()
    uninstall = tracing.install(tracing.Tracer())
    try:
        during = _snapshot()
        wrapped = {key for key, value in during.items() if before.get(key) is not value}
        assert wrapped, "install() wrapped nothing"
        assert (id(detsys), "reduce_system") in wrapped
        assert (id(kernel.SymbolTable), "record_nonzero") in wrapped
    finally:
        uninstall()
    after = _snapshot()
    assert all(after[key] is before[key] for key in wrapped)
    assert after.keys() == before.keys()
