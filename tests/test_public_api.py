"""The package's public names, and the names the benchmark under bench/ imports.

The benchmark is kept frozen while the library changes, so a name it imports
from `ellipse_phase` (or a spec attribute it reads) must not disappear.  These
tests only read bench/; they do not run it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ellipse_phase
from ellipse_phase import (
    SigmaEvaluator,
    eval_elliptic,
    eval_f,
    make_divisor,
    make_lattice,
    sigma,
    synthesize,
    wrap_angle,
)

from conftest import random_cell_point

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("workloads.py", "layers.py")


def resolves(name: str) -> bool:
    """True if `from ellipse_phase import name` succeeds (attribute or submodule)."""
    if hasattr(ellipse_phase, name):
        return True
    try:
        importlib.import_module(f"ellipse_phase.{name}")
    except ModuleNotFoundError:
        return False
    return True


def imported_names(path: Path) -> list[str]:
    """Names that a module imports with `from ellipse_phase[...] import ...`."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "ellipse_phase":
            names += [alias.name for alias in node.names]
    return names


def test_all_names_resolve_once():
    names = ellipse_phase.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(ellipse_phase, n)]
    assert missing == []


@pytest.mark.parametrize("module", BENCH_MODULES)
def test_bench_imports_resolve(module):
    names = imported_names(BENCH_DIR / module)
    assert names, f"bench/{module} imports nothing from ellipse_phase"
    assert [n for n in names if not resolves(n)] == []


def test_spec_exposes_factor_shifts():
    # bench/layers.py replays sigma over spec.eval_zeros + spec.eval_poles
    lat = make_lattice(1, 1j)
    spec = synthesize(make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], lat), 0, 0, lat)
    shifts = spec.eval_zeros + spec.eval_poles
    assert shifts == spec.quotient.zeros + spec.quotient.poles
    assert shifts == (0.3 + 0.4j, 0.6 + 0.1j)


@pytest.mark.parametrize(
    "lat",
    [make_lattice(1.1 - 0.2j, 0.3 + 0.9j), make_lattice(1, 1 + 1j)],
    ids=["skew", "shear-k1"],
)
def test_spec_g_satisfies_literal_formula(lat, rng):
    # bench/workloads.py gates its oracle on
    # log f(z) = a*z + log g(z) + log sigma(z) - log sigma(z - xi0), read via spec.g
    ev = SigmaEvaluator(lat)
    for pairs in range(1, 6):
        points = [(random_cell_point(rng, lat), 1) for _ in range(2 * pairs)]
        d = make_divisor(points[:pairs], points[pairs:], lat)
        spec = synthesize(d, rng.randint(-2, 2), rng.randint(-2, 2), lat)
        for _ in range(4):
            z = random_cell_point(rng, lat)
            g = eval_elliptic(spec.g, ev, z)
            literal = spec.a * z + g.log() + sigma(ev, z).log() - sigma(ev, z - spec.xi0).log()
            gap = eval_f(spec, ev, z).log() - literal
            assert abs(complex(gap.real, wrap_angle(gap.imag))) <= 1e-9
