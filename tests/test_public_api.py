"""The package's public names, and the names the benchmark under bench/ imports.

The benchmark is kept frozen while the library changes, so a name it imports
from `ellipse_phase` (or a spec attribute it reads) must not disappear, and
each call it makes must still bind to the callee's signature.  These tests
only read bench/; they do not run it.
"""

import ast
import copy
import functools
import importlib
import inspect
import pickle
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
from ellipse_phase.jsonio import report_to_obj

from conftest import random_cell_point

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("workloads.py", "layers.py")


def bench_object(dotted: str):
    """The object a bench name reaches: `eval_f`, or `jsonio.dumps` through a submodule."""
    head, *attrs = dotted.split(".")
    obj = getattr(ellipse_phase, head, None) or importlib.import_module(f"ellipse_phase.{head}")
    return functools.reduce(getattr, attrs, obj)


def resolves(name: str) -> bool:
    """True if `from ellipse_phase import name` succeeds (attribute or submodule)."""
    try:
        bench_object(name)
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


def call_sites(path: Path) -> list[tuple[int, str, int, list[str]]]:
    """(line, callee, positional count, keyword names) of each call into ellipse_phase.

    A call counts when it calls a name imported from `ellipse_phase`, an
    attribute of such a name (`jsonio.dumps`), or a dict entry keyed by such a
    name (`lib["eval_f"]`).  Calls that unpack `*args` or `**kwargs` have no
    fixed shape and are left out.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set(imported_names(path))
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name):
            callee = fn.id
        elif isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            callee = f"{fn.value.id}.{fn.attr}"
        elif isinstance(fn, ast.Subscript) and isinstance(fn.slice, ast.Constant):
            callee = str(fn.slice.value)
        else:
            continue
        if callee.split(".")[0] not in names:
            continue
        keywords = [k.arg for k in node.keywords]
        if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        sites.append((node.lineno, callee, len(node.args), keywords))
    return sites


def test_all_names_resolve_once():
    names = ellipse_phase.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(ellipse_phase, n)]
    assert missing == []


def test_star_import_binds_all():
    namespace = {}
    exec("from ellipse_phase import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ellipse_phase.__all__


def test_dir_lists_all():
    listed = dir(ellipse_phase)
    assert [n for n in ellipse_phase.__all__ if n not in listed] == []


def test_each_name_maps_to_its_defining_module():
    # a wrong entry still resolves where that module imports the name, and
    # then loads a module the name does not need
    wrong = {
        name: module
        for name, module in ellipse_phase._SOURCES.items()
        if getattr(ellipse_phase, name).__module__ != f"ellipse_phase.{module}"
    }
    assert wrong == {}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ellipse_phase.no_such_name
    with pytest.raises(ImportError):
        exec("from ellipse_phase import no_such_name", {})


@pytest.mark.parametrize("module", BENCH_MODULES)
def test_bench_imports_resolve(module):
    names = imported_names(BENCH_DIR / module)
    assert names, f"bench/{module} imports nothing from ellipse_phase"
    assert [n for n in names if not resolves(n)] == []


@pytest.mark.parametrize("module", BENCH_MODULES)
def test_bench_calls_bind(module):
    # a re-signed function (eval_f without ev, QuadratureSpec without seed) keeps
    # its name but breaks the benchmark run
    sites = call_sites(BENCH_DIR / module)
    assert sites, f"bench/{module} calls nothing from ellipse_phase"
    unbound = []
    for line, callee, positional, keywords in sites:
        try:
            inspect.signature(bench_object(callee)).bind(
                *[None] * positional, **dict.fromkeys(keywords)
            )
        except TypeError as exc:
            unbound.append(f"bench/{module}:{line} {callee}: {exc}")
    assert unbound == []


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


LAT = make_lattice(1.1, 0.3 + 1.1j)
SPEC = synthesize(make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], LAT), 1, 0, LAT)
REPORT = ellipse_phase.verify_spec(SPEC, ellipse_phase.GridSpec(LAT, 2, 2))

#: each value class, and the fields of one instance, in __init__ order
VALUE_FIELDS = {
    "Lattice": (LAT.p1, LAT.p2, LAT.omega),
    "LogValue": (0.5, -1.0),
    "RatioConstant": (0.1 + 0.2j, ellipse_phase.VMethod.VIA_ETA, 0, 1e-13),
    "RenderSpec": (0j, 1.0, 2.0, 3, 4, ellipse_phase.Coloring.PHASE_HUE_MODULUS, "x.ppm"),
    "Divisor": (SPEC.divisor.zeros, SPEC.divisor.poles),
    "PoleValue": (2,),
    "SigmaQuotient": (0.5j, 0j, (0.3 + 0.4j,), (0.6 + 0.1j,)),
    "PhaseFunctionSpec": tuple(getattr(SPEC, name) for name in SPEC.__slots__),
    "GridSpec": (LAT, 3, 4, 7),
    "QuadratureSpec": (4, 5, 6),
    "ContourCount": (0, 1e-9 + 0j, 1e-9, 0.1 + 0.2j, 0.05 + 0.05j),
    "VerificationReport": tuple(getattr(REPORT, name) for name in REPORT.__slots__),
}


@pytest.mark.parametrize("name", VALUE_FIELDS)
def test_value_class_contract(name):
    # the value classes are plain __slots__ classes, so nothing else pins what
    # @dataclass(frozen=True) gave them
    cls = getattr(ellipse_phase, name)
    fields = VALUE_FIELDS[name]
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b and a != object()
    assert copy.copy(a) == a
    names = [n for n in cls.__slots__ if n != "ev"]
    shown = ", ".join(f"{n}={getattr(a, n)!r}" for n in names)
    # tests/fingerprint.py hashes these reprs
    assert repr(a) == f"{name}({shown})"
    for field in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, cls.__slots__[0])
    assert a == b, "a refused assignment changed a field"


@pytest.mark.parametrize("name", VALUE_FIELDS)
def test_value_class_binds_like_a_signature(name):
    # most value classes take Value's generic __init__, which must bind and
    # refuse arguments as the explicit signatures of the others do
    cls = getattr(ellipse_phase, name)
    fields = VALUE_FIELDS[name]
    a = cls(*fields)
    by_name = dict(zip(cls.__slots__, fields))
    assert cls(**by_name) == a
    assert pickle.loads(pickle.dumps(a)) == a
    first = cls.__slots__[0]
    refused = [
        lambda: cls(*fields, None),
        lambda: cls(*fields, extra=None),
        lambda: cls(*fields, **{first: fields[0]}),
    ]
    if name != "QuadratureSpec":  # every QuadratureSpec field has a default
        refused.append(lambda: cls(**{n: v for n, v in by_name.items() if n != first}))
    for build in refused:
        with pytest.raises(TypeError, match=rf"^{name}\b"):
            build()


def test_spec_equality_ignores_evaluator():
    other = ellipse_phase.PhaseFunctionSpec(
        *(getattr(SPEC, name) for name in SPEC.__slots__[:-1]), SigmaEvaluator(LAT)
    )
    assert other.ev is not SPEC.ev
    assert other == SPEC and hash(other) == hash(SPEC)


@pytest.mark.parametrize(
    "name, parameters",
    [
        ("RenderSpec", [
            ("center", None), ("width", None), ("height", None), ("width_px", None), ("height_px", None),
            ("coloring", ellipse_phase.Coloring.PHASE_HUE), ("output_path", "portrait.ppm"),
        ]),
        ("GridSpec", [("lattice", None), ("nx", 10), ("ny", 10), ("seed", 42)]),
        ("QuadratureSpec", [("panels_per_side", 32), ("nodes_per_panel", 8), ("seed", 1337)]),
    ],
)
def test_spec_signatures(name, parameters):
    # the benchmark calls these positionally and by keyword
    signature = inspect.signature(getattr(ellipse_phase, name))
    assert [
        (p.name, None if p.default is p.empty else p.default) for p in signature.parameters.values()
    ] == parameters


def test_report_keys_keep_their_order():
    # verify's JSON lists the fields in this order
    assert list(report_to_obj(REPORT)) == [
        "phase_residual_p1", "phase_residual_p2", "multiplier1", "multiplier2",
        "zero_count", "pole_count", "divisor_sum_mod_L", "xi0_recovered",
        "samples_used", "contour_offset", "winding_distance", "reliable",
    ]
