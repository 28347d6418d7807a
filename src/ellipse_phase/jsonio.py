"""JSON wire formats shared by the CLI and tests.

Numbers are serialized with 17 significant digits so every double round-trips
exactly.  Complex scalars travel as [re, im]; lattices as
{"p1": [re, im], "p2": [re, im]}; divisors as
{"zeros": [[re, im, mult], ...], "poles": [[re, im, mult], ...]}.  A spec is
reloaded by re-synthesizing it from its lattice, divisor and m; its derived
fields must match the re-derived ones exactly.
"""

from __future__ import annotations

import cmath
import json
import math

from .lattice import Lattice, make_lattice

# type checkers honour this as typing.TYPE_CHECKING, whose import costs ~4 ms of start-up
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .divisor import Divisor, SigmaQuotient
    from .synthesis import PhaseFunctionSpec
    from .verify import VerificationReport


def _format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats, insertion-ordered keys."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def complex_to_obj(z: complex) -> list[float]:
    return [z.real, z.imag]


def number_from_obj(x) -> float:
    """A JSON number (int or float, not bool) as a float; anything else is a ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a JSON number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError("integer too large for a float") from None


def _expect(obj, kind: type, what: str):
    """obj if it is a `kind`; else a ValueError naming what was expected."""
    if not isinstance(obj, kind):
        raise ValueError(f"expected {what}, got {obj!r}")
    return obj


def _field(obj: dict, key: str, what: str):
    """obj[key]; else a ValueError naming the missing field of `what`."""
    if key not in obj:
        raise ValueError(f"{what} field {key!r} is missing")
    return obj[key]


def complex_from_obj(obj) -> complex:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ValueError(f"expected a complex number as [re, im], got {obj!r}")
    return complex(number_from_obj(obj[0]), number_from_obj(obj[1]))


def lattice_to_obj(lat: Lattice) -> dict:
    return {"p1": complex_to_obj(lat.p1), "p2": complex_to_obj(lat.p2)}


def lattice_from_obj(obj) -> Lattice:
    obj = _expect(obj, dict, "a lattice object")
    p1, p2 = (complex_from_obj(_field(obj, key, "lattice")) for key in ("p1", "p2"))
    return make_lattice(p1, p2)


def divisor_to_obj(d: Divisor) -> dict:
    return {
        "zeros": [[p.real, p.imag, m] for p, m in d.zeros],
        "poles": [[p.real, p.imag, m] for p, m in d.poles],
    }


def divisor_from_obj(obj, lat: Lattice) -> Divisor:
    from .divisor import make_divisor

    obj = _expect(obj, dict, "a divisor object with zeros and poles")
    for key in obj:
        if key not in ("zeros", "poles"):
            raise ValueError(f"divisor key {key!r} is neither 'zeros' nor 'poles'")
    zeros, poles = [], []
    for key, entries in (("zeros", zeros), ("poles", poles)):
        for e in _expect(obj.get(key, []), list, f"divisor field {key!r} as a list"):
            if not (isinstance(e, list) and len(e) in (2, 3)):
                raise ValueError(f"divisor entries must be [re, im] or [re, im, mult], got {e!r}")
            entries.append((complex_from_obj(e[:2]), number_from_obj(e[2]) if len(e) > 2 else 1))
    return make_divisor(zeros, poles, lat)


def elliptic_to_obj(g: SigmaQuotient) -> dict:
    return {
        "zeros": [complex_to_obj(p) for p in g.zeros],
        "poles": [complex_to_obj(p) for p in g.poles],
        "scale": complex_to_obj(cmath.exp(g.log_scale)),
    }


def spec_to_obj(spec: PhaseFunctionSpec) -> dict:
    return {
        "lattice": lattice_to_obj(spec.lattice),
        "xi0": complex_to_obj(spec.xi0),
        "a": complex_to_obj(spec.a),
        "alpha": [spec.alpha1, spec.alpha2],
        "m": [spec.m1, spec.m2],
        "g": elliptic_to_obj(spec.g),
        "divisor": divisor_to_obj(spec.divisor),
    }


def spec_from_obj(obj) -> PhaseFunctionSpec:
    """Re-synthesize a spec from its lattice, divisor and m.

    The stored derived fields must equal the re-derived ones after the same
    17-digit round trip; the first that differs raises ValueError, as does a
    non-integral m.
    """
    from .synthesis import synthesize

    obj = _expect(obj, dict, "a spec object")
    lat = lattice_from_obj(_field(obj, "lattice", "spec"))
    d = divisor_from_obj(_field(obj, "divisor", "spec"), lat)
    m = _field(obj, "m", "spec")
    if not (isinstance(m, list) and len(m) == 2):
        raise ValueError(f"spec field 'm' must be [m1, m2], got {m!r}")
    m1, m2 = (number_from_obj(v) for v in m)
    if not (m1.is_integer() and m2.is_integer()):
        raise ValueError(f"spec field 'm' must hold integers, got {m}")
    spec = synthesize(d, int(m1), int(m2), lat)
    derived = json.loads(dumps(spec_to_obj(spec)))
    for key in ("xi0", "a", "alpha", "g"):
        if _field(obj, key, "spec") != derived[key]:
            raise ValueError(
                f"spec field {key!r} is {obj[key]} but lattice, divisor and m give {derived[key]}"
            )
    return spec


def report_to_obj(report: VerificationReport) -> dict:
    """The report's fields, in their `__slots__` order, with complex values as [re, im]."""
    obj = {name: getattr(report, name) for name in report.__slots__}
    return {k: complex_to_obj(v) if isinstance(v, complex) else v for k, v in obj.items()}
