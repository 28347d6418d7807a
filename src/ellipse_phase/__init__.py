"""Meromorphic functions with doubly periodic phase.

Construct f(z) = exp(a*z) * g(z) * sigma(z)/sigma(z - xi0) from a balanced
zero/pole divisor, evaluate it in overflow-safe log form, verify the phase
periodicity numerically, and render domain-coloring portraits.

The public names load lazily (PEP 562): the first use of a name imports its
defining module, so a CLI command loads only the modules it runs.
"""

import importlib

#: Each public name and the submodule that defines it.
_SOURCES = {
    "AbelViolation": "errors",
    "AccuracyNotMet": "errors",
    "ContourTooClose": "errors",
    "DegenerateLattice": "errors",
    "EllipsePhaseError": "errors",
    "IllConditioned": "errors",
    "IoFailure": "errors",
    "PoleOrZeroHit": "errors",
    "UnbalancedDivisor": "errors",
    "Lattice": "lattice",
    "coordinates": "lattice",
    "make_lattice": "lattice",
    "reduce_basis": "lattice",
    "reduce_to_cell": "lattice",
    "torus_distance": "lattice",
    "Coloring": "render",
    "RenderSpec": "render",
    "render_phase_portrait": "render",
    "render_pixels": "render",
    "Divisor": "synthesis",
    "PhaseFunctionSpec": "synthesis",
    "build_elliptic": "synthesis",
    "eval_f": "synthesis",
    "make_divisor": "synthesis",
    "solve_exponent": "synthesis",
    "synthesize": "synthesis",
    "validate_abel": "synthesis",
    "xi0_from_divisor": "synthesis",
    "xi0_from_multipliers": "synthesis",
    "ContourCount": "verify",
    "GridSpec": "verify",
    "QuadratureSpec": "verify",
    "VerificationReport": "verify",
    "count_zeros_poles": "verify",
    "phase_periodicity": "verify",
    "report_passes": "verify",
    "verify_spec": "verify",
    "Backend": "weierstrass",
    "LogValue": "weierstrass",
    "PoleValue": "weierstrass",
    "RatioConstant": "weierstrass",
    "SigmaEvaluator": "weierstrass",
    "SigmaQuotient": "weierstrass",
    "VMethod": "weierstrass",
    "eta": "weierstrass",
    "eval_elliptic": "weierstrass",
    "sigma": "weierstrass",
    "v_constant": "weierstrass",
    "wrap_angle": "weierstrass",
}

__all__ = sorted(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
