"""Meromorphic functions with doubly periodic phase.

Construct f(z) = exp(a*z) * g(z) * sigma(z)/sigma(z - xi0) from a balanced
zero/pole divisor, evaluate it in overflow-safe log form, verify the phase
periodicity numerically, and render domain-coloring portraits.
"""

from .divisor import (
    Divisor,
    PoleValue,
    SigmaQuotient,
    build_elliptic,
    eval_elliptic,
    make_divisor,
    validate_abel,
)
from .errors import (
    AbelViolation,
    AccuracyNotMet,
    ContourTooClose,
    DegenerateLattice,
    EllipsePhaseError,
    IllConditioned,
    IoFailure,
    PoleOrZeroHit,
    UnbalancedDivisor,
)
from .lattice import (
    Lattice,
    coordinates,
    make_lattice,
    reduce_basis,
    reduce_to_cell,
    torus_distance,
)
from .render import Coloring, RenderSpec, render_phase_portrait, render_pixels
from .synthesis import (
    PhaseFunctionSpec,
    eval_f,
    solve_exponent,
    synthesize,
    xi0_from_divisor,
    xi0_from_multipliers,
)
from .verify import (
    ContourCount,
    GridSpec,
    QuadratureSpec,
    VerificationReport,
    count_zeros_poles,
    phase_periodicity,
    report_passes,
    verify_spec,
)
from .weierstrass import (
    Backend,
    LogValue,
    RatioConstant,
    SigmaEvaluator,
    VMethod,
    eta,
    sigma,
    v_constant,
    wrap_angle,
)

__all__ = [
    "AbelViolation",
    "AccuracyNotMet",
    "Backend",
    "Coloring",
    "ContourCount",
    "ContourTooClose",
    "DegenerateLattice",
    "Divisor",
    "EllipsePhaseError",
    "GridSpec",
    "IllConditioned",
    "IoFailure",
    "Lattice",
    "LogValue",
    "PhaseFunctionSpec",
    "PoleOrZeroHit",
    "PoleValue",
    "QuadratureSpec",
    "RatioConstant",
    "RenderSpec",
    "SigmaEvaluator",
    "SigmaQuotient",
    "UnbalancedDivisor",
    "VMethod",
    "VerificationReport",
    "build_elliptic",
    "coordinates",
    "count_zeros_poles",
    "eta",
    "eval_elliptic",
    "eval_f",
    "make_divisor",
    "make_lattice",
    "phase_periodicity",
    "reduce_basis",
    "reduce_to_cell",
    "render_phase_portrait",
    "render_pixels",
    "report_passes",
    "sigma",
    "solve_exponent",
    "synthesize",
    "torus_distance",
    "v_constant",
    "validate_abel",
    "verify_spec",
    "wrap_angle",
    "xi0_from_divisor",
    "xi0_from_multipliers",
]

__version__ = "0.1.0"
