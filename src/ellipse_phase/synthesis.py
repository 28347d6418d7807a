"""Synthesis of meromorphic functions whose phase f/|f| is doubly periodic.

Given a balanced divisor (zeros Xi, poles Gamma) and winding integers m1, m2,
the construction is

    f(z) = exp(a*z) * g(z) * sigma(z) / sigma(z - xi0)

with xi0 the cell representative of sum(Gamma) - sum(Xi), g the elliptic
function with zeros {xi0} + Xi and poles {0} + Gamma, and the exponent a the
unique solution of Im(a*p_j) = Im(v_j) + 2*pi*m_j for j in {1, 2}.  Then
f(z + p_j) = exp(alpha_j) f(z) with the real number alpha_j = Re(a*p_j - v_j),
so |f| picks up a positive constant and the phase is fully periodic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .divisor import (
    Divisor,
    EllipticFunction,
    PoleValue,
    SigmaQuotient,
    _cancel_congruent,
    _eval_quotient,
    build_elliptic,
    make_divisor,
)
from .errors import IllConditioned, UnbalancedDivisor
from .lattice import Lattice, reduce_to_cell, torus_distance
from .weierstrass import SNAP_TOL, TAU, LogValue, SigmaEvaluator


@dataclass(frozen=True)
class PhaseFunctionSpec:
    """Complete description of a synthesized f, plus its evaluation form.

    `quotient` is derived: the sigma-ratio factors congruent to g's zero at
    xi0 and pole at 0 are cancelled symbolically, folding their
    quasi-periodicity factors into the exponent and scale, so evaluation is
    total away from the intended divisor.
    """

    lattice: Lattice
    xi0: complex
    a: complex
    m1: int
    m2: int
    alpha1: float
    alpha2: float
    g: EllipticFunction
    divisor: Divisor
    quotient: SigmaQuotient

    # read by the sigma replay of bench/layers.py, which counts the factors
    @property
    def eval_zeros(self) -> tuple[complex, ...]:
        return self.quotient.zeros

    @property
    def eval_poles(self) -> tuple[complex, ...]:
        return self.quotient.poles


def xi0_from_multipliers(alpha1: float, alpha2: float, lat: Lattice) -> complex:
    """Cell representative of (alpha1*p2 - alpha2*p1) / (2*pi*i)."""
    w = (alpha1 * lat.p2 - alpha2 * lat.p1) / (TAU * 1j)
    return reduce_to_cell(w, lat).z0


def xi0_from_divisor(d: Divisor, lat: Lattice) -> complex:
    """Cell representative of sum(poles) - sum(zeros) for a balanced divisor."""
    if d.zero_count() != d.pole_count():
        raise UnbalancedDivisor(
            f"{d.zero_count()} zeros vs {d.pole_count()} poles; "
            "the phase cannot be doubly periodic"
        )
    return reduce_to_cell(d.pole_sum() - d.zero_sum(), lat).z0


def solve_exponent(lat: Lattice, v1: complex, v2: complex, m1: int, m2: int) -> complex:
    """The unique a with Im(a*p_j) = Im(v_j) + 2*pi*m_j for j in {1, 2}.

    Writing a = x + i*y this is the real 2x2 system
    x*Im(p_j) + y*Re(p_j) = t_j; its determinant is -Im(conj(p1)*p2), nonzero
    for every valid lattice.
    """
    t1 = v1.imag + TAU * m1
    t2 = v2.imag + TAU * m2
    p1, p2 = lat.p1, lat.p2
    det = p1.imag * p2.real - p2.imag * p1.real
    if abs(det) < 1e-10 * abs(p1) * abs(p2):
        raise IllConditioned(f"period determinant {det:.3e} too small")
    x = (t1 * p2.real - t2 * p1.real) / det
    y = (t2 * p1.imag - t1 * p2.imag) / det
    return complex(x, y)


def _finalize(
    lat: Lattice,
    xi0: complex,
    a: complex,
    m1: int,
    m2: int,
    alpha1: float,
    alpha2: float,
    g: EllipticFunction,
    d: Divisor,
    ev: SigmaEvaluator,
) -> PhaseFunctionSpec:
    """Attach the cancelled evaluation form: g's quotient times sigma(z)/sigma(z - xi0)."""
    if g.scale == 0:
        raise ValueError("g must not vanish identically")
    gq = g.quotient
    quotient = _cancel_congruent(
        (0j,) + gq.zeros, (xi0,) + gq.poles, lat, ev.eta1, ev.eta2, a + gq.exponent, gq.log_scale
    )
    return PhaseFunctionSpec(
        lattice=lat,
        xi0=xi0,
        a=a,
        m1=m1,
        m2=m2,
        alpha1=alpha1,
        alpha2=alpha2,
        g=g,
        divisor=d,
        quotient=quotient,
    )


def synthesize(d: Divisor, m1: int, m2: int, lat: Lattice) -> PhaseFunctionSpec:
    """Build the full doubly-periodic-phase function for a balanced divisor."""
    ev = SigmaEvaluator(lat)
    xi0 = xi0_from_divisor(d, lat)
    if torus_distance(xi0, 0.0, lat) <= SNAP_TOL:
        xi0 = 0j
    v1 = -ev.eta1 * xi0
    v2 = -ev.eta2 * xi0
    a = solve_exponent(lat, v1, v2, m1, m2)
    alpha1 = (a * lat.p1 - v1).real
    alpha2 = (a * lat.p2 - v2).real
    g_divisor = make_divisor(
        list(d.zeros) + [(xi0, 1)],
        list(d.poles) + [(0j, 1)],
        lat,
    )
    g = build_elliptic(g_divisor, lat)
    return _finalize(lat, xi0, a, int(m1), int(m2), alpha1, alpha2, g, d, ev)


def eval_f(spec: PhaseFunctionSpec, ev: SigmaEvaluator, z: complex) -> LogValue | PoleValue:
    """f(z) in log form, composed as exponent + sigma factor logs.

    Zeros of f (the divisor's zeros + L) return LogValue.zero(); poles return
    a PoleValue with the local multiplicity.
    """
    return _eval_quotient(spec.quotient, ev, z)
