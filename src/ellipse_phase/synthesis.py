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

import math

from .divisor import Divisor, PoleValue, SigmaQuotient, _extend, build_elliptic, eval_elliptic
from .errors import IllConditioned, UnbalancedDivisor, Value
from .lattice import SNAP_TOL, Lattice, nearest_lattice_point, reduce_to_cell, torus_distance
from .weierstrass import TAU, LogValue, SigmaEvaluator


class PhaseFunctionSpec(Value):
    """Complete description of a synthesized f, plus its evaluation form.

    Built only by `synthesize`.  `quotient` is f's evaluation form from
    `_fold_ratio`, so evaluation is total away from the intended divisor;
    `ev` is the fast evaluator whose eta1, eta2 that fold used, and is left
    out of equality, hash and repr.
    """

    __slots__ = ("lattice", "xi0", "a", "m1", "m2", "alpha1", "alpha2", "g", "divisor", "quotient", "ev")
    _compared = __slots__[:-1]

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
    return reduce_to_cell(w, lat)


def xi0_from_divisor(d: Divisor, lat: Lattice) -> complex:
    """Cell representative of sum(poles) - sum(zeros) for a balanced divisor."""
    if d.zero_count() != d.pole_count():
        raise UnbalancedDivisor(
            f"{d.zero_count()} zeros vs {d.pole_count()} poles; "
            "the phase cannot be doubly periodic"
        )
    return reduce_to_cell(d.pole_sum() - d.zero_sum(), lat)


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


def _fold_ratio(g: SigmaQuotient, xi0: complex, a: complex, ev: SigmaEvaluator) -> SigmaQuotient:
    """f's evaluation form exp(a*z) * g(z) * sigma(z) / sigma(z - xi0) as one quotient.

    No zero of g is congruent to a pole of g, so only the ratio factors can
    fold: sigma(z) into the first of [xi0, *g.poles] it meets, then
    sigma(z - xi0) into the first zero left, exact matches before congruent
    ones.  A zero w1 and a pole w2 = w1 + lam fold into the exponent and scale
    by sigma(z - w1) / sigma(z - w2) = eps(lam) * exp(eta(lam) (z - w2 + lam/2)).
    """
    zeros, poles = [0j, *g.zeros], [xi0, *g.poles]
    extra_a = extra_logc = 0j
    zero_open = pole_open = True  # sigma(z), sigma(z - xi0) not yet folded
    for exact_only in (True, False):
        n_poles = len(poles)
        for i, (w1, w2) in enumerate([(0j, w) for w in poles] + [(w, xi0) for w in zeros]):
            if not (zero_open if i < n_poles else pole_open):
                continue
            m, n, lam = nearest_lattice_point(w2 - w1, ev.lattice)
            if abs((w2 - w1) - lam) > SNAP_TOL or (exact_only and (m or n)):
                continue
            if m or n:
                eta_lam = m * ev.eta1 + n * ev.eta2
                extra_a += eta_lam
                extra_logc += eta_lam * (lam / 2 - w2)
                if (m % 2) or (n % 2):
                    extra_logc += 1j * math.pi
            zeros.remove(w1)
            poles.remove(w2)
            # pair 0 is sigma(z) against sigma(z - xi0) while the latter is open
            zero_open, pole_open = zero_open and i >= n_poles, pole_open and 0 < i < n_poles
    return SigmaQuotient(a + extra_a, extra_logc, tuple(zeros), tuple(poles))


def synthesize(d: Divisor, m1: int, m2: int, lat: Lattice) -> PhaseFunctionSpec:
    """Build the full doubly-periodic-phase function for a balanced divisor.

    d must come from `make_divisor` on lat.  xi0, a, alpha and g are derived
    from the lattice, the divisor and (m1, m2).
    """
    ev = SigmaEvaluator(lat)
    xi0 = xi0_from_divisor(d, lat)
    if torus_distance(xi0, 0.0, lat) <= SNAP_TOL:
        xi0 = 0j
    v1 = -ev.eta1 * xi0
    v2 = -ev.eta2 * xi0
    a = solve_exponent(lat, v1, v2, m1, m2)
    alpha1 = (a * lat.p1 - v1).real
    alpha2 = (a * lat.p2 - v2).real
    g = build_elliptic(_extend(d, [(xi0, 1)], [(0j, 1)], lat), lat)
    quotient = _fold_ratio(g, xi0, a, ev)
    return PhaseFunctionSpec(lat, xi0, a, int(m1), int(m2), alpha1, alpha2, g, d, quotient, ev)


def eval_f(spec: PhaseFunctionSpec, ev: SigmaEvaluator, z: complex) -> LogValue | PoleValue:
    """f(z) in log form, composed as exponent + sigma factor logs.

    Pass `spec.ev`, the evaluator the spec was built with, as ev.  Zeros of f
    (the divisor's zeros + L) return LogValue.zero(); poles return a PoleValue
    with the local multiplicity.
    """
    return eval_elliptic(spec.quotient, ev, z)
