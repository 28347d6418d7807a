"""Synthesis of meromorphic functions whose phase f/|f| is doubly periodic.

Given a balanced divisor (zeros Xi, poles Gamma) and winding integers m1, m2,
the construction is

    f(z) = exp(a*z) * g(z) * sigma(z) / sigma(z - xi0)

with xi0 the cell representative of sum(Gamma) - sum(Xi), g the elliptic
function with zeros {xi0} + Xi and poles {0} + Gamma, and the exponent a the
unique solution of Im(a*p_j) = Im(v_j) + 2*pi*m_j for j in {1, 2}.  Then
f(z + p_j) = exp(alpha_j) f(z) with the real number alpha_j = Re(a*p_j - v_j),
so |f| picks up a positive constant and the phase is fully periodic.

A divisor is a pair of zero and pole multisets in the fundamental cell.  One
whose zero and pole sums are lattice-congruent (Abel's condition) is realized
as g(z) = prod sigma(z - zero) / prod sigma(z - pole), made genuinely periodic
by shifting one zero by the lattice part of the sum defect so the sums match
exactly.  Both g and f are a `weierstrass.SigmaQuotient`, evaluated by the
same `eval_elliptic`.
"""

from __future__ import annotations

import cmath
import math

from .errors import AbelViolation, AccuracyNotMet, IllConditioned, UnbalancedDivisor, Value
from .lattice import SNAP_TOL, Lattice, nearest_lattice_point, reduce_to_cell, torus_distance
from .weierstrass import TAU, LogValue, PoleValue, SigmaEvaluator, SigmaQuotient, eval_elliptic

#: Allowed distance of the zero/pole sum defect from the lattice.
ABEL_TOL = 1e-9

#: Most zeros or poles, counted with multiplicity, that make_divisor accepts;
#: build_elliptic expands each unit of multiplicity into its own sigma factor.
MAX_DEGREE = 10_000


class Divisor(Value):
    """Multisets of zeros and poles (point, multiplicity) inside the cell.

    Construct through `make_divisor`, which reduces points into the half-open
    cell, merges points that coincide mod L, and cancels common zero/pole factors.
    """

    __slots__ = ("zeros", "poles")

    def zero_count(self) -> int:
        return sum(m for _, m in self.zeros)

    def pole_count(self) -> int:
        return sum(m for _, m in self.poles)

    def zero_sum(self) -> complex:
        return sum((p * m for p, m in self.zeros), 0j)

    def pole_sum(self) -> complex:
        return sum((p * m for p, m in self.poles), 0j)


def _extend(d: Divisor, zeros, poles, lat: Lattice) -> Divisor:
    """d plus zeros and poles, given as (cell point, multiplicity), each added once.

    A point joins the first entry of its kind within SNAP_TOL mod L, or is
    appended; that entry then cancels against every entry of the other kind
    within SNAP_TOL.  Entries at multiplicity 0 keep their place until the
    Divisor is built, so later points still merge into them.
    """
    zs, ps = list(d.zeros), list(d.poles)
    for own, other, points in ((zs, ps, zeros), (ps, zs, poles)):
        for point, mult in points:
            for i, (q, m) in enumerate(own):
                if torus_distance(point, q, lat) <= SNAP_TOL:
                    point, mult = q, m + mult
                    break
            else:
                i = len(own)
                own.append((point, mult))
            for k, (q, m) in enumerate(other):
                if mult and m and torus_distance(point, q, lat) <= SNAP_TOL:
                    common = min(mult, m)
                    mult -= common
                    other[k] = (q, m - common)
            own[i] = (point, mult)
    return Divisor(tuple(e for e in zs if e[1]), tuple(e for e in ps if e[1]))


def make_divisor(zeros, poles, lat: Lattice) -> Divisor:
    """Build a reduced divisor: points in the cell, merged and cancelled mod L.

    No two zeros (or poles) and no zero and pole of the result lie within
    SNAP_TOL mod L, so `make_divisor(d.zeros, d.poles, lat) == d`.  More than
    MAX_DEGREE zeros or poles, counted with multiplicity, is a ValueError.
    """
    parts: tuple[list, list] = ([], [])
    for points, part in zip((zeros, poles), parts):
        for point, mult in points:
            mult = float(mult)
            if not mult.is_integer() or mult < 1:
                raise ValueError("multiplicities must be positive integers")
            part.append((reduce_to_cell(complex(point), lat), int(mult)))
        if sum(m for _, m in part) > MAX_DEGREE:
            raise ValueError(f"more than MAX_DEGREE = {MAX_DEGREE} zeros or poles")
    return _extend(Divisor((), ()), *parts, lat)


def validate_abel(d: Divisor, lat: Lattice) -> tuple[bool, complex]:
    """Check equal counts and lattice-congruent sums; defect = reduced sum difference."""
    diff = d.zero_sum() - d.pole_sum()
    defect = reduce_to_cell(diff, lat)
    balanced = d.zero_count() == d.pole_count()
    congruent = torus_distance(diff, 0.0, lat) <= ABEL_TOL
    return balanced and congruent, defect


def build_elliptic(d: Divisor, lat: Lattice) -> SigmaQuotient:
    """Realize a divisor that passes `validate_abel` as a periodic sigma quotient with unit scale."""
    ok, defect = validate_abel(d, lat)
    if not ok:
        raise AbelViolation(f"divisor violates Abel's condition (defect {defect})")
    return _realize(d, lat)


def _realize(d: Divisor, lat: Lattice) -> SigmaQuotient:
    """`build_elliptic` without the Abel check, which `synthesize`'s g meets by construction.

    Multiplicities are expanded, then the lexicographically largest zero (by
    real, then imaginary part) absorbs the full sum defect: a lattice vector,
    up to a rounding residue that grows with the lattice scale.  The sums then
    agree exactly, so no stray exponential factor appears; AbelViolation if
    that zero hits a pole.
    """
    zero_pts = [p for p, m in d.zeros for _ in range(m)]
    pole_pts = [p for p, m in d.poles for _ in range(m)]
    if zero_pts:
        delta = sum(zero_pts) - sum(pole_pts)
        idx = max(range(len(zero_pts)), key=lambda i: (zero_pts[i].real, zero_pts[i].imag))
        zero_pts[idx] -= delta
        for p in pole_pts:
            if torus_distance(zero_pts[idx], p, lat) <= SNAP_TOL:
                raise AbelViolation(f"the defect shift moves zero {zero_pts[idx]} onto pole {p}")
    return SigmaQuotient(0j, 0j, tuple(zero_pts), tuple(pole_pts))


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

    `synthesize` snaps an xi0 that is 0 mod L to 0, where the ratio is 1.  Else
    no zero of g is congruent to a pole of g, nor the ratio's zero 0 to its
    pole xi0, so sigma(z) folds into the first pole of g that is 0 mod L, then
    sigma(z - xi0) into the first zero of g that is xi0 mod L, an exact match
    before a congruent one; a ratio factor without a match stays in front.  A
    zero w1 and a pole w2 = w1 + lam fold into the exponent and scale by
    sigma(z - w1) / sigma(z - w2) = eps(lam) * exp(eta(lam) (z - w2 + lam/2)).
    """
    if xi0 == 0:
        return SigmaQuotient(a + 0j, 0j, g.zeros, g.poles)
    zeros, poles = [0j, *g.zeros], [xi0, *g.poles]
    extra_a = extra_logc = 0j
    for ratio_zero in (True, False):  # sigma(z) is zeros[0], sigma(z - xi0) poles[0]
        pairs = [(0j, w) for w in poles] if ratio_zero else [(w, xi0) for w in zeros]
        matches = []
        for i, (w1, w2) in enumerate(pairs):
            m, n, lam = nearest_lattice_point(w2 - w1, ev.lattice)
            if abs((w2 - w1) - lam) <= SNAP_TOL:
                matches.append((bool(m or n), i, m, n, lam, w2))
        if matches:
            congruent, i, m, n, lam, w2 = min(matches)  # exact first, then in order
            del zeros[0 if ratio_zero else i], poles[i if ratio_zero else 0]
            if congruent:
                eta_lam = m * ev.eta1 + n * ev.eta2
                extra_a += eta_lam
                extra_logc += eta_lam * (lam / 2 - w2)
                if (m % 2) or (n % 2):
                    extra_logc += 1j * math.pi
    return SigmaQuotient(a + extra_a, extra_logc, tuple(zeros), tuple(poles))


def synthesize(d: Divisor, m1: int, m2: int, lat: Lattice) -> PhaseFunctionSpec:
    """Build the full doubly-periodic-phase function for a balanced divisor.

    d must come from `make_divisor` on lat.  xi0, a, alpha and g are derived
    from the lattice, the divisor and (m1, m2); a non-integral m1 or m2 would
    leave the phase aperiodic and is a ValueError.
    """
    if not all(isinstance(m, int) or float(m).is_integer() for m in (m1, m2)):
        raise ValueError(f"m1 and m2 must be integers, got {m1!r} and {m2!r}")
    m1, m2 = int(m1), int(m2)
    ev = SigmaEvaluator(lat)
    xi0 = xi0_from_divisor(d, lat)
    if torus_distance(xi0, 0.0, lat) <= SNAP_TOL:
        xi0 = 0j
    v1 = -ev.eta1 * xi0
    v2 = -ev.eta2 * xi0
    a = solve_exponent(lat, v1, v2, m1, m2)
    alpha1 = (a * lat.p1 - v1).real
    alpha2 = (a * lat.p2 - v2).real
    if not (cmath.isfinite(a) and math.isfinite(alpha1) and math.isfinite(alpha2)):
        raise AccuracyNotMet(f"a = {a} and alpha = ({alpha1}, {alpha2}) leave the double range")
    g = _realize(_extend(d, [(xi0, 1)], [(0j, 1)], lat), lat)
    quotient = _fold_ratio(g, xi0, a, ev)
    return PhaseFunctionSpec(lat, xi0, a, m1, m2, alpha1, alpha2, g, d, quotient, ev)


def eval_f(spec: PhaseFunctionSpec, ev: SigmaEvaluator, z: complex) -> LogValue | PoleValue:
    """f(z) in log form, composed as exponent + sigma factor logs.

    Pass `spec.ev`, the evaluator the spec was built with, as ev.  Zeros of f
    (the divisor's zeros + L) return LogValue.zero(); poles return a PoleValue
    with the local multiplicity.
    """
    return eval_elliptic(spec.quotient, ev, z)
