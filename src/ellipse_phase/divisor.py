"""Zero/pole multisets in the fundamental cell and their sigma-quotient realization.

A balanced divisor whose zero and pole sums are lattice-congruent (Abel's
condition) is realized as g(z) = scale * prod sigma(z - zero) / prod sigma(z - pole),
made genuinely periodic by shifting one zero by the lattice part of the sum
defect so the sums match exactly.  Both g and the synthesized f are evaluated
through a `SigmaQuotient` whose congruent factors were cancelled once, when it
was built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import AbelViolation
from .lattice import Lattice, coordinates, reduce_to_cell, torus_distance
from .weierstrass import LogValue, SigmaEvaluator, sigma, wrap_angle

#: Points closer than this on the torus are treated as the same divisor point.
MERGE_TOL = 1e-12

#: Allowed distance of the zero/pole sum defect from the lattice.
ABEL_TOL = 1e-9


@dataclass(frozen=True)
class Divisor:
    """Multisets of zeros and poles (point, multiplicity) inside the cell.

    Construct through `make_divisor`, which reduces points into the half-open
    cell, merges coincident points, and cancels common zero/pole factors.
    """

    zeros: tuple[tuple[complex, int], ...]
    poles: tuple[tuple[complex, int], ...]

    def zero_count(self) -> int:
        return sum(m for _, m in self.zeros)

    def pole_count(self) -> int:
        return sum(m for _, m in self.poles)

    def zero_sum(self) -> complex:
        return sum((p * m for p, m in self.zeros), 0j)

    def pole_sum(self) -> complex:
        return sum((p * m for p, m in self.poles), 0j)


@dataclass(frozen=True)
class PoleValue:
    """Marker for a pole hit, carrying the multiplicity."""

    multiplicity: int


@dataclass(frozen=True)
class SigmaQuotient:
    """exp(exponent*z + log_scale) * prod sigma(z - zero) / prod sigma(z - pole).

    Built only by `_cancel_congruent`, so no zero is congruent to a pole.
    """

    exponent: complex
    log_scale: complex
    zeros: tuple[complex, ...]
    poles: tuple[complex, ...]


@dataclass(frozen=True)
class EllipticFunction:
    """scale * prod sigma(z - zero) / prod sigma(z - pole), multiplicities expanded.

    Lists have equal length and exactly equal sums (after the construction-time
    adjustment), which makes the quotient fully periodic.  `quotient` is the
    derived evaluation form, with the fast-series quasi-periods of the lattice.
    """

    lattice: Lattice
    zero_points: tuple[complex, ...]
    pole_points: tuple[complex, ...]
    scale: complex = 1.0 + 0j
    quotient: SigmaQuotient = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # scale 0 is the zero function: the empty quotient with log scale -inf
        ev = SigmaEvaluator(self.lattice)
        points = (self.zero_points, self.pole_points) if self.scale else ((), ())
        log_scale = cmath.log(complex(self.scale)) if self.scale else complex(-math.inf, 0.0)
        q = _cancel_congruent(*points, self.lattice, ev.eta1, ev.eta2, log_scale=log_scale)
        object.__setattr__(self, "quotient", q)


def _merge_points(entries, lat: Lattice) -> list[tuple[complex, int]]:
    merged: list[tuple[complex, int]] = []
    for point, mult in entries:
        mult = int(mult)
        if mult < 1:
            raise ValueError("multiplicities must be positive integers")
        point = reduce_to_cell(complex(point), lat).z0
        for i, (q, m) in enumerate(merged):
            if torus_distance(point, q, lat) <= MERGE_TOL:
                merged[i] = (q, m + mult)
                break
        else:
            merged.append((point, mult))
    return merged


def make_divisor(zeros, poles, lat: Lattice) -> Divisor:
    """Build a reduced divisor: points in the cell, common factors cancelled."""
    zs = _merge_points(zeros, lat)
    ps = _merge_points(poles, lat)
    for i, (zp, zm) in enumerate(zs):
        for k, (pp, pm) in enumerate(ps):
            if pm and torus_distance(zp, pp, lat) <= MERGE_TOL:
                common = min(zm, pm)
                zm -= common
                ps[k] = (pp, pm - common)
                zs[i] = (zp, zm)
                break
    zs = [(p, m) for p, m in zs if m > 0]
    ps = [(p, m) for p, m in ps if m > 0]
    return Divisor(tuple(zs), tuple(ps))


def validate_abel(d: Divisor, lat: Lattice, tol: float = ABEL_TOL) -> tuple[bool, complex]:
    """Check equal counts and lattice-congruent sums; defect = reduced sum difference."""
    diff = d.zero_sum() - d.pole_sum()
    defect = reduce_to_cell(diff, lat).z0
    balanced = d.zero_count() == d.pole_count()
    congruent = torus_distance(diff, 0.0, lat) <= tol
    return balanced and congruent, defect


def build_elliptic(d: Divisor, lat: Lattice, scale: complex = 1.0 + 0j) -> EllipticFunction:
    """Realize a valid divisor as a periodic sigma quotient.

    Multiplicities are expanded, then the lexicographically largest zero (by
    real, then imaginary part) absorbs the full sum defect, which Abel's
    condition makes a lattice vector.  Afterwards the zero and pole sums agree
    exactly and the quotient picks up no stray exponential factor.
    """
    ok, defect = validate_abel(d, lat)
    if not ok:
        raise AbelViolation(f"divisor violates Abel's condition (defect {defect})")
    zero_pts = [p for p, m in d.zeros for _ in range(m)]
    pole_pts = [p for p, m in d.poles for _ in range(m)]
    if zero_pts:
        delta = sum(zero_pts) - sum(pole_pts)
        idx = max(range(len(zero_pts)), key=lambda i: (zero_pts[i].real, zero_pts[i].imag))
        zero_pts[idx] -= delta
    return EllipticFunction(lat, tuple(zero_pts), tuple(pole_pts), complex(scale))


def _cancel_congruent(
    numer,
    denom,
    lat: Lattice,
    eta1: complex,
    eta2: complex,
    exponent: complex = 0j,
    log_scale: complex = 0j,
    tol: float = 1e-12,
) -> SigmaQuotient:
    """The quotient exp(exponent*z + log_scale) * prod sigma(z - n) / prod sigma(z - d).

    Lattice-congruent numerator/denominator shifts are cancelled: for a pair
    w1 (numerator) and w2 = w1 + lam (denominator),
    sigma(z - w1) / sigma(z - w2) = eps(lam) * exp(eta(lam) (z - w2 + lam/2)),
    which folds into the exponent and the log scale.
    """
    numer = list(numer)
    denom = list(denom)
    extra_a = 0j
    extra_logc = 0j

    def lattice_shift(w1: complex, w2: complex):
        s, t = coordinates(w2 - w1, lat)
        m, n = round(s), round(t)
        lam = m * lat.p1 + n * lat.p2
        if abs((w2 - w1) - lam) <= tol:
            return m, n, lam
        return None

    # exact matches first, then congruent-mod-L pairs
    for exact_only in (True, False):
        i = 0
        while i < len(numer):
            hit = False
            for k in range(len(denom)):
                shift = lattice_shift(numer[i], denom[k])
                if shift is None:
                    continue
                m, n, lam = shift
                if exact_only and (m or n):
                    continue
                if m or n:
                    eta_lam = m * eta1 + n * eta2
                    extra_a += eta_lam
                    extra_logc += eta_lam * (lam / 2 - denom[k])
                    if (m % 2) or (n % 2):
                        extra_logc += 1j * math.pi
                del numer[i]
                del denom[k]
                hit = True
                break
            if not hit:
                i += 1
    return SigmaQuotient(exponent + extra_a, extra_logc + log_scale, tuple(numer), tuple(denom))


def _eval_quotient(q: SigmaQuotient, ev: SigmaEvaluator, z: complex) -> LogValue | PoleValue:
    """q(z) in log form; LogValue.zero() at zeros, PoleValue at poles."""
    z = complex(z)
    zero_hits = 0
    pole_hits = 0
    total = q.exponent * z + q.log_scale
    for w in q.zeros:
        lv = sigma(ev, z - w)
        if lv.is_zero():
            zero_hits += 1
        else:
            total += lv.log()
    for w in q.poles:
        lv = sigma(ev, z - w)
        if lv.is_zero():
            pole_hits += 1
        else:
            total -= lv.log()
    if zero_hits and pole_hits:
        raise ArithmeticError("congruent zero/pole factors were not cancelled")
    if pole_hits:
        return PoleValue(pole_hits)
    if zero_hits:
        return LogValue.zero()
    return LogValue(total.real, wrap_angle(total.imag))


def eval_elliptic(g: EllipticFunction, ev: SigmaEvaluator, z: complex) -> LogValue | PoleValue:
    """g(z) in log form; LogValue.zero() at zeros, PoleValue at poles."""
    return _eval_quotient(g.quotient, ev, z)
