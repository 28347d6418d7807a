"""Zero/pole multisets in the fundamental cell and their sigma-quotient realization.

A balanced divisor whose zero and pole sums are lattice-congruent (Abel's
condition) is realized as g(z) = prod sigma(z - zero) / prod sigma(z - pole),
made genuinely periodic by shifting one zero by the lattice part of the sum
defect so the sums match exactly.  Both g and the synthesized f are a
`SigmaQuotient`, evaluated by the same `eval_elliptic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AbelViolation
from .lattice import SNAP_TOL, Lattice, nearest_lattice_point, reduce_to_cell, torus_distance
from .weierstrass import LogValue, SigmaEvaluator, sigma

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

    Built only by `build_elliptic` and `_cancel_congruent`, so no zero is
    congruent to a pole.
    """

    exponent: complex
    log_scale: complex
    zeros: tuple[complex, ...]
    poles: tuple[complex, ...]


def _merge_points(entries, lat: Lattice) -> list[tuple[complex, int]]:
    merged: list[tuple[complex, int]] = []
    for point, mult in entries:
        mult = float(mult)
        if not mult.is_integer() or mult < 1:
            raise ValueError("multiplicities must be positive integers")
        mult = int(mult)
        point = reduce_to_cell(complex(point), lat)
        for i, (q, m) in enumerate(merged):
            if torus_distance(point, q, lat) <= SNAP_TOL:
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
            if pm and torus_distance(zp, pp, lat) <= SNAP_TOL:
                common = min(zm, pm)
                zm -= common
                ps[k] = (pp, pm - common)
                zs[i] = (zp, zm)
                break
    zs = [(p, m) for p, m in zs if m > 0]
    ps = [(p, m) for p, m in ps if m > 0]
    return Divisor(tuple(zs), tuple(ps))


def validate_abel(d: Divisor, lat: Lattice) -> tuple[bool, complex]:
    """Check equal counts and lattice-congruent sums; defect = reduced sum difference."""
    diff = d.zero_sum() - d.pole_sum()
    defect = reduce_to_cell(diff, lat)
    balanced = d.zero_count() == d.pole_count()
    congruent = torus_distance(diff, 0.0, lat) <= ABEL_TOL
    return balanced and congruent, defect


def build_elliptic(d: Divisor, lat: Lattice) -> SigmaQuotient:
    """Realize a valid divisor as a periodic sigma quotient with unit scale.

    Multiplicities are expanded, then the lexicographically largest zero (by
    real, then imaginary part) absorbs the full sum defect, which Abel's
    condition makes a lattice vector.  The sums then agree exactly, so no
    stray exponential factor appears; AbelViolation if that zero hits a pole.
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
        for p in pole_pts:
            if torus_distance(zero_pts[idx], p, lat) <= SNAP_TOL:
                raise AbelViolation(f"the defect shift moves zero {zero_pts[idx]} onto pole {p}")
    return SigmaQuotient(0j, 0j, tuple(zero_pts), tuple(pole_pts))


def _cancel_congruent(
    numer,
    denom,
    lat: Lattice,
    eta1: complex,
    eta2: complex,
    exponent: complex = 0j,
) -> SigmaQuotient:
    """The quotient exp(exponent*z) * prod sigma(z - n) / prod sigma(z - d).

    Lattice-congruent numerator/denominator shifts are cancelled: for a pair
    w1 (numerator) and w2 = w1 + lam (denominator),
    sigma(z - w1) / sigma(z - w2) = eps(lam) * exp(eta(lam) (z - w2 + lam/2)),
    which folds into the exponent and the log scale.
    """
    numer = list(numer)
    denom = list(denom)
    extra_a = 0j
    extra_logc = 0j

    # exact matches first, then congruent-mod-L pairs
    for exact_only in (True, False):
        for w1 in list(numer):
            for w2 in denom:
                m, n, lam = nearest_lattice_point(w2 - w1, lat)
                if abs((w2 - w1) - lam) > SNAP_TOL or (exact_only and (m or n)):
                    continue
                if m or n:
                    eta_lam = m * eta1 + n * eta2
                    extra_a += eta_lam
                    extra_logc += eta_lam * (lam / 2 - w2)
                    if (m % 2) or (n % 2):
                        extra_logc += 1j * math.pi
                numer.remove(w1)
                denom.remove(w2)
                break
    return SigmaQuotient(exponent + extra_a, extra_logc, tuple(numer), tuple(denom))


def eval_elliptic(q: SigmaQuotient, ev: SigmaEvaluator, z: complex) -> LogValue | PoleValue:
    """A sigma quotient (g, or f's evaluation form) at z in log form.

    Returns LogValue.zero() at zeros and a PoleValue at poles.
    """
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
    return LogValue.from_log(total)
