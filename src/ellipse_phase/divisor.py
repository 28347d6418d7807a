"""Zero/pole multisets in the fundamental cell and their sigma-quotient realization.

A balanced divisor whose zero and pole sums are lattice-congruent (Abel's
condition) is realized as g(z) = prod sigma(z - zero) / prod sigma(z - pole),
made genuinely periodic by shifting one zero by the lattice part of the sum
defect so the sums match exactly.  Both g and the synthesized f are a
`SigmaQuotient`, evaluated by the same `eval_elliptic`, which takes all of its
sigma factors in one `weierstrass._log_quotient` pass; `log_derivative` takes
its exact q'/q, a sum of zeta values, in one `weierstrass._dlog_quotient` pass.
"""

from __future__ import annotations

import cmath

from .errors import AbelViolation, PoleOrZeroHit, Value
from .lattice import SNAP_TOL, Lattice, reduce_to_cell, torus_distance
from .weierstrass import LogValue, SigmaEvaluator, _dlog_quotient, _log_quotient

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


class PoleValue(Value):
    """Marker for a pole hit, carrying the multiplicity."""

    __slots__ = ("multiplicity",)


class SigmaQuotient(Value):
    """exp(exponent*z + log_scale) * prod sigma(z - zero) / prod sigma(z - pole).

    Built by `build_elliptic` (g) and `synthesis._fold_ratio` (f's evaluation
    form), so no zero is congruent to a pole.
    """

    __slots__ = ("exponent", "log_scale", "zeros", "poles")


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


def eval_elliptic(q: SigmaQuotient, ev: SigmaEvaluator, z: complex) -> LogValue | PoleValue:
    """A sigma quotient (g, or f's evaluation form) at z in log form.

    Returns LogValue.zero() at zeros and a PoleValue at poles; a non-finite z
    is a ValueError, also for a quotient without sigma factors.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"point {z} is not finite")
    log_sigma, zero_hits, pole_hits = _log_quotient(ev, z, q.zeros, q.poles)
    if zero_hits and pole_hits:
        raise ArithmeticError("congruent zero/pole factors were not cancelled")
    if pole_hits:
        return PoleValue(pole_hits)
    if zero_hits:
        return LogValue.zero()
    return LogValue.from_log(q.exponent * z + q.log_scale + log_sigma)


def log_derivative(q: SigmaQuotient, ev: SigmaEvaluator, z: complex) -> complex:
    """q'/q at z: exponent + sum zeta(z - zero) - sum zeta(z - pole), on a FastSeries ev.

    PoleOrZeroHit where z lies on a zero or pole of q (mod L); a non-finite z is a
    ValueError, also for a quotient without sigma factors.
    """
    z = complex(z)
    total = _dlog_quotient(ev, z, q.exponent, q.zeros, q.poles)
    if total is None:
        raise PoleOrZeroHit(f"{z} lies on a zero or pole")
    return total
