"""Weierstrass sigma function with two backends.

DirectProduct evaluates the canonical genus-2 product

    sigma(z) = z * prod_{lam in L \\ {0}} (1 - z/lam) * exp(z/lam + z^2/(2*lam^2))

truncated by sup-norm shells; it converges slowly (tail O(|z|^3 / N) in log sigma),
builds its points for each sum and serves as the low-accuracy oracle.  The shell
set is symmetric under lam -> -lam, so each of its lattice sums runs over one
point of every pair {lam, -lam} with the mirror term folded into the summand:
log sigma sums log(1 - z^2/lam^2) + z^2/lam^2, the same truncation set as the
product above.  It takes one complex log per product of 64 factors 1 - z^2/lam^2
(the phase is wrapped at the end, so the sum of their logs is exact mod 2*pi*i)
and sums z^2/lam^2 apart; a block of points with a product outside the normal
double range, which only |z| far outside the cell reaches, takes one log per
factor.  The points come from the cached float64 shell coordinates of
`lattice._shell_arrays`.  FastSeries is the production path: after
Gauss-reducing the basis the nome q = exp(i*pi*omega') satisfies
|q| <= exp(-pi*sqrt(3)/2), and sigma is assembled
from the exponentially convergent odd theta series

    theta1(u | tau) = 2 * sum_n (-1)^n q^{(n+1/2)^2} sin((2n+1) u)

via  sigma(z) = (P1/pi) * exp(eta1' z^2 / (2 P1)) * theta1(pi z / P1) / theta1'(0).

The range reduction works in v = pi*z/P1: z = z0 + m*P1 + n*P2 with the
rounding of `nearest_lattice_point`, v0 = pi*z0/P1 (z0 is formed in the
z-plane, so it is exact next to a period), and the theta1 quasi-period
theta1(v0 + pi*m + pi*n*omega') = (-1)^(m+n) q^(-n^2) exp(-2i*n*v0) theta1(v0)
gives

    log sigma(z) = log(P1/pi) - log theta1'(0) + eta1' z^2/(2 P1) + log theta1(v0)
                   + i*pi*(m+n) - i*pi*n^2*omega' - 2i*n*v0,
    zeta(z)      = eta1' z/P1 + (pi/P1) * (theta1'(v0)/theta1(v0) - 2i*n)

(DLMF 20.2, 23.6).  The series is summed as theta1(v) = 2 sin(v) S(cos 2v),
S a polynomial of degree 4 at most on a reduced basis, by Horner; the factor
sin(v) keeps theta1 accurate next to 0.
The nome underflows to 0 in double precision once the reduced Im(omega')
exceeds about 237, and the evaluator refuses such a lattice with AccuracyNotMet.

Quasi-periods: sigma(z + p_j) = -sigma(z) * exp(eta_j (z + p_j/2)).  For the
reduced basis eta1' = -pi^2 theta1'''(0) / (3 P1 theta1'(0)) and eta2' follows
from the Legendre relation eta1' P2 - eta2' P1 = 2*pi*i (Im(P2/P1) > 0); the
pair for the original basis combines them with the integer coordinates of P1, P2
from `nearest_lattice_point`.  DirectProduct sums eta_j by `eta_from_sum` when
`eta` asks for it.

Translation constant: for any xi0 and either period p_j the four-factor ratio

    R_j(z) = [sigma(z) / sigma(z - xi0)] * [sigma(z - xi0 + p_j) / sigma(z + p_j)]

is independent of z and equals exp(v_j) with v_j = -eta_j * xi0.  `v_constant`
computes it that way for both methods: DirectSum is -xi0 times the eta_j of a
DirectProduct evaluator over the shells (the paired lattice sum of
`eta_from_sum`, with an O(1/N^2) truncation tail); ViaEta reuses the
theta-series quasi-period and is the accurate default.

All values are in log form because |sigma| grows like exp(quadratic) across
cells.  `_log_quotient(ev, z, zeros, poles)` is the one sigma kernel of both
backends: it returns the unwrapped log of prod sigma(z - w) over the zeros
over prod sigma(z - w) over the poles, with the counts of factors on the
lattice.  `sigma` is the quotient with the single zero 0, and
`divisor.eval_elliptic` (so `eval_f`) calls it once per point; each wraps the
phase once, in `LogValue.from_log`.  DirectProduct adds and subtracts the log
sigma of each factor.  FastSeries runs one loop over the factors: it repeats
the rounding of `nearest_lattice_point` inline, multiplies sin(v0) S(cos 2v0)
into one running product for the zeros and one for the poles, and adds the
terms in eta1' and n to one sum.  A product takes a complex log only when its
magnitude leaves `_WINDOW`, chosen so that one more factor keeps it a normal
double, and once at the end; the constant log(P1/pi) - log(theta1'(0)/2) is
added once, times the number of zeros less poles.  Its derivative,
`_dlog_quotient` (FastSeries only), adds the zeta of each factor in order to
one sum, S and S' in one Horner pass, after the rounding of
`nearest_lattice_point`; `zeta` is its one-factor case and
`divisor.log_derivative` the exact f'/f.  In both kernels a factor counts as
on the lattice only once `_certify_hit` passes: far from the cell the reduced
z0 has lost its bits, and |z0| <= SNAP_TOL proves nothing.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import sys

from .errors import AccuracyNotMet, Value, set_field
from .lattice import (
    MAX_PERIOD,
    SNAP_TOL,
    Lattice,
    _point_blocks,
    _unit_frame_distance,
    nearest_lattice_point,
    reduce_basis,
    torus_distance,
)

TAU = 2.0 * math.pi

#: double-precision unit roundoff, used in error certificates.
_EPS = 2.2e-16

#: largest truncation_shells; each direct sum builds 2N(N+1) lattice points, one per {lam, -lam}.
MAX_SHELLS = 1000

#: logs of the smallest and largest normal doubles.
LOG_NORMAL_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))

#: factors per complex log in the direct log sigma.
_PRODUCT = 64

#: A running FastSeries product takes a complex log once its magnitude leaves
#: this window, so one more factor keeps it a normal double.  A factor
#: sin(v0) S(cos 2v0) is about q^(1/4) sin(v0) with |Im v0| <= pi*Im(omega)/2:
#: at most |q|^(-1/4), and off the lattice at least |q|^(1/4) pi*SNAP_TOL/MAX_PERIOD,
#: where |q| >= the least subnormal (q == 0 is refused); e^2 covers the rest of S.
_WINDOW = (
    sys.float_info.min / (5e-324**0.25 * math.pi * SNAP_TOL / MAX_PERIOD / math.e**2),
    sys.float_info.max / (5e-324**-0.25 * math.e**2),
)


def wrap_angle(x: float) -> float:
    """Wrap a radian angle onto (-pi, pi]."""
    r = math.remainder(x, TAU)
    if r <= -math.pi:
        r += TAU
    return r


class LogValue(Value):
    """A complex value stored as (log magnitude, phase).

    log_mag = -inf encodes the value 0 (with the conventional phase 0);
    phase always lies in (-pi, pi].
    """

    __slots__ = ("log_mag", "phase")

    def __init__(self, log_mag: float, phase: float):
        set_field(self, "log_mag", log_mag)
        set_field(self, "phase", phase)

    @staticmethod
    def from_log(log_w: complex) -> "LogValue":
        """LogValue of exp(log_w) for an unwrapped complex logarithm."""
        # wrap_angle, inlined: this runs once per sigma and eval_f call
        phase = math.remainder(log_w.imag, TAU)
        if phase <= -math.pi:
            phase += TAU
        return LogValue(log_w.real, phase)

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(-math.inf, 0.0)

    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def log(self) -> complex:
        """The principal complex logarithm (finite values only)."""
        return complex(self.log_mag, self.phase)


class Backend(str, enum.Enum):
    DIRECT_PRODUCT = "direct"
    FAST_SERIES = "fast"


def _theta_coefficients(q: complex, im_omega: float) -> list[complex]:
    """Coefficients (-1)^n q^{(n+1/2)^2} until they are negligible on the cell.

    With |q| = exp(-pi*im_omega) and |Im u| <= pi*im_omega/2 the n-th term of
    theta1 is bounded by exp(-pi*im_omega*(n^2 - 1/4)) relative to the leading
    one, so the cutoff only depends on im_omega.
    """
    coeffs = []
    for n in range(64):
        coeffs.append((-1) ** n * q ** ((n + 0.5) ** 2))
        if math.pi * im_omega * ((n + 1) ** 2 - 0.25) > 50.0:
            break
    return coeffs


def _cosine_polynomial(coeffs: list[complex]) -> list[complex]:
    """Coefficients of S(c), highest degree first, with theta1(v) = 2 sin(v) S(cos 2v).

    sin((2k+1)v) / sin(v) = 1 + 2 sum_{j=1..k} cos(2jv), so S = C_0 + 2 sum_j C_j T_j(c)
    with the tails C_j = sum_{k >= j} c_k and the Chebyshev polynomials T_j.
    """
    tails = list(itertools.accumulate(reversed(coeffs)))[::-1]
    cheb = [[1], [0, 1]]
    while len(cheb) < len(tails):
        cheb.append([2 * a - b for a, b in zip([0, *cheb[-1]], [*cheb[-2], 0, 0])])
    poly = [0j] * len(tails)
    for j, C in enumerate(tails):
        for i, t in enumerate(cheb[j]):
            poly[i] += (2 if j else 1) * C * t
    return poly[::-1]


def eta_from_sum(lat: Lattice, j: int, N: int) -> complex:
    """eta_j = 3/p_j - p_j^2 * sum 1/(lam (lam+p_j)^2) over the shells up to N, lam != 0, -p_j.

    Each orbit member of the pairing lam <-> -lam-p_j contributes half the paired
    term -p_j/(lam^2 (lam+p_j)^2), which turns the O(1/N) truncation tail into
    O(1/N^2).  Adding the mirror -lam gives -2p_j(lam^2+p_j^2)/(lam^2 (lam^2-p_j^2)^2),
    summed over one point of every pair {lam, -lam}; the pair {p_j, -p_j} adds
    only the paired term of p_j, -1/(4 p_j^3), since -p_j is excluded.  In the
    scale-free u = lam/p_j that is eta_j = (25/8 + sum (u^2+1)/(u^2 (u^2-1)^2)) / p_j.
    """
    pj = lat.p1 if j == 1 else lat.p2
    total = 3 + 1 / 8
    # 1/8 is the pair {p_j, -p_j}, so skip p_j = (1, 0) or (0, 1) by its coordinates:
    # at the 1e-6 period floor lam^2 - p_j^2 is ~1e-12 for its neighbours too
    for u in _point_blocks(N, lat.p1 / pj, lat.p2 / pj, skip=(2 - j, j - 1)):
        u *= u
        d = u - 1
        d *= d
        d *= u
        u += 1
        u /= d
        total += complex(u.sum())
    return total / pj


def _direct_sum_tail(lat: Lattice, pj_abs: float, N: int) -> float:
    """Tail bound for the paired sum of `eta_from_sum` truncated at shell N.

    Shell k has 8k points with |lam| >= c*k and |lam + p_j| >= c*(k-1) (the
    shifted point keeps sup-norm >= k-1), each contributing half a paired term,
    so the tail is at most sum_{k >= N} 4|p_j| / (c^4 k (k-1)^2).  `eta_from_sum`
    sums the same terms over one point of each {lam, -lam}, 4k per shell, so the
    set and the bound are unchanged.  With
    x = N - 1, partial fractions telescope that series to
    (4|p_j|/c^4) * (psi_1(x) - 1/x), and psi_1(x) < 1/x + 1/(2x^2) + 1/(6x^3)
    for every x > 0 (DLMF 5.15).
    """
    c = _unit_frame_distance(lat)
    x = N - 1
    return 4 * pj_abs / c**4 * (1 / (2 * x**2) + 1 / (6 * x**3))


class SigmaEvaluator:
    """Configured sigma evaluator; immutable after construction.

    Only the FastSeries backend holds state (eta1, eta2, the theta series);
    `eta(ev, j)` serves both, running the DirectProduct lattice sum per call.
    """

    def __init__(
        self,
        lattice: Lattice,
        backend: Backend | str = Backend.FAST_SERIES,
        truncation_shells: int = 200,
        target_rel_error: float = 1e-12,
    ):
        self.lattice = lattice
        self.backend = Backend(backend)
        self.truncation_shells = int(truncation_shells)
        self.target_rel_error = float(target_rel_error)
        if not 1 <= self.truncation_shells <= MAX_SHELLS:
            raise ValueError(f"truncation_shells must be in [1, {MAX_SHELLS}]")

        # the reduced basis; None marks DirectProduct, which is what both kernels test
        self._reduced = None
        if self.backend is Backend.FAST_SERIES:
            self._reduced = red = reduce_basis(lattice)
            q = cmath.exp(1j * math.pi * red.omega)
            if q == 0:
                # the nome underflows once the reduced Im(omega) exceeds about 237
                raise AccuracyNotMet("reduced aspect ratio too extreme for the theta backend")
            coeffs = _theta_coefficients(q, red.omega.imag)
            t1p = 2 * sum(c * (2 * k + 1) for k, c in enumerate(coeffs))
            t1ppp = -2 * sum(c * (2 * k + 1) ** 3 for k, c in enumerate(coeffs))
            eta1_red = -(math.pi**2) * t1ppp / (3 * red.p1 * t1p)
            eta2_red = (eta1_red * red.p2 - TAU * 1j) / red.p1
            # theta1(v) = 2 sin(v) S(cos 2v), S a polynomial of degree K-1; see _cosine_polynomial
            top, *rest = _cosine_polynomial(coeffs)
            # the kernels' constants, in the order they unpack them; the last is the
            # log of (P1/pi) * 2/theta1'(0), the constant of sigma(z) = ... * theta1(v0)/2
            log_const = cmath.log(red.p1 / math.pi) - cmath.log(t1p / 2)
            self._theta = (red.p1, red.p2, red.omega.real, red.omega.imag, top, tuple(rest),
                           eta1_red / (2 * red.p1), math.pi * red.omega, self.target_rel_error,
                           log_const)
            # [p1; p2] = det * [[d, -b], [-c, a]] [P1; P2] with integer entries
            (a, b, _), (c, d, _) = (nearest_lattice_point(P, lattice) for P in (red.p1, red.p2))
            det = a * d - b * c
            self.eta1 = det * (d * eta1_red - b * eta2_red)
            self.eta2 = det * (-c * eta1_red + a * eta2_red)

    def a_priori_bound(self, z: complex) -> float:
        """Bound on the truncation error of log sigma at z.

        DirectProduct: per-point tail |log(1-w)+w+w^2/2| <= (2/3)|w|^3 for
        |w| <= 1/2 summed over shells beyond N gives (16/3)|z|^3/(c^3 N),
        valid once c*N >= 2|z|.  FastSeries: the configured target.
        """
        if self.backend is Backend.FAST_SERIES:
            return self.target_rel_error
        c, N = _unit_frame_distance(self.lattice), self.truncation_shells
        if c * N < 2 * abs(z):
            return math.inf
        return (16.0 / 3.0) * abs(z) ** 3 / (c**3 * N)


def _certify_hit(quad_coef: complex, u: complex, n: int, pi_omega: complex, target: float) -> None:
    """AccuracyNotMet unless a reduction of u onto a lattice point certifies a hit.

    Far from the cell, z0 = u - lam has lost every bit, so |z0| <= SNAP_TOL
    says nothing; the hit must pass the roundoff certificate of a factor off
    the lattice, with v0 = 0 in its amplitude |quad| + |Im v0| + |corr|; an
    amplitude that overflows to nan fails it too.
    """
    certified = _EPS * (10.0 + abs(quad_coef * u * u) + abs(n * (n * pi_omega)))
    if not certified <= target:
        raise AccuracyNotMet(f"roundoff estimate {certified:.3e} exceeds target {target:.3e}")


def _log_sigma_direct(ev: SigmaEvaluator, z: complex) -> complex | None:
    """log sigma(z) of the DirectProduct backend, phase wrapped onto (-pi, pi], or None on the lattice."""
    if torus_distance(z, 0j, ev.lattice) <= SNAP_TOL:
        return None
    import numpy as np

    low, high = LOG_NORMAL_RANGE
    log_sigma = cmath.log(z)
    blocks = _point_blocks(ev.truncation_shells, ev.lattice.p1, ev.lattice.p2)
    # a product that over- or underflows is caught below, so numpy need not warn
    with np.errstate(all="ignore"):
        for w in blocks:
            np.divide(z, w, out=w)
            # the factors of lam and -lam multiply to (1 - w^2) exp(w^2); forming
            # 1 - w^2 as (1 - w)(1 + w) keeps it accurate next to a lattice point
            t = 1 - w
            t *= 1 + w
            # one log per product of _PRODUCT factors: the phase is wrapped at
            # the end, so a sum of logs of products is exact mod 2*pi*i
            k = len(t) - len(t) % _PRODUCT
            logs = np.log(np.append(t[:k].reshape(_PRODUCT, -1).prod(axis=0), t[k:].prod()))
            if not ((low < logs.real) & (logs.real < high)).all():
                # a product left the normal range: |z| is far outside the cell
                logs = np.log(t)
            w *= w
            log_sigma += complex(logs.sum()) + complex(w.sum())
    return complex(log_sigma.real, wrap_angle(log_sigma.imag))


def _log_quotient(ev: SigmaEvaluator, z: complex, zeros, poles) -> tuple[complex, int, int]:
    """(log, zero hits, pole hits) of prod sigma(z - w) over zeros / prod sigma(z - w) over poles.

    The one sigma kernel of both backends, laid out in the module docstring; z
    must be a finite complex number.  log is unwrapped, and only meaningful
    when neither count is positive.
    """
    if ev._reduced is None:
        log = 0j
        hits = [0, 0]
        for k, points in enumerate((zeros, poles)):
            for w in points:
                log_sigma = _log_sigma_direct(ev, z - w)
                if log_sigma is None:
                    hits[k] += 1
                elif k:
                    log -= log_sigma
                else:
                    log += log_sigma
        return log, *hits

    p1, p2, om_re, om_im, top, rest, quad_coef, pi_omega, target, log_const = ev._theta
    low, high = _WINDOW
    total = (len(zeros) - len(poles)) * log_const
    zero_hits = pole_hits = parity = 0
    is_pole = False  # the zeros' pass, then the poles'
    for points in (zeros, poles):
        hits = 0
        linear = 0j
        prod = 1 + 0j
        for w in points:
            u = z - w
            # nearest_lattice_point(u, red), inlined: a call per factor cost as much as its theta sum
            r = u / p1
            t = r.imag / om_im
            m = math.floor(r.real - t * om_re + 0.5)
            n = math.floor(t + 0.5)
            z0 = u - (m * p1 + n * p2)
            # z0 sits in the centered cell, so the only lattice point in range is 0
            if abs(z0) <= SNAP_TOL:
                _certify_hit(quad_coef, u, n, pi_omega, target)
                hits += 1
                continue
            v0 = math.pi * z0 / p1
            sin_v = cmath.sin(v0)
            c = 1 - 2 * sin_v * sin_v
            s = top
            for a in rest:
                s = s * c + a
            quad = quad_coef * u * u
            amplitude = abs(quad) + abs(v0.imag)
            # theta1(v0 + pi*m + pi*n*omega) = (-1)^(m+n) q^(-n^2) exp(-2i*n*v0) theta1(v0)
            if n:
                corr = n * (n * pi_omega + 2 * v0)
                quad -= 1j * corr
                amplitude += abs(corr)
            certified = _EPS * (10.0 + amplitude)
            if certified > target:
                raise AccuracyNotMet(f"roundoff estimate {certified:.3e} exceeds target {target:.3e}")
            parity += m + n
            linear += quad
            prod *= sin_v * s
            if not low < abs(prod) < high:
                linear += cmath.log(prod)
                prod = 1 + 0j
        if prod != 1:
            linear += cmath.log(prod)
        if is_pole:
            total -= linear
            pole_hits = hits
        else:
            total += linear
            zero_hits = hits
            is_pole = True
    if parity % 2:
        total += 1j * math.pi
    return total, zero_hits, pole_hits


def sigma(ev: SigmaEvaluator, z: complex) -> LogValue:
    """sigma(z) in log form; exactly zero iff z lies on the lattice."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"point {z} is not finite")
    log_sigma, hits, _ = _log_quotient(ev, z, (0j,), ())
    return LogValue.zero() if hits else LogValue.from_log(log_sigma)


def _dlog_quotient(ev: SigmaEvaluator, z: complex, exponent: complex, zeros, poles) -> complex | None:
    """exponent + sum zeta(z - w) over zeros - the same over poles; None on a factor's lattice point.

    zeta(u) = eta1' u/P1 + (pi/P1) (theta1'(v0)/theta1(v0) - 2i*n), with
    theta1'/theta1 = cot(v0) - 4 sin(v0) cos(v0) S'(c)/S(c) at c = cos 2v0
    (DLMF 20.2.9, 23.6).  A non-finite z is a ValueError.
    """
    if not cmath.isfinite(z):
        raise ValueError(f"point {z} is not finite")
    red = ev._reduced
    if red is None:
        raise ValueError("zeta needs the FastSeries backend")
    p1, _, _, _, top, rest, quad_coef, pi_omega, target, _ = ev._theta
    total = exponent
    for sign, points in ((1, zeros), (-1, poles)):
        for w in points:
            u = z - w
            _, n, lam = nearest_lattice_point(u, red)
            z0 = u - lam
            # z0 sits in the centered cell, so the only lattice point in range is 0
            if abs(z0) <= SNAP_TOL:
                _certify_hit(quad_coef, u, n, pi_omega, target)
                return None
            v0 = math.pi * z0 / p1
            sin_v = cmath.sin(v0)
            cos_v = cmath.cos(v0)
            c = 1 - 2 * sin_v * sin_v
            s = top
            ds = 0j
            for a in rest:
                ds = ds * c + s
                s = s * c + a
            ratio = cos_v / sin_v - 4 * sin_v * cos_v * ds / s
            total += sign * (2 * quad_coef * u + math.pi / p1 * (ratio - 2j * n))
    return total


def zeta(ev: SigmaEvaluator, z: complex) -> complex | None:
    """Weierstrass zeta(z) = sigma'(z)/sigma(z) on the FastSeries backend, or None on the lattice."""
    return _dlog_quotient(ev, complex(z), 0j, (0j,), ())


def eta(ev: SigmaEvaluator, j: int) -> complex:
    """Quasi-period eta_j with sigma(z + p_j) = -sigma(z) exp(eta_j (z + p_j/2))."""
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    if ev.backend is Backend.DIRECT_PRODUCT:
        return eta_from_sum(ev.lattice, j, ev.truncation_shells)
    return ev.eta1 if j == 1 else ev.eta2


class VMethod(str, enum.Enum):
    DIRECT_SUM = "direct"
    VIA_ETA = "eta"


class RatioConstant(Value):
    """v_j for one (xi0, j), with the method and its a-priori error bound."""

    __slots__ = ("v", "method", "shells_used", "error_bound")

    def __init__(self, v: complex, method: VMethod, shells_used: int, error_bound: float):
        set_field(self, "v", v)
        set_field(self, "method", method)
        set_field(self, "shells_used", shells_used)
        set_field(self, "error_bound", error_bound)


def v_constant(
    lat: Lattice,
    xi0: complex,
    j: int,
    method: VMethod | str = VMethod.VIA_ETA,
    shells: int = 200,
) -> RatioConstant:
    """Translation constant v_j = -xi0 * eta_j of the evaluator the method names.

    AccuracyNotMet if v_j or its bound leaves the double range (a huge xi0).
    """
    xi0 = complex(xi0)
    if not cmath.isfinite(xi0):
        raise ValueError(f"xi0 {xi0} is not finite")
    method = VMethod(method)
    if method is VMethod.DIRECT_SUM and shells < 2:
        raise ValueError("truncation_shells must be at least 2 for direct")
    backend = Backend.DIRECT_PRODUCT if method is VMethod.DIRECT_SUM else Backend.FAST_SERIES
    v = -xi0 * eta(SigmaEvaluator(lat, backend, shells), j)
    if method is VMethod.VIA_ETA:
        shells, bound = 0, 1e-13 * (1.0 + abs(v))
    else:
        pj = abs(lat.p1 if j == 1 else lat.p2)
        bound = abs(xi0) * pj**2 * _direct_sum_tail(lat, pj, shells) * 1.2
    if not (cmath.isfinite(v) and math.isfinite(bound)):
        raise AccuracyNotMet(f"v{j} = {v} with error bound {bound:.6g} leaves the double range")
    return RatioConstant(v, method, shells, bound)
