"""Weierstrass sigma function with two backends.

DirectProduct evaluates the canonical genus-2 product

    sigma(z) = z * prod_{lam in L \\ {0}} (1 - z/lam) * exp(z/lam + z^2/(2*lam^2))

truncated by sup-norm shells; it converges slowly (tail O(|z|^4 / N^2) in log
sigma), builds its points for each sum and is the oracle of sigma and eta only.  The
shell set is symmetric under lam -> -lam, so each of its lattice sums runs over
one point of every pair {lam, -lam} with the mirror term folded into the summand:
log sigma sums log(1 - z^2/lam^2) + z^2/lam^2, the same truncation set as the
product above.  It multiplies the factors 1 - z^2/lam^2 of a block into one
product and takes one complex log per block (the phase is wrapped at the end, so
the sum of their logs is exact mod 2*pi*i), and sums z^2/lam^2 apart; a block
whose product leaves the normal double range, which only |z| outside the cell
reaches, takes one log per factor.  Its `a_priori_bound` is the paired
truncation tail (4/3)(|z|/c)^4/N^2 plus a roundoff term, ~4 eps per factor and
2 eps per block log, that dominates below |z| ~ 4e-2 |P1| (~7e-11 at 200
shells).  The points come from the cached complex128 shell coordinates of
`_shell_arrays`, in blocks of SHELL_BLOCK points (`_point_blocks`); the shell
list, its blocks and the bounds that count them (`a_priori_bound`,
`_direct_sum_tail`) all live in this module.

FastSeries is the production path: after Gauss-reducing the basis the nome
q = exp(i*pi*omega') satisfies |q| <= exp(-pi*sqrt(3)/2), and sigma is assembled
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
`eta` asks for it, once per process for each exact period pair, j and N: the
sum is memoised for the last 16 of them (8 lattices with both periods).

Translation constant: for any xi0 and either period p_j the four-factor ratio

    R_j(z) = [sigma(z) / sigma(z - xi0)] * [sigma(z - xi0 + p_j) / sigma(z + p_j)]

is independent of z and equals exp(v_j) with v_j = -eta_j * xi0.  `v_constant`
computes it that way for both methods: DirectSum is -xi0 times the eta_j of a
DirectProduct evaluator over the shells (the paired lattice sum of
`eta_from_sum`, with an O(1/N^2) truncation tail, so v_j for another xi0 on
the same lattice, or after `eta`, reuses the memoised sum); ViaEta reuses the
theta-series quasi-period and is the accurate default.

All values are in log form because |sigma| grows like exp(quadratic) across
cells.  `_log_quotient(ev, z, zeros, poles)` is the one sigma-quotient
kernel, on the theta series: it returns the unwrapped log of prod sigma(z - w)
over the zeros over prod sigma(z - w) over the poles, with the counts of
factors on the lattice.  FastSeries `sigma` is the quotient with the single
zero 0, and `eval_elliptic` (so `eval_f`) calls it once per point; each wraps
the phase once, in `LogValue.from_log`.  DirectProduct `sigma` is one call of
`_log_sigma_direct`, wrapped the same way, and a DirectProduct evaluator is a
ValueError in either kernel.  The quotient kernel runs one loop over the
factors: it repeats the rounding of `nearest_lattice_point` inline and adds
each factor's log(sin(v0) S(cos 2v0)) and its terms in eta1' and n to one sum
for the zeros and one for the poles, so a quotient of k factors takes k calls
of cmath.sin and k of cmath.log; the constant log(P1/pi) - log(theta1'(0)/2)
is added once, times the number of zeros less poles.  Its derivative,
`_dlog_quotient`, adds the zeta of each factor in order to
one sum, S and S' in one Horner pass, after the rounding of
`nearest_lattice_point`; `zeta` is its one-factor case and
`log_derivative` the exact f'/f.  In both kernels a factor counts as
on the lattice only once `_certify_hit` passes: far from the cell the reduced
z0 has lost its bits, and |z0| <= SNAP_TOL proves nothing.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import sys
from functools import lru_cache

from .errors import AccuracyNotMet, PoleOrZeroHit, Value, set_field
from .lattice import SNAP_TOL, Lattice, nearest_lattice_point, reduce_basis, torus_distance

# type checkers honour this as typing.TYPE_CHECKING, whose import costs ~4 ms of start-up
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

TAU = 2.0 * math.pi

#: double-precision unit roundoff, used in error certificates.
_EPS = 2.2e-16

#: largest truncation_shells; each direct sum builds 2N(N+1) lattice points, one per {lam, -lam}.
MAX_SHELLS = 1000

#: logs of the smallest and largest normal doubles.
LOG_NORMAL_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))

#: Points per block of a direct lattice sum.  The allocator reuses temporaries of
#: this size from call to call; full-length ones were mapped and page-faulted in
#: afresh (~2,400 faults and twice the time for a direct sigma and two etas at
#: 200 shells, on a 2-vCPU Xeon).
SHELL_BLOCK = 8192

#: factors per partial product of a block in the direct log sigma.
_PRODUCT = 64


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

    # not Value's generic __init__: one LogValue is built per sigma and eval_f call
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


class PoleValue(Value):
    """Marker for a pole hit, carrying the multiplicity."""

    __slots__ = ("multiplicity",)


class SigmaQuotient(Value):
    """exp(exponent*z + log_scale) * prod sigma(z - zero) / prod sigma(z - pole).

    Built by `synthesis.build_elliptic` (g) and `synthesis._fold_ratio` (f's
    evaluation form), so no zero is congruent to a pole.
    """

    __slots__ = ("exponent", "log_scale", "zeros", "poles")


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


@lru_cache(maxsize=1)
def _shell_arrays(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer coordinates (m, n) of one point of every pair {lam, -lam} with shell index <= N.

    Shell k holds the points with max(|m|, |n|) = k; of each pair only the one
    with m > 0, or m == 0 and n > 0, is kept, so shell k contributes 4k points,
    starting at index 2k(k-1), and the list 2N(N+1).  Shells come in increasing
    k and are sorted by (m, n) within a shell, so shell 1 is (0, 1), (1, -1),
    (1, 0), (1, 1).  The shell set is symmetric under lam -> -lam, so a lattice
    sum folds the mirror term into its summand.  The coordinates are stored as
    complex128, exact integers that multiply a complex period without a cast
    (numpy casts float64 ones, and a block of `_point_blocks` then takes ~60%
    longer).  Only the last list is cached, 64 MB at MAX_SHELLS; treat it as read-only.
    """
    import numpy as np

    m, n = np.meshgrid(np.arange(N + 1.0), np.arange(-N, N + 1.0), indexing="ij")
    m = m.ravel()
    n = n.ravel()
    keep = (m > 0) | (n > 0)
    m, n = m[keep], n[keep]
    order = np.lexsort((n, m, np.maximum(m, np.abs(n))))
    return m[order].astype(complex), n[order].astype(complex)


def _point_blocks(N: int, a: complex, b: complex):
    """Yield m*a + n*b over `_shell_arrays(N)`, in blocks of at most SHELL_BLOCK points.

    Each block is a fresh array the caller may overwrite.
    """
    m, n = _shell_arrays(N)
    for i in range(0, len(m), SHELL_BLOCK):
        points = m[i : i + SHELL_BLOCK] * a
        points += n[i : i + SHELL_BLOCK] * b
        yield points


def _unit_frame_distance(lat: Lattice) -> float:
    """min |s*p1 + t*p2| over the boundary of the unit sup-norm square.

    Shell k then satisfies |m*p1 + n*p2| >= k * distance; used for tail bounds
    of truncated lattice sums.
    """

    def seg_min(a: complex, b: complex) -> float:
        t = -(b.conjugate() * a).real / abs(b) ** 2
        t = min(1.0, max(-1.0, t))
        return abs(a + t * b)

    return min(seg_min(lat.p1, lat.p2), seg_min(lat.p2, lat.p1))


def eta_from_sum(lat: Lattice, j: int, N: int) -> complex:
    """eta_j = 3/p_j - p_j^2 * sum 1/(lam (lam+p_j)^2) over the shells up to N, lam != 0, -p_j.

    Each orbit member of the pairing lam <-> -lam-p_j contributes half the paired
    term -p_j/(lam^2 (lam+p_j)^2), which turns the O(1/N) truncation tail into
    O(1/N^2).  Adding the mirror -lam gives -2p_j(lam^2+p_j^2)/(lam^2 (lam^2-p_j^2)^2),
    summed over one point of every pair {lam, -lam}; the pair {p_j, -p_j} adds
    only the paired term of p_j, -1/(4 p_j^3), since -p_j is excluded.  In the
    scale-free u = lam/p_j that is eta_j = (25/8 + sum (u^2+1)/(u^2 (u^2-1)^2)) / p_j.

    The sum does not depend on any xi0, so it is memoised for the life of the
    process on the exact periods, j and N, for the last 16 of them: `eta` of a
    DirectProduct evaluator and `v_constant(..., "direct")` on the same lattice
    run it once between them.
    """
    # Lattice equality merges +0.0 and -0.0; the repr of the periods keeps the sign
    return _eta_sum(repr((lat.p1, lat.p2)), lat.p1, lat.p2, j, N)


@lru_cache(maxsize=16)  # both periods of 8 lattices
def _eta_sum(periods: str, p1: complex, p2: complex, j: int, N: int) -> complex:
    """The paired sum of `eta_from_sum`, cached on the exact periods (their repr), j and N."""
    import numpy as np

    pj = p1 if j == 1 else p2
    total = 3 + 1 / 8
    blocks = _point_blocks(N, p1 / pj, p2 / pj)
    # 1/8 is the pair {p_j, -p_j}, so drop p_j = (1, 0) or (0, 1), index 2 or 0 of shell 1,
    # by its place: at the 1e-6 period floor lam^2 - p_j^2 is ~1e-12 for its neighbours too
    for u in itertools.chain([np.delete(next(blocks), 2 * (2 - j))], blocks):
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
    `eta(ev, j)` serves both, reading the DirectProduct lattice sum from the
    process-wide memo of `eta_from_sum`, which runs it on the first request.
    A DirectProduct sigma takes one complex log per block of SHELL_BLOCK
    points; its `a_priori_bound` is the paired tail bound.
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
        if not 0 < self.target_rel_error < math.inf:
            raise ValueError(f"target_rel_error must be positive and finite, got {target_rel_error}")

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
        """Bound on the error of log sigma at z: the configured target for FastSeries.

        DirectProduct: truncation plus roundoff, with c = `_unit_frame_distance`,
        so |lam| >= c*k on shell k, and w = z/lam.  Truncation: the paired term
        t(w) = log(1 - w^2) + w^2 = -sum_{k>=2} w^(2k)/k has |t(w)| <= (2/3)|w|^4
        for |w| <= 1/2 (the series gives 0.603|w|^4 there).  Shell k holds 4k
        pairs, and sum_{k>N} k^-3 <= 1/(2N^2), so the shells beyond N add at
        most (4/3)(|z|/c)^4/N^2, valid once c*N >= 2|z|; elsewhere the bound is
        infinite.  Roundoff, to first order in eps = _EPS >= 2u:

        - A factor (1 - w)(1 + w) is off by (2 + sqrt 5)u relative (two sums and
          a complex product, Brent-Percival-Zimmermann 2007), and each of the
          n - 1 products that multiply a block's n factors into one adds
          sqrt(5)u: under 4 eps per factor.  The one log per block adds 2 eps.
          B blocks of SHELL_BLOCK points: 8N(N+1) + 2B roundings.
        - w is off by at most (kappa + 3) eps relative, kappa = (|p1| + |p2|)/c,
          from rounding lam = m*p1 + n*p2 (|m|, |n| <= k) and the division.  That
          moves 1 - w^2 by (8/3)|w|^2 and w^2 by 2|w|^2 times it; with the sum
          of w^2 it stays under (5 kappa + 50) eps sum |w|^2, and
          sum |w|^2 <= sum_k 4k |z|^2/(c k)^2 <= 4 (ln N + 1) |z|^2/c^2.
        - log z and the 2B additions to it: (B + 1) eps (|ln |z|| + pi).

        A block whose product leaves the normal range takes one log per factor,
        at most 2 eps more per factor.  That needs
        |sum log(1 - w^2)| > 708 over the block, so some |w| > 1/2, |z| > c/2
        (below, the sum is at most (16/3)(ln N + 1)(|z|/c)^2 < 11); there the
        truncation term's slack, 9% of it, exceeds 2 eps * 2N(N+1) at every
        N <= MAX_SHELLS.  Next to the origin the products dominate: ~3.2e5
        roundings at 200 shells, ~7e-11.  A non-finite z is a ValueError, as in `sigma`.
        """
        if not cmath.isfinite(z):
            raise ValueError(f"point {z} is not finite")
        if self.backend is Backend.FAST_SERIES:
            return self.target_rel_error
        lat, N = self.lattice, self.truncation_shells
        c, r = _unit_frame_distance(lat), abs(z)
        if c * N < 2 * r:
            return math.inf
        blocks = -(-2 * N * (N + 1) // SHELL_BLOCK)
        kappa = (abs(lat.p1) + abs(lat.p2)) / c
        log_z = abs(math.log(r)) + math.pi if r else 0.0
        roundoff = _EPS * (
            8 * N * (N + 1)
            + 2 * blocks
            + (5 * kappa + 50) * 4 * (math.log(N) + 1) * (r / c) ** 2
            + (blocks + 1) * log_z
        )
        return (4.0 / 3.0) * (r / c) ** 4 / N**2 + roundoff


def _roundoff_refusal(certified: float, target: float, z: complex, w: complex) -> AccuracyNotMet:
    """The kernels' refusal of the factor sigma(z - w), naming the point z and the shift w."""
    return AccuracyNotMet(
        f"roundoff estimate {certified:.3e} exceeds target {target:.3e}"
        f" at z = {z} in the factor sigma(z - w), w = {w}"
    )


def _certify_hit(
    quad_coef: complex, z: complex, w: complex, n: int, pi_omega: complex, target: float
) -> None:
    """AccuracyNotMet unless a reduction of u = z - w onto a lattice point certifies a hit.

    Far from the cell, z0 = u - lam has lost every bit, so |z0| <= SNAP_TOL
    says nothing; the hit must pass the roundoff certificate of a factor off
    the lattice, with v0 = 0 in its amplitude |quad| + |Im v0| + |corr|; an
    amplitude that overflows to nan fails it too.
    """
    u = z - w
    certified = _EPS * (10.0 + abs(quad_coef * u * u) + abs(n * (n * pi_omega)))
    if not certified <= target:
        raise _roundoff_refusal(certified, target, z, w)


def _log_sigma_direct(ev: SigmaEvaluator, z: complex) -> complex | None:
    """Unwrapped log sigma(z) of the DirectProduct backend, or None on the lattice; `sigma` wraps it."""
    if torus_distance(z, 0j, ev.lattice) <= SNAP_TOL:
        return None
    import numpy as np

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
            # one log per block: the phase is wrapped at the end, so a sum of
            # logs of products is exact mod 2*pi*i.  Each product of _PRODUCT
            # factors takes one from every 64th of the block, so the products
            # are alike and their running product moves steadily to the block's.
            k = len(t) - len(t) % _PRODUCT
            block = t[:k].reshape(_PRODUCT, -1).prod(axis=0).prod() * t[k:].prod()
            if sys.float_info.min <= abs(block) <= sys.float_info.max:
                log = cmath.log(block)
            else:
                # the block's product left the normal range, which needs |z| > c/2
                log = complex(np.log(t).sum())
            w *= w
            log_sigma += log + complex(w.sum())
    return log_sigma


def _log_quotient(ev: SigmaEvaluator, z: complex, zeros, poles) -> tuple[complex, int, int]:
    """(log, zero hits, pole hits) of prod sigma(z - w) over zeros / prod sigma(z - w) over poles.

    The theta-series quotient kernel laid out in the module docstring; z must
    be a finite complex number.  log is unwrapped, and only meaningful when
    neither count is positive.  A DirectProduct evaluator is a ValueError.
    """
    if ev._reduced is None:
        raise ValueError("a sigma quotient needs the FastSeries backend")
    p1, p2, om_re, om_im, top, rest, quad_coef, pi_omega, target, log_const = ev._theta
    total = (len(zeros) - len(poles)) * log_const
    zero_hits = pole_hits = parity = 0
    is_pole = False  # the zeros' pass, then the poles'
    for points in (zeros, poles):
        hits = 0
        linear = 0j
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
                _certify_hit(quad_coef, z, w, n, pi_omega, target)
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
                raise _roundoff_refusal(certified, target, z, w)
            parity += m + n
            # |sin(v0) S(c)|, ~|q|^(1/4) pi SNAP_TOL/MAX_PERIOD to ~|q|^(-1/4) e^2, is a normal double
            linear += quad + cmath.log(sin_v * s)
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
    if ev._reduced is None:
        log_sigma = _log_sigma_direct(ev, z)
        hits = log_sigma is None
    else:
        log_sigma, hits, _ = _log_quotient(ev, z, (0j,), ())
    return LogValue.zero() if hits else LogValue.from_log(log_sigma)


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
                _certify_hit(quad_coef, z, w, n, pi_omega, target)
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
