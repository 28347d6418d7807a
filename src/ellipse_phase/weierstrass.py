"""Weierstrass sigma function with two backends.

DirectProduct evaluates the canonical genus-2 product

    sigma(z) = z * prod_{lam in L \\ {0}} (1 - z/lam) * exp(z/lam + z^2/(2*lam^2))

truncated by sup-norm shells; it converges slowly (tail O(|z|^3 / N) in log sigma)
and serves as the low-accuracy oracle.  FastSeries is the production path: after
Gauss-reducing the basis the nome q = exp(i*pi*omega') satisfies
|q| <= exp(-pi*sqrt(3)/2), and sigma is assembled from the exponentially
convergent odd theta series

    theta1(u | tau) = 2 * sum_n (-1)^n q^{(n+1/2)^2} sin((2n+1) u)

via  sigma(z) = (P1/pi) * exp(eta1' z^2 / (2 P1)) * theta1(pi z / P1) / theta1'(0).

Quasi-periods: sigma(z + p_j) = -sigma(z) * exp(eta_j (z + p_j/2)).  For the
reduced basis eta1' = -pi^2 theta1'''(0) / (3 P1 theta1'(0)) and eta2' follows
from the Legendre relation eta1' P2 - eta2' P1 = 2*pi*i (Im(P2/P1) > 0); the
pair for the original basis is the integer change-of-basis combination.
DirectProduct takes eta_j from the paired lattice sum `eta_from_sum`, which
also gives the DirectSum constant v_j = -xi0 * eta_j of sigma_ratio.

All values are returned in log form (LogValue) because |sigma| grows like
exp(quadratic) across cells.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyNotMet
from .lattice import (
    Lattice,
    _shell_arrays,
    _unit_frame_distance,
    coordinates,
    reduce_basis,
    torus_distance,
)

TAU = 2.0 * math.pi

#: Inputs within this distance of a lattice point (after reduction) are exact zeros.
SNAP_TOL = 1e-12

#: log-magnitude ceiling for converting a LogValue back to a raw complex number.
OVERFLOW_LOG = 700.0

#: double-precision unit roundoff, used in error certificates.
_EPS = 2.2e-16


def wrap_angle(x: float) -> float:
    """Wrap a radian angle onto (-pi, pi]."""
    r = math.remainder(x, TAU)
    if r <= -math.pi:
        r += TAU
    return r


@dataclass(frozen=True)
class LogValue:
    """A complex value stored as (log magnitude, phase).

    log_mag = -inf encodes the value 0 (with the conventional phase 0);
    phase always lies in (-pi, pi].
    """

    log_mag: float
    phase: float

    @staticmethod
    def from_complex(w: complex) -> "LogValue":
        w = complex(w)
        if w == 0:
            return LogValue(-math.inf, 0.0)
        return LogValue(math.log(abs(w)), wrap_angle(cmath.phase(w)))

    @staticmethod
    def from_log(log_w: complex) -> "LogValue":
        """LogValue of exp(log_w) for an unwrapped complex logarithm."""
        return LogValue(log_w.real, wrap_angle(log_w.imag))

    @staticmethod
    def one() -> "LogValue":
        return LogValue(0.0, 0.0)

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(-math.inf, 0.0)

    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def log(self) -> complex:
        """The principal complex logarithm (finite values only)."""
        return complex(self.log_mag, self.phase)

    def to_complex(self) -> complex:
        """Raw complex value; raises OverflowError once exp would overflow."""
        if self.is_zero():
            return 0j
        if self.log_mag > OVERFLOW_LOG:
            raise OverflowError(f"log magnitude {self.log_mag:.3g} exceeds {OVERFLOW_LOG:g}")
        return cmath.exp(complex(self.log_mag, self.phase))

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.is_zero() or other.is_zero():
            return LogValue.zero()
        return LogValue(self.log_mag + other.log_mag, wrap_angle(self.phase + other.phase))

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.is_zero():
            raise ZeroDivisionError("division by a zero LogValue")
        if self.is_zero():
            return LogValue.zero()
        return LogValue(self.log_mag - other.log_mag, wrap_angle(self.phase - other.phase))


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


def _paired_term(lam, pj: complex):
    """Combined summand for the orbit {lam, -lam-p_j}: -p_j/(lam^2 (lam+p_j)^2)."""
    return -pj / (lam**2 * (lam + pj) ** 2)


def eta_from_sum(lam: np.ndarray, pj: complex) -> complex:
    """eta_j = 3/p_j - p_j^2 * sum 1/(lam (lam+p_j)^2) over the points lam != -p_j.

    Each orbit member of the pairing lam <-> -lam-p_j contributes half a paired
    term, which turns the O(1/N) truncation tail into O(1/N^2).
    """
    lam = lam[np.abs(lam + pj) > SNAP_TOL]
    return 3.0 / pj - pj**2 * (0.5 * complex(np.sum(_paired_term(lam, pj))))


class SigmaEvaluator:
    """Configured sigma evaluator; immutable after construction.

    The quasi-periods eta1, eta2 for the given basis are cached eagerly:
    from the theta series for the FastSeries backend, from the symmetrized
    lattice sum at `truncation_shells` for the DirectProduct backend.
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
        if self.truncation_shells < 1:
            raise ValueError("truncation_shells must be >= 1")

        self._frame_dist = _unit_frame_distance(lattice)
        reduced, basis_matrix = reduce_basis(lattice)
        self._reduced = reduced
        self._basis_matrix = basis_matrix
        if math.pi * reduced.omega.imag / 2 > 650.0:
            raise AccuracyNotMet(
                "reduced aspect ratio too extreme for the theta backend"
            )

        q = cmath.exp(1j * math.pi * reduced.omega)
        self._coeffs = _theta_coefficients(q, reduced.omega.imag)
        self._coeff_logabs = [math.log(abs(c)) for c in self._coeffs]
        t1p = 2 * sum(c * (2 * k + 1) for k, c in enumerate(self._coeffs))
        t1ppp = -2 * sum(c * (2 * k + 1) ** 3 for k, c in enumerate(self._coeffs))
        self._log_t1p = cmath.log(t1p)
        self._log_prefactor = cmath.log(reduced.p1 / math.pi)
        eta1_red = -(math.pi**2) * t1ppp / (3 * reduced.p1 * t1p)
        eta2_red = (eta1_red * reduced.p2 - TAU * 1j) / reduced.p1
        self._eta_reduced = (eta1_red, eta2_red)

        if self.backend is Backend.DIRECT_PRODUCT:
            m, n = _shell_arrays(self.truncation_shells)
            self._product_points = m * lattice.p1 + n * lattice.p2
            self.eta1 = eta_from_sum(self._product_points, lattice.p1)
            self.eta2 = eta_from_sum(self._product_points, lattice.p2)
        else:
            self._product_points = None
            # [p1; p2] = det * [[d, -b], [-c, a]] [P1; P2] with integer entries
            (a, b), (c, d) = basis_matrix
            det = a * d - b * c
            self.eta1 = det * (d * eta1_red - b * eta2_red)
            self.eta2 = det * (-c * eta1_red + a * eta2_red)

    def _theta1_log(self, u: complex) -> complex:
        """Principal log of theta1(u | omega'), skipping negligible terms."""
        aiu = abs(u.imag)
        lead = self._coeff_logabs[0] + aiu
        total = 0j
        for k, c in enumerate(self._coeffs):
            if self._coeff_logabs[k] + (2 * k + 1) * aiu < lead - 50.0:
                break
            total += c * cmath.sin((2 * k + 1) * u)
        return cmath.log(2 * total)

    def _sigma_fast(self, z: complex) -> LogValue:
        red = self._reduced
        s, t = coordinates(z, red)
        m = math.floor(s + 0.5)
        n = math.floor(t + 0.5)
        lam = m * red.p1 + n * red.p2
        z0 = z - lam
        # z0 sits in the centered cell, so the only lattice point in range is 0
        if abs(z0) <= SNAP_TOL:
            return LogValue.zero()

        e1, e2 = self._eta_reduced
        u = math.pi * z0 / red.p1
        quad = e1 * z0 * z0 / (2 * red.p1)
        log_sigma = self._log_prefactor + self._theta1_log(u) - self._log_t1p + quad
        amplitude = abs(quad) + abs(u.imag)
        if m or n:
            eta_lam = m * e1 + n * e2
            corr = eta_lam * (z0 + lam / 2)
            log_sigma += corr
            amplitude += abs(corr)
            if (m % 2) or (n % 2):
                log_sigma += 1j * math.pi

        certified = _EPS * (10.0 + amplitude)
        if certified > self.target_rel_error:
            raise AccuracyNotMet(
                f"roundoff estimate {certified:.3e} exceeds target {self.target_rel_error:.3e}"
            )
        return LogValue.from_log(log_sigma)

    def _sigma_direct(self, z: complex) -> LogValue:
        if torus_distance(z, 0j, self.lattice) <= SNAP_TOL:
            return LogValue.zero()
        w = z / self._product_points
        terms = np.log1p(-w) + w + 0.5 * (w * w)
        total = complex(terms.sum()) + cmath.log(z)
        return LogValue.from_log(total)

    def a_priori_bound(self, z: complex) -> float:
        """Bound on the truncation error of log sigma at z.

        DirectProduct: per-point tail |log(1-w)+w+w^2/2| <= (2/3)|w|^3 for
        |w| <= 1/2 summed over shells beyond N gives (16/3)|z|^3/(c^3 N),
        valid once c*N >= 2|z|.  FastSeries: the configured target.
        """
        if self.backend is Backend.FAST_SERIES:
            return self.target_rel_error
        c, N = self._frame_dist, self.truncation_shells
        if c * N < 2 * abs(z):
            return math.inf
        return (16.0 / 3.0) * abs(z) ** 3 / (c**3 * N)


def sigma(ev: SigmaEvaluator, z: complex) -> LogValue:
    """sigma(z) in log form; exactly zero iff z lies on the lattice."""
    z = complex(z)
    if ev.backend is Backend.FAST_SERIES:
        return ev._sigma_fast(z)
    return ev._sigma_direct(z)


def eta(ev: SigmaEvaluator, j: int) -> complex:
    """Quasi-period eta_j with sigma(z + p_j) = -sigma(z) exp(eta_j (z + p_j/2))."""
    if j == 1:
        return ev.eta1
    if j == 2:
        return ev.eta2
    raise ValueError("j must be 1 or 2")
