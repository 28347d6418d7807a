"""The translation constant of the four-factor sigma ratio.

For any xi0 and either period p_j the ratio

    R_j(z) = [sigma(z) / sigma(z - xi0)] * [sigma(z - xi0 + p_j) / sigma(z + p_j)]

is independent of z and equals exp(v_j) with

    v_j = -3*xi0/p_j + xi0 * p_j^2 * sum_{lam in L \\ {0, -p_j}} 1/(lam (lam+p_j)^2).

Equivalently v_j = -eta_j * xi0 in terms of the quasi-period eta_j, and both
routes compute it that way: DirectSum is -xi0 times the eta_j of a
DirectProduct evaluator over the shells (its paired lattice sum has an
O(1/N^2) truncation tail); ViaEta reuses the theta-series quasi-period and is
the accurate default.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import PoleOrZeroHit
from .lattice import Lattice, _unit_frame_distance
from .weierstrass import MAX_SHELLS, Backend, SigmaEvaluator, _log_sigma, eta, wrap_angle


class VMethod(str, enum.Enum):
    DIRECT_SUM = "direct"
    VIA_ETA = "eta"


@dataclass(frozen=True)
class RatioConstant:
    """v_j for one (xi0, j), with the method and its a-priori error bound."""

    v: complex
    method: VMethod
    shells_used: int
    error_bound: float


def _direct_sum_tail(lat: Lattice, pj_abs: float, N: int) -> float:
    """Tail bound for the paired sum truncated at shell N.

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


def v_constant(
    lat: Lattice,
    xi0: complex,
    j: int,
    method: VMethod | str = VMethod.VIA_ETA,
    shells: int = 200,
) -> RatioConstant:
    """Translation constant v_j; linear in xi0 by either method."""
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    xi0 = complex(xi0)
    if not cmath.isfinite(xi0):
        raise ValueError(f"xi0 {xi0} is not finite")
    method = VMethod(method)
    low = 2 if method is VMethod.DIRECT_SUM else 1
    if not low <= shells <= MAX_SHELLS:
        raise ValueError(f"truncation_shells must be in [{low}, {MAX_SHELLS}] for {method.value}")
    pj = lat.p1 if j == 1 else lat.p2

    if method is VMethod.VIA_ETA:
        v = -eta(SigmaEvaluator(lat), j) * xi0
        return RatioConstant(v, method, 0, 1e-13 * (1.0 + abs(v)))

    v = -xi0 * eta(SigmaEvaluator(lat, Backend.DIRECT_PRODUCT, shells), j)
    bound = abs(xi0) * abs(pj) ** 2 * _direct_sum_tail(lat, abs(pj), shells) * 1.2
    return RatioConstant(v, method, shells, bound)


def _log_ratio(ev: SigmaEvaluator, xi0: complex, j: int, z: complex) -> complex:
    """log R_j(z), the four-sigma ratio, as an unwrapped sum of principal logs.

    Raises PoleOrZeroHit when any of the four sigma arguments lies on the
    lattice; the caller should resample z.
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    xi0 = complex(xi0)
    z = complex(z)
    pj = ev.lattice.p1 if j == 1 else ev.lattice.p2
    parts = [_log_sigma(ev, w) for w in (z, z - xi0, z - xi0 + pj, z + pj)]
    if None in parts:
        raise PoleOrZeroHit("a sigma argument lies on the lattice")
    return parts[0] - parts[1] + parts[2] - parts[3]


def ratio_residual(ev: SigmaEvaluator, xi0: complex, j: int, z: complex) -> float:
    """|R_j(z) * exp(-v_j) - 1| with v_j from the quasi-period route."""
    lr = _log_ratio(ev, xi0, j, z)
    v = -eta(ev, j) * complex(xi0)
    delta = complex(lr.real - v.real, wrap_angle(lr.imag - v.imag))
    if delta.real > 300.0:
        return math.inf
    return abs(cmath.exp(delta) - 1.0)
