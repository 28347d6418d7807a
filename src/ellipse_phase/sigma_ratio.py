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
from dataclasses import dataclass

from .lattice import Lattice, _unit_frame_distance
from .weierstrass import Backend, SigmaEvaluator, eta


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
    """Translation constant v_j = -xi0 * eta_j of the evaluator the method names."""
    xi0 = complex(xi0)
    if not cmath.isfinite(xi0):
        raise ValueError(f"xi0 {xi0} is not finite")
    method = VMethod(method)
    if method is VMethod.DIRECT_SUM and shells < 2:
        raise ValueError("truncation_shells must be at least 2 for direct")
    backend = Backend.DIRECT_PRODUCT if method is VMethod.DIRECT_SUM else Backend.FAST_SERIES
    v = -xi0 * eta(SigmaEvaluator(lat, backend, shells), j)
    if method is VMethod.VIA_ETA:
        return RatioConstant(v, method, 0, 1e-13 * (1.0 + abs(v)))
    pj = abs(lat.p1 if j == 1 else lat.p2)
    bound = abs(xi0) * pj**2 * _direct_sum_tail(lat, pj, shells) * 1.2
    return RatioConstant(v, method, shells, bound)
