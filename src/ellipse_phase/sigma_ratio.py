"""The translation constant of the four-factor sigma ratio.

For any xi0 and either period p_j the ratio

    R_j(z) = [sigma(z) / sigma(z - xi0)] * [sigma(z - xi0 + p_j) / sigma(z + p_j)]

is independent of z and equals exp(v_j) with

    v_j = -3*xi0/p_j + xi0 * p_j^2 * sum_{lam in L \\ {0, -p_j}} 1/(lam (lam+p_j)^2).

Equivalently v_j = -eta_j * xi0 in terms of the quasi-period eta_j, and both
routes compute it that way: DirectSum takes eta_j from the paired lattice sum
`weierstrass.eta_from_sum` over the shells (the same sum the DirectProduct
evaluator uses for its eta, with an O(1/N^2) truncation tail); ViaEta reuses
the theta-series quasi-period and is the accurate default.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import PoleOrZeroHit
from .lattice import Lattice, _shell_arrays, _unit_frame_distance
from .weierstrass import SigmaEvaluator, eta, eta_from_sum, sigma, wrap_angle


class VMethod(str, enum.Enum):
    DIRECT_SUM = "direct"
    VIA_ETA = "eta"


@dataclass(frozen=True)
class RatioConstant:
    """v_j for one (xi0, j), with the method and its a-priori error bound."""

    xi0: complex
    j: int
    v: complex
    method: VMethod
    shells_used: int
    error_bound: float


def _direct_sum_tail(lat: Lattice, pj_abs: float, N: int) -> float:
    """Tail bound for the paired sum truncated at shell N.

    Shell k has 8k points with |lam| >= c*k and |lam + p_j| >= c*(k-1) (the
    shifted point keeps sup-norm >= k-1), each contributing half a paired term.
    Fully-outside orbits plus the boundary-straddling ring give O(1/N^2).
    """
    c = _unit_frame_distance(lat)
    tail = sum(
        8 * k * pj_abs / (2 * (c * k) ** 2 * (c * (k - 1)) ** 2)
        for k in range(N, N + 2000)
    )
    tail += 4 * pj_abs / (c**4 * (N + 2000) ** 2)
    return tail


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
    method = VMethod(method)
    pj = lat.p1 if j == 1 else lat.p2

    if method is VMethod.VIA_ETA:
        v = -eta(SigmaEvaluator(lat), j) * xi0
        return RatioConstant(xi0, j, v, method, 0, 1e-13 * (1.0 + abs(v)))

    if shells < 2:
        raise ValueError("DirectSum needs shells >= 2")
    m, n = _shell_arrays(shells)
    v = -xi0 * eta_from_sum(m * lat.p1 + n * lat.p2, pj)
    bound = abs(xi0) * abs(pj) ** 2 * _direct_sum_tail(lat, abs(pj), shells) * 1.2
    return RatioConstant(xi0, j, v, method, shells, bound)


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
    parts = [sigma(ev, w) for w in (z, z - xi0, z - xi0 + pj, z + pj)]
    if any(p.is_zero() for p in parts):
        raise PoleOrZeroHit("a sigma argument lies on the lattice")
    return parts[0].log() - parts[1].log() + parts[2].log() - parts[3].log()


def ratio_residual(ev: SigmaEvaluator, xi0: complex, j: int, z: complex) -> float:
    """|R_j(z) * exp(-v_j) - 1| with v_j from the quasi-period route."""
    lr = _log_ratio(ev, xi0, j, z)
    v = -eta(ev, j) * complex(xi0)
    delta = complex(lr.real - v.real, wrap_angle(lr.imag - v.imag))
    if delta.real > 300.0:
        return math.inf
    return abs(cmath.exp(delta) - 1.0)
