"""Period-pair arithmetic: the Z-module spanned by two R-independent complex periods.

Everything downstream works with a `Lattice` built by `make_lattice`.  Points are
reduced into the half-open fundamental cell {s*p1 + t*p2 : 0 <= s, t < 1}, lattice
points are enumerated by sup-norm shells of their integer coordinates, and the
basis can be Gauss-reduced for numerical conditioning.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateLattice

#: Smallest |Im(p2/p1)| accepted before the pair counts as collinear.
DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class Lattice:
    """Periods p1, p2 with Im(p2/p1) != 0, plus the cached ratio omega = p2/p1."""

    p1: complex
    p2: complex
    omega: complex


@dataclass(frozen=True)
class CellCoordinates:
    """Cell representative z0 and integers (m, n) with z = z0 + m*p1 + n*p2."""

    z0: complex
    m: int
    n: int


def make_lattice(p1: complex, p2: complex, degeneracy_eps: float = DEGENERACY_EPS) -> Lattice:
    """Build a lattice from a period pair, rejecting (near-)real ratios."""
    p1 = complex(p1)
    p2 = complex(p2)
    if not (cmath.isfinite(p1) and cmath.isfinite(p2)):
        raise DegenerateLattice("periods must be finite")
    if p1 == 0 or p2 == 0:
        raise DegenerateLattice("periods must be nonzero")
    omega = p2 / p1
    if abs(omega.imag) < degeneracy_eps:
        raise DegenerateLattice(f"period ratio {omega} is too close to real")
    return Lattice(p1, p2, omega)


def coordinates(z: complex, lat: Lattice) -> tuple[float, float]:
    """Real coordinates (s, t) with z = s*p1 + t*p2."""
    w = z / lat.p1
    t = w.imag / lat.omega.imag
    s = w.real - t * lat.omega.real
    return s, t


def reduce_to_cell(z: complex, lat: Lattice) -> CellCoordinates:
    """Reduce z into the half-open fundamental cell.

    Total function: returns the representative z0 with coordinates in [0, 1)^2
    and the integers (m, n) such that z = z0 + m*p1 + n*p2.
    """
    z = complex(z)
    s, t = coordinates(z, lat)
    m = math.floor(s)
    n = math.floor(t)
    # rounding can leave the representative marginally outside [0, 1)^2
    for _ in range(4):
        z0 = z - m * lat.p1 - n * lat.p2
        s0, t0 = coordinates(z0, lat)
        dm = math.floor(s0)
        dn = math.floor(t0)
        if dm == 0 and dn == 0:
            break
        m += dm
        n += dn
    return CellCoordinates(z0, m, n)


def torus_distance(a: complex, b: complex, lat: Lattice) -> float:
    """Distance between a and b on the torus C/L (exact for small separations)."""
    cc = reduce_to_cell(a - b, lat)
    return min(
        abs(cc.z0 - (i * lat.p1 + j * lat.p2))
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
    )


@lru_cache(maxsize=8)
def _shell_arrays(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer coordinates (m, n) of the nonzero lattice points with shell index <= N.

    Shell k holds the points with max(|m|, |n|) = k; shells come in increasing
    k and are sorted by (m, n) within a shell.  (0, 0) is excluded.  Cached
    and shared; treat the returned arrays as read-only.
    """
    r = np.arange(-N, N + 1)
    m, n = np.meshgrid(r, r, indexing="ij")
    m = m.ravel()
    n = n.ravel()
    k = np.maximum(np.abs(m), np.abs(n))
    keep = k > 0
    m, n, k = m[keep], n[keep], k[keep]
    order = np.lexsort((n, m, k))
    return m[order], n[order]


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


def reduce_basis(lat: Lattice) -> tuple[Lattice, tuple[tuple[int, int], tuple[int, int]]]:
    """Gauss/Lagrange-reduce the basis; returns the new lattice and basis matrix.

    The reduced pair (P1, P2) generates the same module, satisfies
    |Re(P2/P1)| <= 1/2 and |P2/P1| >= 1, and is oriented so Im(P2/P1) > 0.
    The returned integer matrix ((a, b), (c, d)) has determinant +-1 and
    expresses the new basis in the old one: P1 = a*p1 + b*p2, P2 = c*p1 + d*p2.
    """
    a, b = lat.p1, lat.p2
    ua, ub = (1, 0), (0, 1)
    if abs(b) < abs(a):
        a, b, ua, ub = b, a, ub, ua
    for _ in range(64):
        mu = round((b * a.conjugate()).real / abs(a) ** 2)
        if mu:
            b = b - mu * a
            ub = (ub[0] - mu * ua[0], ub[1] - mu * ua[1])
        if abs(b) < abs(a):
            a, b, ua, ub = b, a, ub, ua
        else:
            break
    if (b / a).imag < 0:
        b = -b
        ub = (-ub[0], -ub[1])
    return make_lattice(a, b), (ua, ub)
