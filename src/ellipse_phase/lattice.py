"""Period-pair arithmetic: the Z-module spanned by two R-independent complex periods.

Everything downstream works with a `Lattice` built by `make_lattice`.  Points are
reduced into the half-open cell {s*p1 + t*p2 : 0 <= s, t < 1}, or, by the one
nearest-lattice-point reduction, into the centred cell; sigma, congruent-factor
cancellation, the torus distance and the basis change of a Gauss-reduced basis all
read lattice vectors from it.  The module is plain-float geometry without numpy;
the shell list of the direct lattice sums lives in `weierstrass`, beside the
bounds that count its blocks.
"""

from __future__ import annotations

import cmath
import math

from .errors import DegenerateLattice, Value

#: Smallest |Im(p2/p1)| accepted before the pair counts as collinear.
DEGENERACY_EPS = 1e-12

#: Longest period accepted.  The DirectSum tail bound of `vj --method direct`
#: takes the fourth power of a period, and 1e75**4 stays below the largest double.
MAX_PERIOD = 1e75

#: Points closer than this mod L are the same point (lattice points: exact zeros).
SNAP_TOL = 1e-12


class Lattice(Value):
    """Periods p1, p2 with Im(p2/p1) != 0, plus the cached ratio omega = p2/p1."""

    __slots__ = ("p1", "p2", "omega")


def make_lattice(p1: complex, p2: complex) -> Lattice:
    """Build a lattice from a period pair, rejecting (near-)real ratios, tiny and huge periods."""
    p1 = complex(p1)
    p2 = complex(p2)
    if not (cmath.isfinite(p1) and cmath.isfinite(p2)):
        raise DegenerateLattice("periods must be finite")
    if min(abs(p1), abs(p2)) < 1e6 * SNAP_TOL:
        # below this scale SNAP_TOL, which is absolute, merges distinct points
        raise DegenerateLattice(f"periods must be at least {1e6 * SNAP_TOL:g} long")
    if max(abs(p1), abs(p2)) > MAX_PERIOD:
        raise DegenerateLattice(f"periods must be at most {MAX_PERIOD:g} long")
    omega = p2 / p1
    if abs(omega.imag) < DEGENERACY_EPS:
        raise DegenerateLattice(f"period ratio {omega} is too close to real")
    return Lattice(p1, p2, omega)


def coordinates(z: complex, lat: Lattice) -> tuple[float, float]:
    """Real coordinates (s, t) with z = s*p1 + t*p2; a non-finite z is a ValueError."""
    if not cmath.isfinite(z):
        raise ValueError(f"point {z} is not finite")
    w = z / lat.p1
    t = w.imag / lat.omega.imag
    s = w.real - t * lat.omega.real
    return s, t


def nearest_lattice_point(z: complex, lat: Lattice) -> tuple[int, int, complex]:
    """(m, n, lam = m*p1 + n*p2) with the coordinates of z - lam in [-1/2, 1/2)."""
    s, t = coordinates(z, lat)
    m = math.floor(s + 0.5)
    n = math.floor(t + 0.5)
    return m, n, m * lat.p1 + n * lat.p2


def reduce_to_cell(z: complex, lat: Lattice) -> complex:
    """Reduce z into the half-open fundamental cell.

    Returns the representative z0 = z - m*p1 - n*p2 (integers m, n) whose
    coordinates lie in [0, 1)^2.
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
    return z0


def torus_distance(a: complex, b: complex, lat: Lattice) -> float:
    """|a - b - lam| for lam the nearest_lattice_point of a - b; the torus distance when small."""
    d = complex(a) - complex(b)
    return abs(d - nearest_lattice_point(d, lat)[2])


def reduce_basis(lat: Lattice) -> Lattice:
    """Gauss/Lagrange-reduce the basis of the same module.

    The reduced pair (P1, P2) satisfies |Re(P2/P1)| <= 1/2 and |P2/P1| >= 1,
    and is oriented so Im(P2/P1) > 0.  `nearest_lattice_point(P_j, lat)` gives
    its integer coordinates in the old basis.
    """
    a, b = lat.p1, lat.p2
    if abs(b) < abs(a):
        a, b = b, a
    for _ in range(64):
        mu = round((b * a.conjugate()).real / abs(a) ** 2)
        if mu:
            b = b - mu * a
        if abs(b) < abs(a):
            a, b = b, a
        else:
            break
    if (b / a).imag < 0:
        b = -b
    return make_lattice(a, b)
