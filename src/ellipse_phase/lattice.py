"""Period-pair arithmetic: the Z-module spanned by two R-independent complex periods.

Everything downstream works with a `Lattice` built by `make_lattice`.  Points are
reduced into the half-open cell {s*p1 + t*p2 : 0 <= s, t < 1}, or, by the one
nearest-lattice-point reduction, into the centred cell; sigma, congruent-factor
cancellation, the torus distance and the basis change of a Gauss-reduced basis all
read lattice vectors from it.  Lattice points are enumerated by sup-norm shells of
their integer coordinates, one point of every pair {lam, -lam}.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import DegenerateLattice, Value, set_field

# type checkers honour this as typing.TYPE_CHECKING, whose import costs ~4 ms of start-up
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

#: Smallest |Im(p2/p1)| accepted before the pair counts as collinear.
DEGENERACY_EPS = 1e-12

#: Longest period accepted.  The DirectSum tail bound of `vj --method direct`
#: takes the fourth power of a period, and 1e75**4 stays below the largest double.
MAX_PERIOD = 1e75

#: Points closer than this mod L are the same point (lattice points: exact zeros).
SNAP_TOL = 1e-12

#: Points per block of a lattice sum.  The allocator reuses temporaries of this
#: size from call to call; full-length ones were mapped and page-faulted in afresh
#: (~2,400 faults and twice the time for a direct sigma and two etas at 200 shells,
#: on a 2-vCPU Xeon).
SHELL_BLOCK = 8192


class Lattice(Value):
    """Periods p1, p2 with Im(p2/p1) != 0, plus the cached ratio omega = p2/p1."""

    __slots__ = ("p1", "p2", "omega")

    def __init__(self, p1: complex, p2: complex, omega: complex):
        set_field(self, "p1", p1)
        set_field(self, "p2", p2)
        set_field(self, "omega", omega)


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


@lru_cache(maxsize=8)
def _shell_arrays(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer coordinates (m, n) of one point of every pair {lam, -lam} with shell index <= N.

    Shell k holds the points with max(|m|, |n|) = k; of each pair only the one
    with m > 0, or m == 0 and n > 0, is kept, so shell k contributes 4k points,
    starting at index 2k(k-1), and the list 2N(N+1).  Shells come in increasing
    k and are sorted by (m, n) within a shell.  The shell set is symmetric under
    lam -> -lam, so a lattice sum folds the mirror term into its summand.  The
    coordinates are stored as float64, exact integers that multiply a complex
    period without a cast.  Cached and shared; treat the returned arrays as
    read-only.
    """
    import numpy as np

    m, n = np.meshgrid(np.arange(N + 1.0), np.arange(-N, N + 1.0), indexing="ij")
    m = m.ravel()
    n = n.ravel()
    keep = (m > 0) | (n > 0)
    m, n = m[keep], n[keep]
    order = np.lexsort((n, m, np.maximum(m, np.abs(n))))
    return m[order], n[order]


def _point_blocks(N: int, a: complex, b: complex, skip: tuple[int, int] | None = None):
    """Yield m*a + n*b over `_shell_arrays(N)`, in blocks of at most SHELL_BLOCK points.

    skip, if given, is the (m, n) of one point to leave out.  It lies in shell
    k = max(|m|, |n|), indices [2k(k-1), 2k(k+1)) of the list, so only the
    blocks that overlap that range are masked.  Each block is a fresh array the
    caller may overwrite.
    """
    m, n = _shell_arrays(N)
    lo = hi = 0
    if skip is not None:
        k = max(abs(skip[0]), abs(skip[1]))
        lo, hi = 2 * k * (k - 1), 2 * k * (k + 1)
    for i in range(0, len(m), SHELL_BLOCK):
        mb, nb = m[i : i + SHELL_BLOCK], n[i : i + SHELL_BLOCK]
        if i < hi and lo < i + SHELL_BLOCK:
            keep = (mb != skip[0]) | (nb != skip[1])
            mb, nb = mb[keep], nb[keep]
        points = mb * a
        points += nb * b
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
