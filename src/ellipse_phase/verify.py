"""Numerical verification: phase periodicity, winding counts, and divisor sums.

The periodicity check only needs a black-box evaluator returning LogValue (or
PoleValue at poles).  Contour work integrates f'/f and z*f'/f over the
boundary of the reduced cell, which gives the divisor sum mod L as any cell
does, with composite Gauss-Legendre panels.  `verify_spec` integrates the exact
f'/f = A + sum zeta(z - n_k) - sum zeta(z - d_k) of the spec's evaluation form,
one evaluation per node.  Only a black-box fval, as `count_zeros_poles` takes,
gets f'/f from central differences of log f, with phase increments wrapped to
(-pi, pi], which stays finite where |f| overflows and never loses 2*pi jumps
at the step scale.
"""

from __future__ import annotations

import math

from .errors import AccuracyNotMet, ContourTooClose, PoleOrZeroHit, Value
from .lattice import Lattice, coordinates, reduce_basis, reduce_to_cell, torus_distance
from .synthesis import PhaseFunctionSpec, eval_f
from .weierstrass import LOG_NORMAL_RANGE, TAU, PoleValue, log_derivative, wrap_angle

#: least clearance between the contour and any known zero/pole, as a fraction
#: of the shortest period |P1|.  Quadrature error decays like
#: (1 + 2*clearance/panel)^(-2*nodes); the contour's cell is the reduced one,
#: whose sides are the shortest pair of periods, so its panels are the shortest.
CLEARANCE_FRACTION = 0.01

#: central-difference step for a black box's f'/f along a contour side, as a fraction
#: of the shortest period, so the difference keeps its accuracy at every lattice scale.
FD_STEP = 1e-5

#: Most grid points phase_periodicity may sample per period.
MAX_GRID = 1000 * 1000


class GridSpec(Value):
    """Sampling grid over the fundamental cell; `seed` is accepted and ignored."""

    __slots__ = ("lattice", "nx", "ny", "seed")

    def __init__(self, lattice: Lattice, nx: int = 10, ny: int = 10, seed: int = 42):
        if nx < 1 or ny < 1:
            raise ValueError("grid must have at least one point per direction")
        if nx * ny > MAX_GRID:
            raise ValueError(f"grid must have at most MAX_GRID = {MAX_GRID} points")
        super().__init__(lattice, nx, ny, seed)


class QuadratureSpec(Value):
    """Gauss-Legendre panels along each cell side; `seed` is accepted and ignored."""

    __slots__ = ("panels_per_side", "nodes_per_panel", "seed")

    def __init__(self, panels_per_side: int = 32, nodes_per_panel: int = 8, seed: int = 1337):
        if panels_per_side < 1 or nodes_per_panel < 2:
            raise ValueError("need >= 1 panel per side and >= 2 nodes per panel")
        super().__init__(panels_per_side, nodes_per_panel, seed)


class ContourCount(Value):
    """One contour pass: zeros minus poles, the raw integrals, diagnostics.

    raw_winding = (1/2*pi*i) * integral of f'/f dz     -> zeros minus poles
    raw_moment  = (1/2*pi*i) * integral of z f'/f dz   -> zero sum minus pole sum
    Both are over d(F + offset), F the reduced cell, and unreduced; for equal
    zero/pole counts the moment mod L is the same for every cell and offset.
    """

    __slots__ = ("zeros_minus_poles", "raw_winding", "integer_distance", "raw_moment", "offset")


class VerificationReport(Value):
    """What `verify_spec` measured; `jsonio.report_to_obj` writes the fields in this order."""

    __slots__ = (
        "phase_residual_p1",
        "phase_residual_p2",
        "multiplier1",
        "multiplier2",
        "zero_count",
        "pole_count",
        "divisor_sum_mod_L",
        "xi0_recovered",
        "samples_used",
        "contour_offset",
        "winding_distance",
        "reliable",
    )


def _is_marker(value) -> bool:
    return isinstance(value, PoleValue) or value.is_zero() or not math.isfinite(value.log_mag)


def _largest_gap(values) -> tuple[float, float]:
    """Midpoint, in [0, 1), and width of the widest gap of `values` mod 1; (1/2, 1) if none."""
    xs = sorted(v % 1.0 for v in values)
    if not xs:
        return 0.5, 1.0
    gap, a = max((b - a, a) for a, b in zip(xs, xs[1:] + [xs[0] + 1.0]))
    return (a + gap / 2) % 1.0, gap


def phase_periodicity(fval, p: complex, grid: GridSpec, known_points=()) -> tuple[float, complex]:
    """Residual and mean of log f(z+p) - log f(z) over a cell grid.

    The mean is the log multiplier, real for a doubly periodic phase.  The
    residual is the largest distance of an individual difference from the real
    part of the mean, measured in the log domain with phase differences wrapped
    to (-pi, pi], so a phase that turns by the same angle at every grid point
    (f(z + p) = i*f(z), say) counts in it as that angle.  The grid is
    (i + a)/nx * p1 + (k + b)/ny * p2, with a and b the largest-gap midpoints of
    frac(nx*s) and frac(ny*t) over the known points' coordinates (s, t), so no
    grid point or lattice translate of one lands on a known point; without
    known points a = b = 1/2, the cell-centred grid.  A grid point that still
    hits a zero or pole raises PoleOrZeroHit.
    """
    lat = grid.lattice
    coords = [coordinates(w, lat) for w in known_points]
    a = _largest_gap(grid.nx * s for s, _ in coords)[0]
    b = _largest_gap(grid.ny * t for _, t in coords)[0]
    diffs: list[complex] = []
    for i in range(grid.nx):
        for k in range(grid.ny):
            z = (i + a) / grid.nx * lat.p1 + (k + b) / grid.ny * lat.p2
            va = fval(z)
            vb = fval(z + p)
            if _is_marker(va) or _is_marker(vb):
                raise PoleOrZeroHit(f"grid point {z} or its translate hit a zero/pole")
            diffs.append(
                complex(vb.log_mag - va.log_mag, wrap_angle(vb.phase - va.phase))
            )
    mean = sum(diffs) / len(diffs)
    residual = max(abs(d - mean.real) for d in diffs)
    return residual, mean


def _legendre_rule(n: int) -> tuple[list[float], list[float]]:
    """The n-point Gauss-Legendre rule on [-1, 1]: nodes in ascending order, and weights.

    Newton on P_n from cos(pi*(k + 3/4)/(n + 1/2)) gives the k-th largest root
    x; its mirror -x is the root of the same rank from below, and both take the
    weight 2/((1 - x^2) P_n'(x)^2).  The weights are then scaled to sum to 2.
    """
    x = [0.0] * n
    w = [0.0] * n
    for k in range((n + 1) // 2):
        r = math.cos(math.pi * (k + 0.75) / (n + 0.5))
        for _ in range(100):
            # P_n(r) and P_{n-1}(r) by the three-term recurrence, then P_n'(r)
            p0, p1 = 1.0, r
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * r * p1 - (j - 1) * p0) / j
            dp = n * (r * p1 - p0) / (r * r - 1.0)
            step = p1 / dp
            r -= step
            if abs(step) <= 1e-15:
                break
        x[k], x[n - 1 - k] = -r, r
        w[k] = w[n - 1 - k] = 2.0 / ((1.0 - r * r) * dp * dp)
    if n % 2:
        x[n // 2] = 0.0
    total = sum(w)
    return x, [2.0 * wk / total for wk in w]


def _gauss_nodes(quad: QuadratureSpec) -> tuple[list[float], list[float]]:
    """Nodes t in (0, 1) along a side, and their weights: the Gauss-Legendre rule on each panel."""
    x, w = _legendre_rule(quad.nodes_per_panel)
    P = quad.panels_per_side
    t = [(p + (xk + 1.0) / 2.0) / P for p in range(P) for xk in x]
    weights = [wk / (2.0 * P) for _ in range(P) for wk in w]
    return t, weights


def _log_derivative(fval, z: complex, direction: complex, h: float) -> complex:
    """(log f)'(z) by a central difference along a unit direction."""
    va = fval(z + h * direction)
    vb = fval(z - h * direction)
    if _is_marker(va) or _is_marker(vb):
        raise PoleOrZeroHit("finite-difference stencil hit a zero/pole")
    diff = complex(va.log_mag - vb.log_mag, wrap_angle(va.phase - vb.phase))
    return diff / (2.0 * h * direction)


def _place_contour(lat: Lattice, known_points) -> tuple[Lattice, complex, float]:
    """The reduced basis (P1, P2), the contour's offset and its clearance from the known points.

    The offset's coordinates (s0, t0) on (P1, P2) are the largest-gap midpoints
    of the known points' coordinates, in [-1/2, 1/2].  The contour's sides and
    their translates are the lines s = s0 and t = t0 (mod 1), area/|P2| and
    area/|P1| apart, so each known point keeps half the gap width times that.
    """
    red = reduce_basis(lat)
    coords = [coordinates(w, red) for w in known_points]
    s0, width_s = _largest_gap(s for s, _ in coords)
    t0, width_t = _largest_gap(t for _, t in coords)
    area = abs((red.p1.conjugate() * red.p2).imag)
    clearance = min(width_s * area / abs(red.p2), width_t * area / abs(red.p1)) / 2
    offset = math.remainder(s0, 1.0) * red.p1 + math.remainder(t0, 1.0) * red.p2
    return red, offset, clearance


def _contour_pass(dlog, lat: Lattice, quad: QuadratureSpec, known_points) -> ContourCount:
    """One argument-principle pass over `_place_contour`'s cell with f'/f = dlog(z, direction).

    direction is the unit tangent of the side through z.  A clearance below
    CLEARANCE_FRACTION * |P1| raises ContourTooClose.
    """
    red, offset, clearance = _place_contour(lat, known_points)
    least = CLEARANCE_FRACTION * abs(red.p1)
    if clearance < least:
        raise ContourTooClose(f"contour clearance {clearance:.3g} is below {least:.3g}")
    t, weights = _gauss_nodes(quad)
    corners = [offset, offset + red.p1, offset + red.p1 + red.p2, offset + red.p2]
    edges = [red.p1, red.p2, -red.p1, -red.p2]
    winding = moment = 0j
    for corner, edge in zip(corners, edges):
        direction = edge / abs(edge)
        for tk, wk in zip(t, weights):
            z = corner + tk * edge
            psi = dlog(z, direction)
            winding += wk * psi * edge
            moment += wk * z * psi * edge
    winding /= TAU * 1j
    nearest = round(winding.real)
    return ContourCount(nearest, winding, abs(winding - nearest), moment / (TAU * 1j), offset)


def count_zeros_poles(
    fval,
    lat: Lattice,
    offset: complex,
    quad: QuadratureSpec = QuadratureSpec(),
    known_points=(),
) -> ContourCount:
    """`_contour_pass` for a black-box fval: winding and moment of f'/f.

    f'/f comes from central differences of log f, two evaluations per node.
    The winding is 0 for a doubly periodic phase.  `offset` is accepted and
    ignored: the contour places its own.
    """
    step = FD_STEP * abs(reduce_basis(lat).p1)
    dlog = lambda z, direction: _log_derivative(fval, z, direction, step)
    return _contour_pass(dlog, lat, quad, known_points)


def _multiplier(j: int, alpha: float) -> float:
    """exp(alpha_j), or AccuracyNotMet where it leaves the normal double range."""
    low, high = LOG_NORMAL_RANGE
    if not low <= alpha <= high:
        raise AccuracyNotMet(
            f"exp(alpha{j}) leaves the normal double range: alpha{j} = {alpha:.6g}"
        )
    return math.exp(alpha)


def verify_spec(
    spec: PhaseFunctionSpec,
    grid: GridSpec | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> VerificationReport:
    """Full report for a synthesized function: periodicity, winding, divisor sum.

    The contour integrates the exact f'/f of `spec.quotient`.
    """
    lat = spec.lattice
    if grid is None:
        grid = GridSpec(lat)
    fval = lambda z: eval_f(spec, spec.ev, z)

    known = [p for p, _ in spec.divisor.zeros] + [p for p, _ in spec.divisor.poles]
    res1, mult1 = phase_periodicity(fval, lat.p1, grid, known)
    res2, mult2 = phase_periodicity(fval, lat.p2, grid, known)
    dlog = lambda z, _: log_derivative(spec.quotient, spec.ev, z)
    count = _contour_pass(dlog, lat, quad, known)

    zero_count = spec.divisor.zero_count()
    return VerificationReport(
        phase_residual_p1=res1,
        phase_residual_p2=res2,
        multiplier1=_multiplier(1, mult1.real),
        multiplier2=_multiplier(2, mult2.real),
        zero_count=zero_count,
        pole_count=zero_count - count.zeros_minus_poles,
        divisor_sum_mod_L=reduce_to_cell(count.raw_moment, lat),
        xi0_recovered=reduce_to_cell(-count.raw_moment, lat),
        samples_used=grid.nx * grid.ny,
        contour_offset=count.offset,
        winding_distance=count.integer_distance,
        reliable=count.integer_distance < 0.1,
    )


def failed_checks(
    report: VerificationReport, spec: PhaseFunctionSpec, tol: float = 1e-6
) -> list[tuple[str, float, float]]:
    """(name, value, limit) of each check of `report` against `spec` that fails at tol.

    The phase residuals, the misses |log multiplier_j - alpha_j| and the torus
    distance from xi0_recovered to xi0 must be at most tol; the winding
    distance must be below 0.1 (`reliable`); the zero and pole counts must
    agree, so their gap must be at most 0.
    """
    res1, res2 = report.phase_residual_p1, report.phase_residual_p2
    miss1 = abs(math.log(report.multiplier1) - spec.alpha1)
    miss2 = abs(math.log(report.multiplier2) - spec.alpha2)
    gap = abs(report.zero_count - report.pole_count)
    xi0_miss = torus_distance(report.xi0_recovered, spec.xi0, spec.lattice)
    checks = [
        ("phase_residual_p1", res1, tol, res1 <= tol),
        ("phase_residual_p2", res2, tol, res2 <= tol),
        ("alpha1_miss", miss1, tol, miss1 <= tol),
        ("alpha2_miss", miss2, tol, miss2 <= tol),
        ("winding_distance", report.winding_distance, 0.1, report.reliable),
        ("zero_pole_gap", gap, 0, gap == 0),
        ("xi0_miss", xi0_miss, tol, xi0_miss <= tol),
    ]
    return [(name, value, limit) for name, value, limit, passed in checks if not passed]


def report_passes(report: VerificationReport, spec: PhaseFunctionSpec, tol: float = 1e-6) -> bool:
    """Tolerance gate used for the CLI exit code: no check of `failed_checks` fails."""
    return not failed_checks(report, spec, tol)
