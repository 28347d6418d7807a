"""Numerical verification: phase periodicity, winding counts, and divisor sums.

The periodicity check only needs a black-box evaluator returning LogValue (or
PoleValue at poles).  Contour work integrates f'/f and z*f'/f over the
boundary of an offset fundamental cell with composite Gauss-Legendre panels.
`verify_spec` integrates the exact f'/f = A + sum zeta(z - n_k) - sum
zeta(z - d_k) of the spec's evaluation form, one evaluation per node.  Only a
black-box fval, as `count_zeros_poles` takes, gets f'/f from central
differences of log f, with phase increments wrapped to (-pi, pi], which stays
finite where |f| overflows and never loses 2*pi jumps at the step scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .divisor import PoleValue, log_derivative
from .errors import AccuracyNotMet, ContourTooClose, PoleOrZeroHit
from .lattice import Lattice, coordinates, reduce_basis, reduce_to_cell, torus_distance
from .synthesis import PhaseFunctionSpec, eval_f
from .weierstrass import LOG_NORMAL_RANGE, TAU, wrap_angle

if TYPE_CHECKING:
    import numpy as np

#: required clearance between the contour and any known zero/pole, as a
#: fraction of the shorter period.  Quadrature error decays like
#: (1 + 2*clearance/panel)^(-2*nodes): small only while the panel length is not
#: much larger than the clearance, which elongated cells break at 32 panels.
CLEARANCE_FRACTION = 0.01

#: central-difference step for a black box's f'/f along a contour side, as a fraction
#: of the shortest period, so the difference keeps its accuracy at every lattice scale.
FD_STEP = 1e-5

#: Most grid points phase_periodicity may sample per period.
MAX_GRID = 1000 * 1000


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid over the fundamental cell; `seed` is accepted and ignored."""

    lattice: Lattice
    nx: int = 10
    ny: int = 10
    seed: int = 42

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one point per direction")
        if self.nx * self.ny > MAX_GRID:
            raise ValueError(f"grid must have at most MAX_GRID = {MAX_GRID} points")


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre panels along each cell side; `seed` is accepted and ignored."""

    panels_per_side: int = 32
    nodes_per_panel: int = 8
    seed: int = 1337

    def __post_init__(self):
        if self.panels_per_side < 1 or self.nodes_per_panel < 2:
            raise ValueError("need >= 1 panel per side and >= 2 nodes per panel")


@dataclass(frozen=True)
class ContourCount:
    """One contour pass: zeros minus poles, the raw integrals, diagnostics.

    raw_winding = (1/2*pi*i) * integral of f'/f dz     -> zeros minus poles
    raw_moment  = (1/2*pi*i) * integral of z f'/f dz   -> zero sum minus pole sum
    Both are over d(F + offset) and unreduced; for equal zero/pole counts the
    moment is translation invariant mod L.
    """

    zeros_minus_poles: int
    raw_winding: complex
    integer_distance: float
    raw_moment: complex
    offset: complex


@dataclass(frozen=True)
class VerificationReport:
    phase_residual_p1: float
    phase_residual_p2: float
    multiplier1: float
    multiplier2: float
    zero_count: int
    pole_count: int
    divisor_sum_mod_L: complex
    xi0_recovered: complex
    samples_used: int
    contour_offset: complex
    winding_distance: float
    reliable: bool


def _is_marker(value) -> bool:
    return isinstance(value, PoleValue) or value.is_zero() or not math.isfinite(value.log_mag)


def _gap_midpoint(values) -> float:
    """Midpoint, in [0, 1), of the largest circular gap among `values` mod 1; 1/2 if none."""
    xs = sorted(v % 1.0 for v in values)
    if not xs:
        return 0.5
    gap, a = max((b - a, a) for a, b in zip(xs, xs[1:] + [xs[0] + 1.0]))
    return (a + gap / 2) % 1.0


def phase_periodicity(fval, p: complex, grid: GridSpec, known_points=()) -> tuple[float, complex]:
    """Spread and mean of log f(z+p) - log f(z) over a cell grid.

    The mean is the log multiplier (real for a doubly periodic phase); the
    residual is the largest deviation of an individual difference from the
    mean, measured in the log domain with phase differences wrapped to
    (-pi, pi].  The grid is (i + a)/nx * p1 + (k + b)/ny * p2, with a and b the
    largest-gap midpoints of frac(nx*s) and frac(ny*t) over the known points'
    coordinates (s, t), so no grid point or lattice translate of one lands on a
    known point; without known points a = b = 1/2, the cell-centred grid.  A
    grid point that still hits a zero or pole raises PoleOrZeroHit.
    """
    lat = grid.lattice
    coords = [coordinates(w, lat) for w in known_points]
    a = _gap_midpoint(grid.nx * s for s, _ in coords)
    b = _gap_midpoint(grid.ny * t for _, t in coords)
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
    residual = max(abs(d - mean) for d in diffs)
    return residual, mean


def _gauss_nodes(quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(quad.nodes_per_panel)
    P = quad.panels_per_side
    t = ((np.arange(P)[:, None] + (x[None, :] + 1.0) / 2.0) / P).ravel()
    weights = np.tile(w / (2.0 * P), P)
    return t, weights


def _log_derivative(fval, z: complex, direction: complex, h: float) -> complex:
    """(log f)'(z) by a central difference along a unit direction."""
    va = fval(z + h * direction)
    vb = fval(z - h * direction)
    if _is_marker(va) or _is_marker(vb):
        raise PoleOrZeroHit("finite-difference stencil hit a zero/pole")
    diff = complex(va.log_mag - vb.log_mag, wrap_angle(va.phase - vb.phase))
    return diff / (2.0 * h * direction)


def _contour_clear(lat: Lattice, offset: complex, known_points, clearance: float) -> bool:
    """Whether every known point keeps `clearance` from d(F + offset) and its translates.

    Those are the lines s = s0 and t = t0 (mod 1) through the offset's
    coordinates (s0, t0), spaced area/|p2| and area/|p1| apart.
    """
    s0, t0 = coordinates(offset, lat)
    area = abs((lat.p1.conjugate() * lat.p2).imag)
    for p in known_points:
        s, t = coordinates(p, lat)
        gap_s = abs(math.remainder(s - s0, 1.0)) * area / abs(lat.p2)
        gap_t = abs(math.remainder(t - t0, 1.0)) * area / abs(lat.p1)
        if min(gap_s, gap_t) < clearance:
            return False
    return True


def _contour_pass(dlog, lat: Lattice, offset: complex, quad: QuadratureSpec, known_points) -> ContourCount:
    """One argument-principle pass over d(F + offset) with f'/f = dlog(z, direction).

    direction is the unit tangent of the side through z.  The offset must clear
    the known zeros/poles geometrically; an integrand that hits one
    (PoleOrZeroHit) rejects it too.  A rejected offset is replaced once, by the
    one whose coordinates are the largest-gap midpoints of the known points'
    coordinates, taken in [-1/2, 1/2].
    """
    t, weights = _gauss_nodes(quad)
    clearance = CLEARANCE_FRACTION * min(abs(lat.p1), abs(lat.p2))
    last_error = None
    coords = [coordinates(w, lat) for w in known_points]
    s0 = math.remainder(_gap_midpoint(s for s, _ in coords), 1.0)
    t0 = math.remainder(_gap_midpoint(t for _, t in coords), 1.0)
    for cand in (complex(offset), s0 * lat.p1 + t0 * lat.p2):
        if not _contour_clear(lat, cand, known_points, clearance):
            continue
        corners = [cand, cand + lat.p1, cand + lat.p1 + lat.p2, cand + lat.p2]
        edges = [lat.p1, lat.p2, -lat.p1, -lat.p2]
        winding = 0j
        moment = 0j
        try:
            for corner, edge in zip(corners, edges):
                direction = edge / abs(edge)
                for tk, wk in zip(t, weights):
                    z = corner + tk * edge
                    psi = dlog(z, direction)
                    winding += wk * psi * edge
                    moment += wk * z * psi * edge
        except PoleOrZeroHit as exc:
            last_error = exc
            continue
        winding = complex(winding) / (TAU * 1j)
        nearest = int(round(winding.real))
        distance = float(abs(winding - nearest))
        return ContourCount(nearest, winding, distance, complex(moment) / (TAU * 1j), cand)
    raise ContourTooClose(
        f"neither the requested nor the largest-gap offset cleared the zeros/poles by {clearance:.3g}"
        + (f"; last integrand error: {last_error}" if last_error else "")
    )


def count_zeros_poles(
    fval,
    lat: Lattice,
    offset: complex,
    quad: QuadratureSpec = QuadratureSpec(),
    known_points=(),
) -> ContourCount:
    """`_contour_pass` for a black-box fval: winding and moment of f'/f.

    f'/f comes from central differences of log f, two evaluations per node.
    The winding is 0 for a doubly periodic phase.
    """
    step = FD_STEP * abs(reduce_basis(lat).p1)
    dlog = lambda z, direction: _log_derivative(fval, z, direction, step)
    return _contour_pass(dlog, lat, offset, quad, known_points)


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
    count = _contour_pass(dlog, lat, 0j, quad, known)

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


def report_passes(report: VerificationReport, spec: PhaseFunctionSpec, tol: float = 1e-6) -> bool:
    """Tolerance gate used for the CLI exit code."""
    lat = spec.lattice
    checks = [
        report.phase_residual_p1 <= tol,
        report.phase_residual_p2 <= tol,
        abs(math.log(report.multiplier1) - spec.alpha1) <= tol,
        abs(math.log(report.multiplier2) - spec.alpha2) <= tol,
        report.reliable,
        report.zero_count == report.pole_count,
        torus_distance(report.xi0_recovered, spec.xi0, lat) <= tol,
    ]
    return all(checks)
