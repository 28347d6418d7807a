"""Numerical verification: phase periodicity, winding counts, and divisor sums.

The checks only need a black-box evaluator returning LogValue (or PoleValue at
poles).  Contour work integrates f'/f and z*f'/f over the boundary of an
offset fundamental cell with composite Gauss-Legendre panels; f'/f comes from
central differences of log f with phase increments wrapped to (-pi, pi], which
stays finite where |f| overflows and never loses 2*pi jumps at the step scale.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .divisor import PoleValue
from .errors import ContourTooClose, PoleOrZeroHit, TooManyPoleHits
from .lattice import Lattice, reduce_to_cell, torus_distance
from .sigma_ratio import _log_ratio
from .synthesis import PhaseFunctionSpec, eval_f
from .weierstrass import TAU, SigmaEvaluator, wrap_angle

#: required clearance between the contour and any zero/pole, as a fraction of
#: the shorter period (used when the divisor is known; quadrature error decays
#: like (1 + 2*clearance/panel)^(-2*nodes), so 1% keeps it far below 1e-6).
CLEARANCE_FRACTION = 0.01

#: blind-probe gate on |f'/f| at the nodes, matching a ~1e-3 clearance.
PROBE_DERIVATIVE_GATE = 1e3


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid over the fundamental cell, with a deterministic resample RNG."""

    lattice: Lattice
    nx: int = 10
    ny: int = 10
    seed: int = 42

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one point per direction")


@dataclass(frozen=True)
class QuadratureSpec:
    """Contour quadrature: composite Gauss-Legendre panels along each cell side."""

    panels_per_side: int = 32
    nodes_per_panel: int = 8
    fd_step: float = 1e-5
    seed: int = 1337
    max_offset_retries: int = 10

    def __post_init__(self):
        if self.panels_per_side < 1 or self.nodes_per_panel < 2:
            raise ValueError("need >= 1 panel per side and >= 2 nodes per panel")
        if self.fd_step <= 0:
            raise ValueError("finite-difference step must be positive")


@dataclass(frozen=True)
class ContourCount:
    """Winding result: zeros minus poles, a total-variation estimate, diagnostics."""

    zeros_minus_poles: int
    zeros_plus_poles_estimate: float
    raw_winding: complex
    integer_distance: float
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


def phase_periodicity(fval, p: complex, grid: GridSpec) -> tuple[float, complex]:
    """Spread and mean of log f(z+p) - log f(z) over a cell grid.

    The mean is the log multiplier (real for a doubly periodic phase); the
    residual is the largest deviation of an individual difference from the
    mean, measured in the log domain with phase differences wrapped to
    (-pi, pi].  Grid points hitting zeros/poles are resampled up to 10 times.
    """
    lat = grid.lattice
    rng = random.Random(grid.seed)
    diffs: list[complex] = []
    for i in range(grid.nx):
        for k in range(grid.ny):
            s = (i + 0.5) / grid.nx
            t = (k + 0.5) / grid.ny
            for attempt in range(11):
                z = s * lat.p1 + t * lat.p2
                va = fval(z)
                vb = fval(z + p)
                if not (_is_marker(va) or _is_marker(vb)):
                    break
                s, t = rng.random(), rng.random()
            else:
                raise TooManyPoleHits(
                    "grid keeps hitting zeros/poles; increase resolution"
                )
            diffs.append(
                complex(vb.log_mag - va.log_mag, wrap_angle(vb.phase - va.phase))
            )
    mean = sum(diffs) / len(diffs)
    residual = max(abs(d - mean) for d in diffs)
    return residual, mean


def _gauss_nodes(quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
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


def _offset_candidates(lat: Lattice, offset: complex, quad: QuadratureSpec):
    yield complex(offset)
    rng = random.Random(quad.seed)
    radius = 0.13 * min(abs(lat.p1), abs(lat.p2))
    for _ in range(quad.max_offset_retries):
        yield radius * math.sqrt(rng.random()) * cmath.exp(1j * TAU * rng.random())


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    """Distance from point p to the segment [a, b]."""
    ab = b - a
    t = ((p - a).conjugate() * ab).real / abs(ab) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def _contour_clear(lat: Lattice, offset: complex, known_points, clearance: float) -> bool:
    corners = [offset, offset + lat.p1, offset + lat.p1 + lat.p2, offset + lat.p2]
    sides = list(zip(corners, corners[1:] + corners[:1]))
    for p in known_points:
        base = reduce_to_cell(p, lat).z0
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                q = base + i * lat.p1 + j * lat.p2
                if any(_segment_distance(q, a, b) < clearance for a, b in sides):
                    return False
    return True


def _contour_integrals(
    fval,
    lat: Lattice,
    offset: complex,
    quad: QuadratureSpec,
    known_points=(),
):
    """(winding, moment, variation, offset) for f'/f over d(F + offset).

    winding  = (1/2*pi*i) * integral of f'/f dz        -> zeros minus poles
    moment   = (1/2*pi*i) * integral of z * f'/f dz    -> zero sum minus pole sum
    variation = (1/2*pi) * integral of |Im(f'/f dz)|   -> total phase turn
    """
    t, weights = _gauss_nodes(quad)
    clearance = CLEARANCE_FRACTION * min(abs(lat.p1), abs(lat.p2))
    last_error = None
    for cand in _offset_candidates(lat, offset, quad):
        if known_points and not _contour_clear(lat, cand, known_points, clearance):
            continue
        corners = [cand, cand + lat.p1, cand + lat.p1 + lat.p2, cand + lat.p2]
        edges = [lat.p1, lat.p2, -lat.p1, -lat.p2]
        winding = 0j
        moment = 0j
        variation = 0.0
        # with a known divisor the geometric check above already guarantees
        # clearance; the derivative gate is the probe for black-box functions
        gate = math.inf if known_points else PROBE_DERIVATIVE_GATE
        try:
            for corner, edge in zip(corners, edges):
                direction = edge / abs(edge)
                for tk, wk in zip(t, weights):
                    z = corner + tk * edge
                    psi = _log_derivative(fval, z, direction, quad.fd_step)
                    if abs(psi) > gate:
                        raise PoleOrZeroHit("contour runs too close to a zero/pole")
                    winding += wk * psi * edge
                    moment += wk * z * psi * edge
                    variation += wk * abs((psi * edge).imag)
        except PoleOrZeroHit as exc:
            last_error = exc
            continue
        return (
            complex(winding) / (TAU * 1j),
            complex(moment) / (TAU * 1j),
            float(variation) / TAU,
            cand,
        )
    raise ContourTooClose(
        f"no offset kept the contour clear of zeros/poles: {last_error}"
    )


def count_zeros_poles(
    fval,
    lat: Lattice,
    offset: complex,
    quad: QuadratureSpec = QuadratureSpec(),
    known_points=(),
) -> ContourCount:
    """Argument-principle winding over an offset cell; 0 for doubly periodic phase."""
    winding, _, variation, used = _contour_integrals(fval, lat, offset, quad, known_points)
    nearest = int(round(winding.real))
    distance = float(abs(winding - nearest))
    return ContourCount(nearest, variation, winding, distance, used)


def divisor_sum(
    fval,
    lat: Lattice,
    offset: complex,
    quad: QuadratureSpec = QuadratureSpec(),
    known_points=(),
) -> complex:
    """(1/2*pi*i) * integral of z f'/f over d(F + offset), reduced to the cell.

    For equal zero/pole counts the sum of divisor points is translation
    invariant mod L, so re-reducing the offset-cell value lands on the
    representative for the un-offset cell.
    """
    _, moment, _, _ = _contour_integrals(fval, lat, offset, quad, known_points)
    return reduce_to_cell(moment, lat).z0


def ratio_z_independence(ev: SigmaEvaluator, xi0: complex, j: int, z_samples) -> float:
    """Max pairwise log-distance of the four-sigma ratio across samples.

    The ratio sigma(z) sigma(z - xi0 + p_j) / (sigma(z - xi0) sigma(z + p_j))
    is constant in z; this measures how constant the evaluations are.
    """
    logs = [_log_ratio(ev, xi0, j, z) for z in z_samples]
    worst = 0.0
    for i in range(len(logs)):
        for k in range(i + 1, len(logs)):
            d = logs[i] - logs[k]
            worst = max(worst, abs(complex(d.real, wrap_angle(d.imag))))
    return worst


def verify_spec(
    spec: PhaseFunctionSpec,
    ev: SigmaEvaluator | None = None,
    grid: GridSpec | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> VerificationReport:
    """Full report for a synthesized function: periodicity, winding, divisor sum."""
    lat = spec.lattice
    if ev is None:
        ev = SigmaEvaluator(lat)
    if grid is None:
        grid = GridSpec(lat)
    fval = lambda z: eval_f(spec, ev, z)

    res1, mult1 = phase_periodicity(fval, lat.p1, grid)
    res2, mult2 = phase_periodicity(fval, lat.p2, grid)

    known = [p for p, _ in spec.divisor.zeros] + [p for p, _ in spec.divisor.poles]
    winding, moment, _, used_offset = _contour_integrals(fval, lat, 0j, quad, known)
    nearest = int(round(winding.real))
    distance = float(abs(winding - nearest))
    dsum = reduce_to_cell(moment, lat).z0

    zero_count = spec.divisor.zero_count()
    return VerificationReport(
        phase_residual_p1=res1,
        phase_residual_p2=res2,
        multiplier1=math.exp(mult1.real),
        multiplier2=math.exp(mult2.real),
        zero_count=zero_count,
        pole_count=zero_count - int(nearest),
        divisor_sum_mod_L=dsum,
        xi0_recovered=reduce_to_cell(-moment, lat).z0,
        samples_used=grid.nx * grid.ny,
        contour_offset=used_offset,
        winding_distance=distance,
        reliable=distance < 0.1,
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
