import math
import random

import pytest

from ellipse_phase import (
    ContourTooClose,
    GridSpec,
    LogValue,
    PoleOrZeroHit,
    QuadratureSpec,
    SigmaEvaluator,
    build_elliptic,
    coordinates,
    count_zeros_poles,
    eval_elliptic,
    eval_f,
    make_divisor,
    make_lattice,
    phase_periodicity,
    reduce_basis,
    reduce_to_cell,
    report_passes,
    synthesize,
    torus_distance,
    verify_spec,
    wrap_angle,
)

from ellipse_phase import verify, weierstrass
from ellipse_phase.synthesis import PhaseFunctionSpec
from ellipse_phase.verify import _contour_pass, _largest_gap, _place_contour, failed_checks
from ellipse_phase.weierstrass import SigmaQuotient, log_derivative

from conftest import log_ratio, log_spread, random_cell_point, random_lattice


def exp_stub(z: complex) -> LogValue:
    return LogValue(z.real, wrap_angle(z.imag))


def const_stub(z: complex) -> LogValue:
    return LogValue(0.7, -0.3)


@pytest.fixture(scope="module")
def square():
    return make_lattice(1, 1j)


@pytest.fixture(scope="module")
def square_ev(square):
    return SigmaEvaluator(square)


@pytest.fixture(scope="module")
def wp_like(square):
    d = make_divisor([(0.3 + 0.1j, 1), (-0.3 - 0.1j, 1)], [(0, 2)], square)
    return build_elliptic(d, square)


@pytest.fixture(scope="module")
def sample_spec(square):
    d = make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], square)
    return synthesize(d, 0, 0, square)


class TestPhasePeriodicity:
    def test_exponential_stub(self, square):
        residual, mult = phase_periodicity(exp_stub, 1.0, GridSpec(square, 5, 5))
        assert residual <= 1e-14
        assert abs(mult - 1.0) <= 1e-14

    def test_elliptic_function(self, square, square_ev, wp_like):
        fval = lambda z: eval_elliptic(wp_like, square_ev, z)
        residual, mult = phase_periodicity(fval, square.p1, GridSpec(square, 6, 6))
        assert residual <= 1e-8
        assert abs(mult) <= 1e-8

    def test_synthesized_spec(self, square, square_ev, sample_spec):
        fval = lambda z: eval_f(sample_spec, square_ev, z)
        residual, mult = phase_periodicity(fval, square.p2, GridSpec(square, 6, 6))
        assert residual <= 1e-8
        assert abs(mult.imag) <= 1e-8
        assert abs(mult.real - sample_spec.alpha2) <= 1e-8

    def test_constant_phase_turn_counts(self, square):
        # f(z + 1) = i*e^0.3 f(z): constant, so the spread about the complex mean was 0
        turning = lambda z: LogValue.from_log((0.3 + 0.5j * math.pi) * z)
        residual, mult = phase_periodicity(turning, square.p1, GridSpec(square, 5, 5))
        assert mult == pytest.approx(0.3 + 0.5j * math.pi, abs=1e-14)
        assert residual == pytest.approx(0.5 * math.pi, abs=1e-14)

    def test_composition_over_double_period(self, square, square_ev, sample_spec):
        fval = lambda z: eval_f(sample_spec, square_ev, z)
        _, single = phase_periodicity(fval, square.p1, GridSpec(square, 5, 5))
        _, double = phase_periodicity(fval, 2 * square.p1, GridSpec(square, 5, 5))
        assert abs(math.exp(double.real) - math.exp(2 * single.real)) <= 1e-8 * math.exp(
            double.real
        )

    def test_too_many_pole_hits(self, square):
        always_zero = lambda z: LogValue.zero()
        with pytest.raises(PoleOrZeroHit):
            phase_periodicity(always_zero, 1.0, GridSpec(square, 2, 2))

    def test_grid_avoids_known_points(self, square):
        # 0.05+0.05i is a point of the cell-centred 10x10 grid
        zero = 0.05 + 0.05j
        fval = lambda z: (
            LogValue.zero() if torus_distance(z, zero, square) < 1e-9 else exp_stub(z)
        )
        grid = GridSpec(square, 10, 10)
        with pytest.raises(PoleOrZeroHit):
            phase_periodicity(fval, square.p1, grid)
        residual, mult = phase_periodicity(fval, square.p1, grid, known_points=[zero])
        assert residual <= 1e-14
        assert abs(mult - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "values, midpoint",
        [([], 0.5), ([0.3], 0.8), ([0.3, 0.5], 0.9), ([0.5, 0.7], 0.1), ([1.3, -0.5], 0.9)],
    )
    def test_gap_midpoint(self, values, midpoint):
        assert _largest_gap(values)[0] == pytest.approx(midpoint, abs=1e-15)

    @pytest.mark.parametrize(
        "values, width", [([], 1.0), ([0.3], 1.0), ([0.3, 0.5], 0.8), ([0.1, 0.4, 0.6], 0.5)]
    )
    def test_largest_gap_width(self, values, width):
        assert _largest_gap(values)[1] == pytest.approx(width, abs=1e-15)

    def test_grid_point_count_capped(self, square):
        # and the lower bounds of both specs
        GridSpec(square, 1000, 1000)
        QuadratureSpec(1, 2)
        for build, message in [
            (lambda: GridSpec(square, 1001, 1000), "MAX_GRID"),
            (lambda: QuadratureSpec(0), ">= 1 panel"),
            (lambda: QuadratureSpec(nodes_per_panel=1), ">= 2 nodes"),
        ]:
            with pytest.raises(ValueError, match=message):
                build()


class TestCountZerosPoles:
    def test_constant(self, square):
        result = count_zeros_poles(const_stub, square, 0.01 + 0.005j)
        assert result.zeros_minus_poles == 0
        assert result.integer_distance <= 1e-12

    def test_wp_like(self, square, square_ev, wp_like):
        fval = lambda z: eval_elliptic(wp_like, square_ev, z)
        known = list(wp_like.zeros) + list(wp_like.poles)
        result = count_zeros_poles(fval, square, 0j, known_points=known)
        assert result.zeros_minus_poles == 0
        assert result.integer_distance <= 1e-6
        # zero count = winding + known pole count
        assert result.zeros_minus_poles + len(wp_like.poles) == len(
            wp_like.zeros
        )

    def test_synthesized_three_pairs(self, square, square_ev):
        pts = [0.2 + 0.3j, 0.7 + 0.6j, 0.4 + 0.8j, 0.8 + 0.2j, 0.3 + 0.6j, 0.6 + 0.4j]
        d = make_divisor([(p, 1) for p in pts[:3]], [(p, 1) for p in pts[3:]], square)
        spec = synthesize(d, 0, 0, square)
        fval = lambda z: eval_f(spec, square_ev, z)
        result = count_zeros_poles(fval, square, 0j, known_points=pts)
        assert result.zeros_minus_poles == 0
        assert result.integer_distance <= 1e-6

    def test_quadrature_doubling_stable(self, square, square_ev, sample_spec):
        fval = lambda z: eval_f(sample_spec, square_ev, z)
        known = [0.3 + 0.4j, 0.6 + 0.1j]
        coarse = count_zeros_poles(
            fval, square, 0j, QuadratureSpec(panels_per_side=32), known_points=known
        )
        fine = count_zeros_poles(
            fval, square, 0j, QuadratureSpec(panels_per_side=64), known_points=known
        )
        assert abs(coarse.raw_winding - fine.raw_winding) < 1e-3

    @pytest.mark.parametrize("n", range(2, 41))
    def test_legendre_rule_matches_numpy(self, n):
        # the rule is computed without numpy, so verify runs without loading it
        import numpy as np

        x, w = verify._legendre_rule(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert x == sorted(x) and x == [-v for v in reversed(x)]
        assert max(abs(x - x_ref)) <= 2e-16
        assert max(abs(w - w_ref) / w_ref) <= 1e-12
        assert abs(sum(w) - 2.0) <= 1e-15

    def test_gauss_nodes_tile_the_panels(self):
        t, weights = verify._gauss_nodes(QuadratureSpec(panels_per_side=3, nodes_per_panel=4))
        assert len(t) == len(weights) == 12
        assert all(k / 3 < tk < (k + 1) / 3 for k in range(3) for tk in t[4 * k : 4 * k + 4])
        assert sum(weights) == pytest.approx(1.0, abs=1e-15)
        assert all(type(v) is float for v in t + weights)

    def test_offset_is_largest_gap(self, square):
        # the requested offset 0 runs through the zero at the origin and is
        # ignored; the lines s = -0.35 and t = -0.3 halve the largest gaps
        # between the known coordinates
        result = count_zeros_poles(const_stub, square, 0j, known_points=[0j, 0.3 + 0.4j])
        assert abs(result.offset - (-0.35 - 0.3j)) <= 1e-15
        assert result.zeros_minus_poles == 0

    def test_contour_too_close(self, square):
        # known points every 1/100 along the diagonal leave gaps of 1/100 in
        # both coordinates, so the contour keeps only 0.005 from them, below
        # the 1% clearance
        known = [k / 100 * (square.p1 + square.p2) for k in range(100)]
        with pytest.raises(ContourTooClose) as exc:
            count_zeros_poles(const_stub, square, 0j, known_points=known)
        # the message names the clearance reached and the one required
        assert str(exc.value) == "contour clearance 0.005 is below 0.01"


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    t = min(1.0, max(0.0, ((p - a).conjugate() * ab).real / abs(ab) ** 2))
    return abs(p - (a + t * ab))


def brute_force_clearance(lat, offset, point, reach=3) -> float:
    """Least distance from the point's translates (+-reach cells) to the sides of d(F + offset)."""
    corners = [offset, offset + lat.p1, offset + lat.p1 + lat.p2, offset + lat.p2]
    sides = list(zip(corners, corners[1:] + corners[:1]))
    base = reduce_to_cell(point, lat)
    return min(
        _segment_distance(base + i * lat.p1 + j * lat.p2, a, b)
        for i in range(-reach, reach + 1)
        for j in range(-reach, reach + 1)
        for a, b in sides
    )


class TestContourClearance:
    def test_matches_brute_force_on_sheared_bases(self):
        # the clearance `_contour_pass` gates on is the least distance from a
        # translate of a known point to the reduced cell's sides, and at least
        # sqrt(3)/(4K) |P1| for K known points
        rng = random.Random(5)
        for k in range(-5, 6):
            for draw in range(4):
                base = random_lattice(rng)
                lat = make_lattice(base.p1, base.p2 + k * base.p1)
                points = [
                    random_cell_point(rng, lat, margin=0.0) + rng.randint(-2, 2) * lat.p1
                    for _ in range(rng.randint(1, 6))
                ]
                if draw % 2:
                    points.append(0j)
                red, offset, clearance = _place_contour(lat, points)
                assert red == reduce_basis(lat)
                s0, t0 = coordinates(offset, red)
                assert max(abs(s0), abs(t0)) <= 0.5
                nearest = min(brute_force_clearance(red, offset, z) for z in points)
                assert nearest == pytest.approx(clearance, rel=1e-9), (k, points)
                assert clearance >= math.sqrt(3) / (4 * len(points)) * abs(red.p1) * (1 - 1e-12)


class TestDivisorSum:
    """The moment (1/2*pi*i) * integral of z f'/f is the divisor sum mod L."""

    def test_constant(self, square):
        value = count_zeros_poles(const_stub, square, 0.01 + 0.007j).raw_moment
        assert torus_distance(value, 0, square) <= 1e-9

    def test_single_pair(self, square, square_ev):
        d = make_divisor([(0.3, 1)], [(0.5, 1)], square)
        spec = synthesize(d, 0, 0, square)
        fval = lambda z: eval_f(spec, square_ev, z)
        value = count_zeros_poles(fval, square, 0j, known_points=[0.3, 0.5]).raw_moment
        assert torus_distance(value, 0.8, square) <= 1e-6
        assert torus_distance(value, -spec.xi0, square) <= 1e-6

    def test_random_spec_recovers_xi0(self, square_ev, rng):
        lat = random_lattice(rng)
        ev = SigmaEvaluator(lat)
        zeros = [(random_cell_point(rng, lat), 1) for _ in range(2)]
        poles = [(random_cell_point(rng, lat), 1) for _ in range(2)]
        d = make_divisor(zeros, poles, lat)
        spec = synthesize(d, 0, 0, lat)
        fval = lambda z: eval_f(spec, ev, z)
        known = [p for p, _ in d.zeros] + [p for p, _ in d.poles]
        value = count_zeros_poles(fval, lat, 0j, known_points=known).raw_moment
        assert torus_distance(value, -spec.xi0, lat) <= 1e-6

    def test_sheared_presentation_agrees(self, rng):
        # the same divisor on sheared presentations (P1, P2 + k*P1) of one
        # lattice: each f has its own xi0 and evaluator, and the moments agree
        # mod L to the central difference's accuracy
        base = random_lattice(rng)
        known = [random_cell_point(rng, base) for _ in range(4)]
        moments = []
        for k in (0, -3, 2, 7):
            lat = make_lattice(base.p1, base.p2 + k * base.p1)
            d = make_divisor([(p, 1) for p in known[:2]], [(p, 1) for p in known[2:]], lat)
            spec = synthesize(d, 0, 0, lat)
            fval = lambda z: eval_f(spec, spec.ev, z)
            moments.append(count_zeros_poles(fval, lat, 0j, known_points=known).raw_moment)
        assert all(torus_distance(m, moments[0], base) <= 1e-9 for m in moments[1:])


def ratio_z_independence(ev, xi0, j, samples) -> float:
    return log_spread([log_ratio(ev, xi0, j, z) for z in samples])


class TestRatioZIndependence:
    def test_zero_offset(self, square_ev):
        samples = [0.3 + 0.2j, 0.1 + 0.7j, 0.8 + 0.5j]
        assert ratio_z_independence(square_ev, 0, 1, samples) == 0.0

    def test_square_lattice(self, square_ev, rng):
        samples = [random_cell_point(rng, square_ev.lattice) for _ in range(5)]
        assert ratio_z_independence(square_ev, 0.3 + 0.2j, 1, samples) <= 1e-8

    def test_skew_lattice(self, rng):
        lat = make_lattice(2, 1 + 3j)
        ev = SigmaEvaluator(lat)
        samples = [random_cell_point(rng, lat) for _ in range(5)]
        assert ratio_z_independence(ev, 0.5 - 0.4j, 2, samples) <= 1e-8


class TestVerifySpec:
    def test_full_report(self, square, sample_spec):
        report = verify_spec(sample_spec)
        assert report.phase_residual_p1 <= 1e-8
        assert report.phase_residual_p2 <= 1e-8
        assert abs(math.log(report.multiplier1) - sample_spec.alpha1) <= 1e-8
        assert abs(math.log(report.multiplier2) - sample_spec.alpha2) <= 1e-8
        assert report.zero_count == report.pole_count == 1
        assert report.reliable
        assert torus_distance(report.xi0_recovered, sample_spec.xi0, square) <= 1e-6
        assert torus_distance(
            report.divisor_sum_mod_L, -sample_spec.xi0, square
        ) <= 1e-6
        assert report.samples_used == 100
        assert report_passes(report, sample_spec)

    def test_quarter_turn_per_p1_fails(self, square, sample_spec):
        # exp(i*pi/2 * z) times f turns the phase by pi/2 per p1 = 1 and scales
        # |f| by e^(-pi/2) per p2 = i; both checks fail, the multiplier1 check does not
        q = sample_spec.quotient
        fields = {name: getattr(sample_spec, name) for name in sample_spec.__slots__}
        fields["quotient"] = SigmaQuotient(q.exponent + 0.5j * math.pi, q.log_scale, q.zeros, q.poles)
        turned = PhaseFunctionSpec(**fields)
        report = verify_spec(turned)
        assert report.phase_residual_p1 == pytest.approx(0.5 * math.pi, abs=1e-8)
        assert report.phase_residual_p2 <= 1e-8
        assert [name for name, _, _ in failed_checks(report, turned)] == [
            "phase_residual_p1", "alpha2_miss"
        ]
        assert not report_passes(report, turned)

    def test_builds_no_evaluator(self, sample_spec, evaluator_inits):
        # f is evaluated with the spec's own evaluator, spec.ev
        evaluator_inits.clear()
        verify_spec(sample_spec, GridSpec(sample_spec.lattice, 3, 3))
        assert evaluator_inits == []

    @pytest.mark.parametrize("nx, ny, panels, nodes", [(3, 2, 4, 5), (10, 10, 32, 8)])
    def test_one_kernel_pass_per_node_and_factor(self, monkeypatch, nx, ny, panels, nodes):
        # the grid takes f at each point and its translate, for both periods,
        # one quotient kernel pass per f; the contour takes the exact f'/f once
        # per node in one derivative kernel pass, one range reduction per sigma
        # factor (a central difference took f twice per node)
        lat = make_lattice(1, 0.3 + 1.1j)
        d = make_divisor(
            [(0.2 + 0.3j, 1), (0.6 + 0.1j, 1)], [(0.5 + 0.5j, 1), (0.3 + 0.2j, 1)], lat
        )
        spec = synthesize(d, 1, -1, lat)
        factors = len(spec.quotient.zeros) + len(spec.quotient.poles)
        calls = {"eval_f": 0, "quotient": 0, "dlog": 0, "reduce": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(verify, "eval_f", counted("eval_f", verify.eval_f))
        monkeypatch.setattr(weierstrass, "_log_quotient", counted("quotient", weierstrass._log_quotient))
        monkeypatch.setattr(weierstrass, "_dlog_quotient", counted("dlog", weierstrass._dlog_quotient))
        monkeypatch.setattr(
            weierstrass, "nearest_lattice_point", counted("reduce", weierstrass.nearest_lattice_point)
        )
        report = verify_spec(spec, GridSpec(lat, nx, ny), QuadratureSpec(panels, nodes))
        known = [p for p, _ in d.zeros] + [p for p, _ in d.poles]
        assert report.contour_offset == _place_contour(lat, known)[1]
        assert calls["eval_f"] == calls["quotient"] == 4 * nx * ny
        assert calls["dlog"] == 4 * panels * nodes
        assert calls["reduce"] == 4 * panels * nodes * factors

    @pytest.mark.parametrize("p2", [1j, 1 + 1j], ids=["square", "sheared"])
    def test_report_reads_one_contour_pass(self, p2):
        lat = make_lattice(1, p2)
        d = make_divisor(
            [(0.3 + 0.4j, 1), (0.7 + 0.2j, 1)], [(0.6 + 0.1j, 1), (0.2 + 0.7j, 1)], lat
        )
        spec = synthesize(d, 1, 0, lat)
        quad = QuadratureSpec(seed=9)
        report = verify_spec(spec, quad=quad)
        # the same pass over the exact f'/f of the evaluation form, from a fresh evaluator
        ev = SigmaEvaluator(lat)
        known = [p for p, _ in d.zeros] + [p for p, _ in d.poles]
        dlog = lambda z, _: log_derivative(spec.quotient, ev, z)
        count = _contour_pass(dlog, lat, quad, known)
        assert report.contour_offset == count.offset
        assert report.winding_distance == count.integer_distance
        assert report.pole_count == report.zero_count - count.zeros_minus_poles
        assert report.divisor_sum_mod_L == reduce_to_cell(count.raw_moment, lat)
        assert report.xi0_recovered == reduce_to_cell(-count.raw_moment, lat)

    def test_elongated_basis_passes(self):
        # one pair on the long, thin presented cell (P1, P2 + 2*P1), where 32
        # panels per side of that cell miss the divisor sum; the reduced cell does not
        lat = make_lattice(-0.566 + 0.29j, 0.994 - 0.942j)
        d = make_divisor([(-0.569 + 0.031j, 1)], [(-0.341 + 0.11j, 1)], lat)
        spec = synthesize(d, 0, 0, lat)
        report = verify_spec(spec)
        assert report_passes(report, spec)
        assert torus_distance(report.xi0_recovered, spec.xi0, lat) <= 1e-13
