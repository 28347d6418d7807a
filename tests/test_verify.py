import math

import pytest

from ellipse_phase import (
    ContourTooClose,
    GridSpec,
    LogValue,
    PoleOrZeroHit,
    QuadratureSpec,
    SigmaEvaluator,
    TooManyPoleHits,
    build_elliptic,
    count_zeros_poles,
    eval_elliptic,
    eval_f,
    make_divisor,
    make_lattice,
    phase_periodicity,
    ratio_z_independence,
    reduce_to_cell,
    report_passes,
    synthesize,
    torus_distance,
    verify_spec,
    wrap_angle,
)

from conftest import random_cell_point, random_lattice


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

    def test_composition_over_double_period(self, square, square_ev, sample_spec):
        fval = lambda z: eval_f(sample_spec, square_ev, z)
        _, single = phase_periodicity(fval, square.p1, GridSpec(square, 5, 5))
        _, double = phase_periodicity(fval, 2 * square.p1, GridSpec(square, 5, 5))
        assert abs(math.exp(double.real) - math.exp(2 * single.real)) <= 1e-8 * math.exp(
            double.real
        )

    def test_too_many_pole_hits(self, square):
        always_zero = lambda z: LogValue.zero()
        with pytest.raises(TooManyPoleHits):
            phase_periodicity(always_zero, 1.0, GridSpec(square, 2, 2))


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

    def test_contour_too_close(self, square):
        # known points every 1/100 along the diagonal come within the 1%
        # clearance of every side, whatever the offset
        known = [k / 100 * (square.p1 + square.p2) for k in range(100)]
        with pytest.raises(ContourTooClose):
            count_zeros_poles(const_stub, square, 0j, known_points=known)


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

    def test_offset_invariance(self, square, square_ev, sample_spec):
        fval = lambda z: eval_f(sample_spec, square_ev, z)
        known = [0.3 + 0.4j, 0.6 + 0.1j]
        a = count_zeros_poles(fval, square, 0.02 + 0.03j, known_points=known).raw_moment
        b = count_zeros_poles(fval, square, -0.05 + 0.01j, known_points=known).raw_moment
        assert torus_distance(a, b, square) <= 2e-6


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

    def test_j_validation(self, square_ev):
        with pytest.raises(ValueError):
            ratio_z_independence(square_ev, 0.3 + 0.2j, 3, [0.41 + 0.27j, 0.2 + 0.6j])

    def test_pole_hit(self, square_ev):
        with pytest.raises(PoleOrZeroHit):
            ratio_z_independence(square_ev, 0.3 + 0.2j, 1, [0.41 + 0.27j, 1.0 + 1.0j])
        # z - xi0 on the lattice
        with pytest.raises(PoleOrZeroHit):
            ratio_z_independence(square_ev, 0.3 + 0.2j, 1, [0.41 + 0.27j, 0.3 + 0.2j])


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

    @pytest.mark.parametrize("p2", [1j, 1 + 1j], ids=["square", "sheared"])
    def test_report_reads_one_contour_pass(self, p2):
        lat = make_lattice(1, p2)
        d = make_divisor(
            [(0.3 + 0.4j, 1), (0.7 + 0.2j, 1)], [(0.6 + 0.1j, 1), (0.2 + 0.7j, 1)], lat
        )
        spec = synthesize(d, 1, 0, lat)
        quad = QuadratureSpec(seed=9)
        report = verify_spec(spec, quad=quad)
        ev = SigmaEvaluator(lat)
        known = [p for p, _ in d.zeros] + [p for p, _ in d.poles]
        count = count_zeros_poles(lambda z: eval_f(spec, ev, z), lat, 0j, quad, known)
        assert report.contour_offset == count.offset
        assert report.winding_distance == count.integer_distance
        assert report.pole_count == report.zero_count - count.zeros_minus_poles
        assert report.divisor_sum_mod_L == reduce_to_cell(count.raw_moment, lat)
        assert report.xi0_recovered == reduce_to_cell(-count.raw_moment, lat)
