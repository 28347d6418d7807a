import cmath

import pytest

from ellipse_phase import (
    AbelViolation,
    EllipticFunction,
    LogValue,
    PoleValue,
    SigmaEvaluator,
    build_elliptic,
    eval_elliptic,
    make_divisor,
    make_lattice,
    reduce_to_cell,
    torus_distance,
    validate_abel,
    wrap_angle,
)

from ellipse_phase import divisor

from conftest import random_cell_point, random_lattice
from wp_oracle import wp, wp_lattice_sum


def rel_diff(a: LogValue, b: LogValue) -> float:
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, wrap_angle(a.phase - b.phase))) - 1)


@pytest.fixture(scope="module")
def square():
    return make_lattice(1, 1j)


@pytest.fixture(scope="module")
def square_ev(square):
    return SigmaEvaluator(square)


class TestMakeDivisor:
    def test_points_reduced_and_merged(self, square):
        d = make_divisor([(1.3 + 2.4j, 1), (0.3 + 0.4j, 2)], [(0.5, 1)], square)
        assert d.zeros == ((pytest.approx(0.3 + 0.4j),) * 0 + d.zeros)  # structure check below
        assert len(d.zeros) == 1
        point, mult = d.zeros[0]
        assert torus_distance(point, 0.3 + 0.4j, square) < 1e-12
        assert mult == 3

    def test_common_factors_cancelled(self, square):
        d = make_divisor([(0.5, 2), (0.1, 1)], [(0.5, 1), (0.7, 1)], square)
        assert dict((round(p.real, 6), m) for p, m in d.zeros) == {0.5: 1, 0.1: 1}
        assert dict((round(p.real, 6), m) for p, m in d.poles) == {0.7: 1}

    def test_multiplicity_validated(self, square):
        with pytest.raises(ValueError):
            make_divisor([(0.5, 0)], [], square)


class TestValidateAbel:
    def test_empty(self, square):
        ok, defect = validate_abel(make_divisor([], [], square), square)
        assert ok and defect == 0

    def test_exact_balance(self, square):
        d = make_divisor([(0.25, 1), (0.75, 1)], [(0.5, 2)], square)
        ok, defect = validate_abel(d, square)
        assert ok
        assert abs(defect) < 1e-12

    def test_defect_reported(self, square):
        d = make_divisor([(0.3, 1)], [(0.5, 1)], square)
        ok, defect = validate_abel(d, square)
        assert not ok
        assert abs(defect - reduce_to_cell(-0.2, square).z0) < 1e-12

    def test_congruent_sums_pass(self, square):
        # sums differ by the lattice vector 1, which Abel's condition allows
        d = make_divisor([(0.9, 1), (0.6, 1)], [(0.25, 1), (0.25, 1)], square)
        ok, _ = validate_abel(d, square)
        assert ok


class TestBuildElliptic:
    def test_empty_divisor_is_constant(self, square, square_ev):
        g = build_elliptic(make_divisor([], [], square), square)
        assert g.zero_points == () and g.pole_points == ()
        assert eval_elliptic(g, square_ev, 0.123 + 0.456j) == LogValue.one()

    def test_invalid_divisor_rejected(self, square):
        with pytest.raises(AbelViolation):
            build_elliptic(make_divisor([(0.3, 1)], [(0.5, 1)], square), square)

    def test_sums_match_exactly(self, square, rng):
        for _ in range(10):
            lat = random_lattice(rng)
            w = random_cell_point(rng, lat)
            x = random_cell_point(rng, lat)
            d = make_divisor(
                [(w, 1), (x, 1)],
                [(reduce_to_cell(w + x, lat).z0, 1), (0, 1)],
                lat,
            )
            g = build_elliptic(d, lat)
            assert abs(sum(g.zero_points) - sum(g.pole_points)) <= 1e-12

    def test_adjustment_keeps_divisor_class(self, square):
        # sums 1.8 vs 0.8: the lattice defect 1 is absorbed by one zero
        d = make_divisor([(0.9, 1), (0.9, 1)], [(0.3, 1), (0.5, 1)], square)
        g = build_elliptic(d, square)
        assert sorted(p.real for p in g.pole_points) == [0.3, 0.5]
        moved = [p for p in g.zero_points if abs(p - 0.9) > 1e-9]
        assert len(moved) == 1
        assert abs(reduce_to_cell(moved[0], square).z0 - 0.9) <= 1e-12


class TestEvalElliptic:
    def test_markers(self, square, square_ev):
        w = 0.3 + 0.1j
        d = make_divisor([(w, 1), (-w, 1)], [(0, 2)], square)
        g = build_elliptic(d, square)
        assert eval_elliptic(g, square_ev, w).is_zero()
        assert eval_elliptic(g, square_ev, 0) == PoleValue(2)
        assert eval_elliptic(g, square_ev, 0 + 1j) == PoleValue(2)

    def test_periodicity(self, square_ev, rng):
        for _ in range(3):
            lat = random_lattice(rng)
            ev = SigmaEvaluator(lat)
            w = random_cell_point(rng, lat)
            x = random_cell_point(rng, lat)
            d = make_divisor(
                [(w, 1), (x, 1)],
                [(reduce_to_cell(w + x, lat).z0, 1), (0, 1)],
                lat,
            )
            g = build_elliptic(d, lat)
            for _ in range(10):
                z = random_cell_point(rng, lat)
                base = eval_elliptic(g, ev, z)
                for p in (lat.p1, lat.p2):
                    shifted = eval_elliptic(g, ev, z + p)
                    assert rel_diff(shifted, base) <= 1e-8

    def test_matches_wp_oracle(self, square, square_ev, rng):
        # zeros {w, -w}, double pole at 0 realizes wp(z) - wp(w) up to a constant
        w = 0.3 + 0.1j
        d = make_divisor([(w, 1), (-w, 1)], [(0, 2)], square)
        g = build_elliptic(d, square)
        wp_w = wp(w, square)
        ratios = []
        for _ in range(10):
            z = random_cell_point(rng, square, margin=0.15)
            gv = eval_elliptic(g, square_ev, z)
            target = wp(z, square) - wp_w
            ratios.append(gv.to_complex() / target)
        mean = sum(ratios) / len(ratios)
        assert max(abs(r / mean - 1) for r in ratios) <= 1e-8

    def test_congruent_factors_cancel(self, square, square_ev):
        # a zero and a pole in the same class reduce to a pure exponential factor
        g = EllipticFunction(square, (0.2 + 0.3j,), (1.2 + 0.3j,), 1.0)
        val = eval_elliptic(g, square_ev, 0.7 + 0.8j)
        expected = -cmath.exp(square_ev.eta1 * ((0.7 + 0.8j) - (1.2 + 0.3j) + 0.5))
        assert rel_diff(val, LogValue.from_complex(expected)) <= 1e-12
        assert (g.quotient.zeros, g.quotient.poles) == ((), ())

    def test_quotient_cancelled_once(self, square, square_ev, monkeypatch):
        g = EllipticFunction(square, (0.2 + 0.3j, 0.4), (1.2 + 0.3j, 0.6 + 0.1j), 1.0)
        assert g == EllipticFunction(square, g.zero_points, g.pole_points, g.scale)
        before = eval_elliptic(g, square_ev, 0.7 + 0.8j)

        def refuse(*args, **kwargs):
            raise AssertionError("congruent factors cancelled at evaluation time")

        monkeypatch.setattr(divisor, "_cancel_congruent", refuse)
        assert eval_elliptic(g, square_ev, 0.7 + 0.8j) == before
        assert eval_elliptic(g, square_ev, 0.4).is_zero()
        assert eval_elliptic(g, square_ev, 0.6 + 0.1j) == PoleValue(1)

    def test_zero_scale_is_zero_everywhere(self, square, square_ev):
        g = EllipticFunction(square, (0.2 + 0.3j,), (0.6 + 0.1j,), 0)
        for z in (0.7 + 0.8j, 0.2 + 0.3j, 0.6 + 0.1j):
            assert eval_elliptic(g, square_ev, z) == LogValue.zero()


class TestWpOracle:
    def test_series_agrees_with_defining_sum(self, square, rng):
        for _ in range(3):
            z = random_cell_point(rng, square, margin=0.2) - (0.5 + 0.5j)
            if abs(z) < 0.15:
                z += 0.2 + 0.1j
            a = wp_lattice_sum(z, square, 300)
            b = wp(z, square)
            assert abs(a - b) <= 2e-5 * max(1.0, abs(b))

    def test_skew_lattice(self, rng):
        lat = make_lattice(1.1 - 0.2j, 0.3 + 0.9j)
        z = 0.23 + 0.11j
        assert abs(wp_lattice_sum(z, lat, 300) - wp(z, lat)) <= 2e-5 * abs(wp(z, lat))
