import cmath

import pytest

from ellipse_phase import (
    AbelViolation,
    LogValue,
    PoleValue,
    SigmaEvaluator,
    build_elliptic,
    eval_elliptic,
    make_divisor,
    make_lattice,
    reduce_to_cell,
    sigma,
    synthesize,
    torus_distance,
    validate_abel,
    wrap_angle,
)

from ellipse_phase import synthesis, weierstrass
from ellipse_phase.lattice import SNAP_TOL

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

    def test_non_integer_multiplicity_rejected(self, square):
        with pytest.raises(ValueError, match="positive integers"):
            make_divisor([(0.3 + 0.4j, 1.5)], [(0.6 + 0.1j, 1)], square)

    def test_non_finite_point_rejected(self, square):
        with pytest.raises(ValueError, match="not finite"):
            make_divisor([(complex(float("nan"), 0.4), 1)], [(0.5, 1)], square)

    @pytest.mark.parametrize(
        "zeros, poles",
        [
            # a double zero between two poles, each 0.9e-12 from it
            ([(0.5 + 0.5j, 2)], [(0.5 + 0.5j - 0.9e-12, 1), (0.5 + 0.5j + 0.9e-12, 1)]),
            # two zeros on either side of a double pole
            ([(0.5 + 0.5j - 0.9e-12, 1), (0.5 + 0.5j + 0.9e-12, 1)], [(0.5 + 0.5j, 2)]),
        ],
    )
    def test_cancels_against_every_close_entry(self, square, zeros, poles):
        assert make_divisor(zeros, poles, square) == synthesis.Divisor((), ())

    def test_idempotent(self, rng):
        for case in range(30):
            lat = random_lattice(rng)
            points = [random_cell_point(rng, lat) for _ in range(4)]
            zeros = [(rng.choice(points), rng.randint(1, 3)) for _ in range(5)]
            poles = [(rng.choice(points) + lat.p1 - 2 * lat.p2, rng.randint(1, 3)) for _ in range(5)]
            if case % 3 == 0:
                zeros.append((points[0] + 0.9e-12, 1))
            d = make_divisor(zeros, poles, lat)
            assert make_divisor(d.zeros, d.poles, lat) == d

    def test_degree_bounded(self, square):
        top = synthesis.MAX_DEGREE
        d = make_divisor([(0.25, top // 2), (0.5, top - top // 2)], [(0.75, top)], square)
        assert d.zero_count() == d.pole_count() == top
        with pytest.raises(ValueError, match="MAX_DEGREE"):
            make_divisor([(0.25, top // 2), (0.5, top - top // 2 + 1)], [], square)
        with pytest.raises(ValueError, match="MAX_DEGREE"):
            make_divisor([], [(0.75, 1e12)], square)


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
        assert abs(defect - reduce_to_cell(-0.2, square)) < 1e-12

    def test_congruent_sums_pass(self, square):
        # sums differ by the lattice vector 1, which Abel's condition allows
        d = make_divisor([(0.9, 1), (0.6, 1)], [(0.25, 1), (0.25, 1)], square)
        ok, _ = validate_abel(d, square)
        assert ok


class TestBuildElliptic:
    def test_empty_divisor_is_constant(self, square, square_ev):
        g = build_elliptic(make_divisor([], [], square), square)
        assert g.zeros == () and g.poles == ()
        assert eval_elliptic(g, square_ev, 0.123 + 0.456j) == LogValue(0.0, 0.0)

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
                [(reduce_to_cell(w + x, lat), 1), (0, 1)],
                lat,
            )
            g = build_elliptic(d, lat)
            assert abs(sum(g.zeros) - sum(g.poles)) <= 1e-12

    def test_adjustment_keeps_divisor_class(self, square):
        # sums 1.8 vs 0.8: the lattice defect 1 is absorbed by one zero
        d = make_divisor([(0.9, 1), (0.9, 1)], [(0.3, 1), (0.5, 1)], square)
        g = build_elliptic(d, square)
        assert sorted(p.real for p in g.poles) == [0.3, 0.5]
        moved = [p for p in g.zeros if abs(p - 0.9) > 1e-9]
        assert len(moved) == 1
        assert abs(reduce_to_cell(moved[0], square) - 0.9) <= 1e-12

    @pytest.mark.parametrize(
        "zeros, poles",
        [
            ([0.3 + 0.2j], [0.3 + 0.2j + 5e-10]),
            # the moved zero lands on the last pole minus p1
            ([0.6 + 0.2j, 0.6 + 0.3j, 0.9 + 0.5j], [0.1 + 0.2j, 0.1 + 0.3j, 0.9 + 0.5j + 5e-10]),
        ],
    )
    def test_shift_onto_pole_rejected(self, square, zeros, poles):
        # closer than ABEL_TOL but farther than SNAP_TOL, so make_divisor keeps the pair
        d = make_divisor([(z, 1) for z in zeros], [(p, 1) for p in poles], square)
        assert d.zero_count() == len(zeros)
        with pytest.raises(AbelViolation, match="onto pole"):
            build_elliptic(d, square)

    def test_output_needs_no_cancellation(self, rng):
        # make_divisor cancels every close zero/pole pair and the defect shift is
        # a lattice vector, so no zero of g lies within SNAP_TOL of a pole mod L
        for case in range(60):
            base = random_lattice(rng)
            lat = make_lattice(base.p1, base.p2 + (case % 5 - 2) * base.p1)
            n = rng.randint(1, 4)
            zeros = [(random_cell_point(rng, lat), rng.randint(1, 2)) for _ in range(n)]
            if case % 3 == 0:
                zeros[0] = (0j, zeros[0][1])
            poles = [(random_cell_point(rng, lat), m) for _, m in zeros[1:]]
            # the last pole balances the sums, so Abel's condition holds
            rest = sum(p * m for p, m in zeros) - sum(p * m for p, m in poles)
            poles += [(rest / zeros[0][1], zeros[0][1])]
            # a congruent input pair, w and w + p1 - p2
            w = random_cell_point(rng, lat)
            d = make_divisor(zeros + [(w, 1)], poles + [(w + lat.p1 - lat.p2, 1)], lat)
            for g in (build_elliptic(d, lat), synthesize(d, 0, 0, lat).g):
                for z in g.zeros:
                    assert all(torus_distance(z, p, lat) > SNAP_TOL for p in g.poles)


class TestEvalElliptic:
    def test_markers(self, square, square_ev):
        w = 0.3 + 0.1j
        d = make_divisor([(w, 1), (-w, 1)], [(0, 2)], square)
        g = build_elliptic(d, square)
        assert eval_elliptic(g, square_ev, w).is_zero()
        assert eval_elliptic(g, square_ev, 0) == PoleValue(2)
        assert eval_elliptic(g, square_ev, 0 + 1j) == PoleValue(2)

    def test_uncancelled_pair_refused(self, square_ev):
        # a quotient built by hand, not by build_elliptic or _fold_ratio
        q = weierstrass.SigmaQuotient(0j, 0j, (0.3 + 0.4j,), (1.3 + 0.4j,))
        with pytest.raises(ArithmeticError, match="congruent zero/pole factors were not cancelled"):
            eval_elliptic(q, square_ev, 0.3 + 0.4j)

    def test_periodicity(self, square_ev, rng):
        for _ in range(3):
            lat = random_lattice(rng)
            ev = SigmaEvaluator(lat)
            w = random_cell_point(rng, lat)
            x = random_cell_point(rng, lat)
            d = make_divisor(
                [(w, 1), (x, 1)],
                [(reduce_to_cell(w + x, lat), 1), (0, 1)],
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
            ratios.append(cmath.exp(gv.log()) / target)
        mean = sum(ratios) / len(ratios)
        assert max(abs(r / mean - 1) for r in ratios) <= 1e-8

    def test_congruent_factors_cancel(self, square, square_ev):
        # sigma(z - xi0) folds with the shifted zero xi0 + p1 of g into an exponential
        xi0, w = 0.2 + 0.3j, 1.2 + 0.3j
        g = weierstrass.SigmaQuotient(0j, 0j, (w,), ())
        q = synthesis._fold_ratio(g, xi0, 0.5j, square_ev)
        assert (q.zeros, q.poles) == ((0j,), ())
        assert q.exponent == 0.5j - square_ev.eta1
        z = 0.7 + 0.8j
        logs = [sigma(square_ev, z - u).log() for u in (0j, w, xi0)]
        expected = 0.5j * z + logs[0] + logs[1] - logs[2]
        assert rel_diff(eval_elliptic(q, square_ev, z), LogValue.from_log(expected)) <= 1e-12

    def test_exact_pair_preferred_over_congruent(self, square, square_ev):
        # sigma(z - a) meets a + p1 (congruent) before a (exact): the exact pair folds,
        # and so does sigma(z) with the exact pole 0 rather than p1
        a, b = 0.2 + 0.3j, 0.6 + 0.7j
        g = weierstrass.SigmaQuotient(0j, 0j, (a + 1, a), (b,))
        q = synthesis._fold_ratio(g, a, 0.5j, square_ev)
        assert q == weierstrass.SigmaQuotient(0.5j, 0j, (0j, a + 1), (b,))
        g = weierstrass.SigmaQuotient(0j, 0j, (b,), (1 + 0j, 0j))
        q = synthesis._fold_ratio(g, a, 0.5j, square_ev)
        assert q == weierstrass.SigmaQuotient(0.5j, 0j, (b,), (a, 1 + 0j))

    def test_duplicate_points(self, square, square_ev):
        # of the double zero a + p1 of g, the first folds with sigma(z - a); c and b stay
        a, b, c = 0.2 + 0.3j, 0.6 + 0.7j, 0.1 + 0.9j
        e1 = square_ev.eta1
        g = weierstrass.SigmaQuotient(0j, 0j, (c, a + 1, a + 1), (b,))
        q = synthesis._fold_ratio(g, a, 0j, square_ev)
        assert (q.zeros, q.poles) == ((0j, c, a + 1), (b,))
        assert q.exponent == -e1
        assert q.log_scale == -e1 * (-0.5 - a) + 1j * cmath.pi

    def test_quotient_cancelled_once(self, square, square_ev, monkeypatch):
        g = weierstrass.SigmaQuotient(0j, 0j, (1.2 + 0.3j, 0.4), (0.6 + 0.1j,))
        q = synthesis._fold_ratio(g, 0.2 + 0.3j, 0j, square_ev)
        before = eval_elliptic(q, square_ev, 0.7 + 0.8j)

        def refuse(*args, **kwargs):
            raise AssertionError("congruent factors cancelled at evaluation time")

        monkeypatch.setattr(synthesis, "_fold_ratio", refuse)
        assert eval_elliptic(q, square_ev, 0.7 + 0.8j) == before
        assert eval_elliptic(q, square_ev, 0.4).is_zero()
        assert eval_elliptic(q, square_ev, 0.6 + 0.1j) == PoleValue(1)


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
