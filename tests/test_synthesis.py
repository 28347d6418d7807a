import math

import pytest

from ellipse_phase import (
    Backend,
    IllConditioned,
    LogValue,
    PoleValue,
    SigmaEvaluator,
    UnbalancedDivisor,
    eval_f,
    make_divisor,
    make_lattice,
    solve_exponent,
    synthesize,
    torus_distance,
    wrap_angle,
    xi0_from_divisor,
    xi0_from_multipliers,
)

from ellipse_phase import lattice, synthesis

from conftest import random_cell_point, random_lattice

TAU = 2 * math.pi


def random_balanced_divisor(rng, lat, pairs):
    zeros = [(random_cell_point(rng, lat), 1) for _ in range(pairs)]
    poles = [(random_cell_point(rng, lat), 1) for _ in range(pairs)]
    return make_divisor(zeros, poles, lat)


@pytest.fixture(scope="module")
def square():
    return make_lattice(1, 1j)


class TestXi0:
    def test_from_multipliers(self, square):
        assert xi0_from_multipliers(0, 0, square) == 0
        assert abs(xi0_from_multipliers(TAU, 0, square)) < 1e-12
        assert abs(xi0_from_multipliers(math.pi, 0, square) - 0.5) < 1e-12

    def test_from_divisor(self, square):
        d = make_divisor([(0.25, 1), (0.75, 1)], [(0.5, 2)], square)
        assert abs(xi0_from_divisor(d, square)) < 1e-12
        d = make_divisor([(0.3, 1)], [(0.5, 1)], square)
        assert abs(xi0_from_divisor(d, square) - 0.2) < 1e-12
        d = make_divisor([(0.9, 1)], [(0.2, 1)], square)
        assert abs(xi0_from_divisor(d, square) - 0.3) < 1e-12

    def test_unbalanced_rejected(self, square):
        d = make_divisor([(0.3, 1)], [], square)
        with pytest.raises(UnbalancedDivisor):
            xi0_from_divisor(d, square)


class TestSolveExponent:
    def test_zero_rhs(self, square):
        assert solve_exponent(square, 0, 0, 0, 0) == 0

    def test_square_lattice_closed_form(self, square):
        v1, v2 = 0.4 + 0.9j, -1.1 + 0.3j
        m1, m2 = 2, -1
        a = solve_exponent(square, v1, v2, m1, m2)
        t1 = v1.imag + TAU * m1
        t2 = v2.imag + TAU * m2
        # p1 = 1 fixes Im(a) = t1; p2 = i fixes Re(a) = t2
        assert a == pytest.approx(complex(t2, t1), rel=1e-14)

    def test_random_against_explicit_inverse(self, rng):
        for _ in range(20):
            lat = random_lattice(rng)
            v1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            v2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            m1, m2 = rng.randint(-2, 2), rng.randint(-2, 2)
            a = solve_exponent(lat, v1, v2, m1, m2)
            for pj, vj, mj in ((lat.p1, v1, m1), (lat.p2, v2, m2)):
                assert abs((a * pj).imag - vj.imag - TAU * mj) <= 1e-12 * (
                    1 + abs(a * pj)
                )

    def test_ill_conditioned(self):
        thin = make_lattice(1, 1 + 1e-11j)
        with pytest.raises(IllConditioned):
            solve_exponent(thin, 0.1, 0.2, 0, 0)


class TestSynthesize:
    def test_empty_divisor_gives_constant(self, square):
        spec = synthesize(make_divisor([], [], square), 0, 0, square)
        assert spec.a == 0 and spec.xi0 == 0
        assert spec.alpha1 == 0 and spec.alpha2 == 0
        ev = SigmaEvaluator(square)
        assert eval_f(spec, ev, 0.37 + 0.11j) == LogValue(0.0, 0.0)

    @pytest.mark.parametrize("m1, m2", [(0.25, 0), (0, -1.5), (math.nan, 0), (0, math.inf)])
    def test_non_integral_m_refused(self, square, m1, m2):
        # m1 = 0.25 was stored as 0 while a was solved with 0.25: a phase turn of pi/2 per p1
        d = make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], square)
        with pytest.raises(ValueError, match="m1 and m2 must be integers"):
            synthesize(d, m1, m2, square)

    def test_integral_float_m_is_an_int(self, square):
        d = make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], square)
        spec = synthesize(d, 1.0, -1.0, square)
        assert (type(spec.m1), type(spec.m2)) == (int, int)
        assert spec == synthesize(d, 1, -1, square)

    def test_exponent_condition(self, rng):
        for _ in range(5):
            lat = random_lattice(rng)
            d = random_balanced_divisor(rng, lat, 2)
            spec = synthesize(d, 0, 0, lat)
            ev = SigmaEvaluator(lat)
            for pj, etaj, mj in ((lat.p1, ev.eta1, 0), (lat.p2, ev.eta2, 0)):
                vj = -etaj * spec.xi0
                assert abs((spec.a * pj).imag - vj.imag - TAU * mj) <= 1e-10
            # alpha is the real part of a*p_j - v_j
            assert spec.alpha1 == pytest.approx(
                (spec.a * lat.p1 + ev.eta1 * spec.xi0).real, abs=1e-10
            )

    def test_g_divisor_extends_input(self, square, rng):
        d = random_balanced_divisor(rng, square, 2)
        spec = synthesize(d, 0, 0, square)
        assert len(spec.g.zeros) == 3
        assert len(spec.g.poles) == 3
        g_classes = sorted(
            torus_distance(p, spec.xi0, square) < 1e-9 for p in spec.g.zeros
        )
        assert g_classes[-1]  # xi0 appears among g's zeros
        assert any(abs(p) < 1e-12 for p in spec.g.poles)

    def test_multiplier_realness_and_value(self, rng):
        for _ in range(3):
            lat = random_lattice(rng)
            d = random_balanced_divisor(rng, lat, 2)
            spec = synthesize(d, 0, 0, lat)
            ev = SigmaEvaluator(lat)
            for _ in range(25):
                z = random_cell_point(rng, lat)
                base = eval_f(spec, ev, z)
                if isinstance(base, PoleValue) or base.is_zero():
                    continue
                for pj, alphaj in ((lat.p1, spec.alpha1), (lat.p2, spec.alpha2)):
                    shifted = eval_f(spec, ev, z + pj)
                    dphase = wrap_angle(shifted.phase - base.phase)
                    dmag = shifted.log_mag - base.log_mag
                    assert abs(dphase) <= 1e-8
                    assert abs(dmag - alphaj) <= 1e-8 * (1 + abs(alphaj))

    def test_m_shift(self, rng):
        lat = random_lattice(rng)
        d = random_balanced_divisor(rng, lat, 1)
        base = synthesize(d, 0, 0, lat)
        bumped = synthesize(d, 1, 0, lat)
        step = solve_exponent(lat, 0, 0, 1, 0)
        assert abs((bumped.a - base.a) - step) <= 1e-12 * (1 + abs(step))

    def test_eval_markers(self, square):
        d = make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], square)
        spec = synthesize(d, 0, 0, square)
        ev = SigmaEvaluator(square)
        assert eval_f(spec, ev, 0.3 + 0.4j).is_zero()
        assert eval_f(spec, ev, 0.3 + 0.4j + (2 - 1j)).is_zero()
        assert eval_f(spec, ev, 0.6 + 0.1j) == PoleValue(1)
        # the g pole at 0 cancels against the sigma-ratio zero
        value = eval_f(spec, ev, 0)
        assert not value.is_zero() and not isinstance(value, PoleValue)

    def test_eval_uses_prebuilt_quotient(self, square, monkeypatch):
        d = make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], square)
        spec = synthesize(d, 1, -1, square)
        ev = SigmaEvaluator(square)
        before = eval_f(spec, ev, 0.7 + 0.8j)

        def refuse(*args, **kwargs):
            raise AssertionError("congruent factors cancelled at evaluation time")

        monkeypatch.setattr(synthesis, "_fold_ratio", refuse)
        assert eval_f(spec, ev, 0.7 + 0.8j) == before
        assert (spec.eval_zeros, spec.eval_poles) == (spec.quotient.zeros, spec.quotient.poles)

    def test_one_evaluator_per_spec(self, square, rng, evaluator_inits):
        # g and f share the evaluator that synthesize builds for the quasi-periods
        d = random_balanced_divisor(rng, square, 3)
        spec = synthesize(d, 1, -1, square)
        assert len(evaluator_inits) == 1
        assert spec.ev.lattice is square and spec.ev.backend is Backend.FAST_SERIES

    def test_xi0_zero_collapses_ratio(self, square):
        # balanced divisor with equal sums: f = exp(a z) g(z)
        d = make_divisor([(0.25, 1), (0.75, 1)], [(0.5, 2)], square)
        spec = synthesize(d, 0, 0, square)
        assert spec.xi0 == 0
        assert len(spec.eval_zeros) == 2
        assert len(spec.eval_poles) == 2

    def test_adjusted_xi0_zero_still_cancels(self, square):
        # sum defect lands on a nonzero lattice vector and the lex-largest
        # zero of g is xi0 itself; cancellation must survive the shift
        d = make_divisor(
            [(0.1 + 0.9j, 1), (0.1, 1)], [(0.9 + 0.95j, 1), (0.95, 1)], square
        )
        spec = synthesize(d, 0, 0, square)
        ev = SigmaEvaluator(square)
        assert len(spec.eval_zeros) == 2
        assert len(spec.eval_poles) == 2
        # f still has periodic phase
        z = 0.4 + 0.2j
        base = eval_f(spec, ev, z)
        shifted = eval_f(spec, ev, z + square.p1)
        assert abs(wrap_angle(shifted.phase - base.phase)) <= 1e-8

    @pytest.mark.parametrize("distinct", [False, True])
    def test_lattice_work_linear_in_degree(self, monkeypatch, distinct):
        # one zero and one pole of multiplicity 300, or 300 distinct zeros and
        # poles: synthesize merges and folds only xi0 and 0, so the lattice
        # coordinates it computes grow linearly with the degree, not with its square
        lat = make_lattice(1, 0.2 + 1.1j)
        if distinct:
            zeros = [((k + 0.5) / 300 * lat.p1 + 0.25 * lat.p2, 1) for k in range(300)]
            poles = [((k + 0.5) / 300 * lat.p1 + 0.75 * lat.p2, 1) for k in range(300)]
        else:
            zeros, poles = [(0.3 + 0.4j, 300)], [(0.6 + 0.1j, 300)]
        d = make_divisor(zeros, poles, lat)
        calls = []
        coordinates = lattice.coordinates
        monkeypatch.setattr(lattice, "coordinates", lambda *a: calls.append(1) or coordinates(*a))
        synthesize(d, 1, -1, lat)
        assert 0 < len(calls) <= 5000
