import cmath
import math

import pytest

from ellipse_phase import (
    AccuracyNotMet,
    Backend,
    LogValue,
    SigmaEvaluator,
    eta,
    make_lattice,
    reduce_basis,
    sigma,
    wrap_angle,
)
from ellipse_phase.sigma_ratio import VMethod, v_constant

from conftest import random_cell_point, random_lattice

TAU = 2 * math.pi


def log_distance(a: LogValue, b: LogValue) -> float:
    """|log(a) - log(b)| with the phase difference wrapped to (-pi, pi]."""
    return abs(complex(a.log_mag - b.log_mag, wrap_angle(a.phase - b.phase)))


def rel_diff(a: LogValue, b: LogValue) -> float:
    """|a/b - 1| computed in the log domain."""
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, wrap_angle(a.phase - b.phase))) - 1)


class TestWrapAngle:
    def test_range(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(TAU) == 0.0
        assert wrap_angle(0.3) == pytest.approx(0.3)


class TestLogValue:
    def test_roundtrip(self):
        w = -0.3 + 1.7j
        assert LogValue.from_complex(w).to_complex() == pytest.approx(w, rel=1e-15)

    def test_zero_conventions(self):
        z = LogValue.from_complex(0)
        assert z.is_zero() and z.phase == 0.0
        assert z.to_complex() == 0

    def test_overflow_errors(self):
        with pytest.raises(OverflowError):
            LogValue(701.0, 0.0).to_complex()

    def test_product_and_quotient(self):
        a = LogValue.from_complex(2j)
        b = LogValue.from_complex(-1 + 1j)
        assert (a * b).to_complex() == pytest.approx(2j * (-1 + 1j), rel=1e-15)
        assert (a / b).to_complex() == pytest.approx(2j / (-1 + 1j), rel=1e-15)
        assert (a * LogValue.zero()).is_zero()


@pytest.fixture(scope="module")
def square_fast():
    return SigmaEvaluator(make_lattice(1, 1j))


@pytest.fixture(scope="module")
def square_direct():
    return SigmaEvaluator(
        make_lattice(1, 1j), backend=Backend.DIRECT_PRODUCT, truncation_shells=200
    )


class TestSigmaBasics:
    def test_zero_at_origin(self, square_fast):
        assert sigma(square_fast, 0).is_zero()

    def test_zeros_exactly_on_lattice(self, square_fast, square_direct):
        # the zero set of the product is the lattice itself
        z = 3 * 1 + 2 * 1j
        assert sigma(square_fast, z).is_zero()
        assert sigma(square_direct, z).is_zero()

    def test_leading_normalization(self, square_fast):
        z = 1e-6
        lv = sigma(square_fast, z)
        assert rel_diff(lv, LogValue.from_complex(z)) <= 1e-9

    def test_small_z_quartic_error(self, square_fast):
        # sigma(z)/z - 1 is O(z^4); assert the far weaker quadratic envelope
        ratios = []
        for scale in (1e-3, 1e-4, 1e-5):
            z = scale * cmath.exp(0.7j)
            err = rel_diff(sigma(square_fast, z), LogValue.from_complex(z))
            ratios.append(err / scale**2)
        assert ratios[0] <= 1e-5 / (1e-3) ** 2
        assert max(ratios) <= 10 * (1 + min(ratios))

    def test_cross_backend_agreement(self, square_fast, square_direct):
        assert rel_diff(sigma(square_fast, 0.43 + 0.17j), sigma(square_direct, 0.43 + 0.17j)) <= 1e-3

    def test_oddness(self, square_fast, rng):
        for _ in range(100):
            z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            if abs(z) < 0.05:
                continue
            a = sigma(square_fast, z)
            b = sigma(square_fast, -z)
            assert abs(a.log_mag - b.log_mag) <= 1e-10 * max(1, abs(a.log_mag))
            assert abs(wrap_angle(a.phase - b.phase - math.pi)) <= 1e-10

    def test_accuracy_certificate(self, square_fast):
        # far from the origin the quadratic quasi-period factor eats the budget
        with pytest.raises(AccuracyNotMet):
            sigma(square_fast, 123456.25 + 98765.5j)


class TestEta:
    def test_square_lattice_value(self, square_fast):
        # classical lemniscatic constant: eta_1 = pi for periods (1, i)
        assert abs(square_fast.eta1 - math.pi) <= 1e-12
        assert abs(square_fast.eta1.imag) <= 1e-13

    def test_legendre_relation(self, rng):
        for _ in range(10):
            lat = random_lattice(rng)
            ev = SigmaEvaluator(lat)
            combo = ev.eta1 * lat.p2 - ev.eta2 * lat.p1
            assert abs(combo - TAU * 1j) <= 1e-10 * abs(combo)

    def test_against_lattice_sum(self, rng):
        # independent route: eta_j = -v_j(xi0=1) by the literal paired sum
        lat = random_lattice(rng)
        ev = SigmaEvaluator(lat)
        for j in (1, 2):
            rc = v_constant(lat, 1.0, j, method=VMethod.DIRECT_SUM, shells=200)
            indep = -rc.v
            assert abs(indep - eta(ev, j)) <= rc.error_bound + 1e-12

    def test_scaling_homogeneity(self):
        lat = make_lattice(1, 1j)
        c = 1.7 - 0.3j
        scaled = make_lattice(c * lat.p1, c * lat.p2)
        ev = SigmaEvaluator(lat)
        evc = SigmaEvaluator(scaled)
        assert abs(evc.eta1 - ev.eta1 / c) <= 1e-12 * abs(ev.eta1 / c)
        assert abs(evc.eta2 - ev.eta2 / c) <= 1e-12 * abs(ev.eta2 / c)

    def test_j_validation(self, square_fast):
        with pytest.raises(ValueError):
            eta(square_fast, 3)


class TestQuasiPeriodicity:
    def test_shift_identity(self, rng):
        # sigma(z + p_j) = -sigma(z) exp(eta_j (z + p_j/2))
        for _ in range(50):
            lat = random_lattice(rng)
            ev = SigmaEvaluator(lat)
            z = random_cell_point(rng, lat)
            for j, p, e in ((1, lat.p1, ev.eta1), (2, lat.p2, ev.eta2)):
                lhs = sigma(ev, z + p)
                shift = e * (z + p / 2)
                rhs = LogValue.from_log(
                    sigma(ev, z).log() + shift + 1j * math.pi
                )
                assert rel_diff(lhs, rhs) <= 1e-8

    def test_quasi_reduce_against_direct_product(self, square_fast, square_direct):
        # the fast path reduces z by 5 and -3 periods; the product sums directly
        z = 0.2 - 0.3j + 5 * 1 - 3 * 1j
        fast_value = sigma(square_fast, z)
        direct_value = sigma(square_direct, z)
        assert log_distance(fast_value, direct_value) <= square_direct.a_priori_bound(z)
        assert log_distance(fast_value, direct_value) <= 0.2


class TestBackends:
    def test_convergence_rate(self, rng):
        # truncation error of the product should at least halve from 200 to 400 shells
        lat = make_lattice(1, 1j)
        fast = SigmaEvaluator(lat)
        d200 = SigmaEvaluator(lat, backend="direct", truncation_shells=200)
        d400 = SigmaEvaluator(lat, backend="direct", truncation_shells=400)
        errs = {200: [], 400: []}
        for _ in range(5):
            z = random_cell_point(rng, lat) - (lat.p1 + lat.p2) / 2
            if abs(z) < 0.1:
                continue
            ref = sigma(fast, z)
            errs[200].append(rel_diff(sigma(d200, z), ref))
            errs[400].append(rel_diff(sigma(d400, z), ref))
        assert max(errs[200]) <= 1e-3
        assert max(errs[400]) <= 0.5 * 1.3 * max(errs[200])

    def test_basis_covariance(self, rng):
        for _ in range(5):
            lat = make_lattice(1, complex(rng.uniform(2, 5), rng.uniform(1, 3)))
            red, _ = reduce_basis(lat)
            ev = SigmaEvaluator(lat)
            evr = SigmaEvaluator(red)
            z = random_cell_point(rng, red)
            assert rel_diff(sigma(ev, z), sigma(evr, z)) <= 1e-10

    def test_direct_reports_bound(self, square_direct):
        assert square_direct.a_priori_bound(0.4 + 0.3j) == pytest.approx(
            (16 / 3) * 0.5**3 / 200
        )
        assert math.isinf(square_direct.a_priori_bound(150.0))

    def test_truncation_shells_validated(self):
        with pytest.raises(ValueError):
            SigmaEvaluator(make_lattice(1, 1j), backend="direct", truncation_shells=0)

    def test_concurrent_evaluation(self, square_fast):
        # evaluators are immutable after construction: parallel reads agree
        from concurrent.futures import ThreadPoolExecutor

        zs = [complex(0.1 * k, 0.07 * k) + 0.11 + 0.13j for k in range(40)]
        expected = [sigma(square_fast, z) for z in zs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda z: sigma(square_fast, z), zs))
        assert results == expected
