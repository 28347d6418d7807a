import cmath
import math
import random

import pytest

from ellipse_phase import SigmaEvaluator, make_lattice, v_constant
from ellipse_phase.weierstrass import VMethod, _direct_sum_tail

from conftest import log_ratio, random_cell_point, random_lattice


def ratio_residual(ev: SigmaEvaluator, xi0: complex, j: int, z: complex) -> float:
    """|R_j(z) * exp(-v_j) - 1| with v_j from v_constant's default route."""
    v = v_constant(ev.lattice, xi0, j).v
    return abs(cmath.exp(log_ratio(ev, xi0, j, z) - v) - 1)


class TestPairing:
    def test_orbit_identity(self, rng):
        # the four terms of the orbit {lam, -lam-p, -lam, lam-p} of term(lam) = 1/(lam (lam+p)^2)
        # sum to the -2p(lam^2 + p^2)/(lam^2 (lam^2 - p^2)^2) that eta_from_sum adds per {lam, -lam}
        def term(lam, p):
            return 1 / (lam * (lam + p) ** 2)

        checked = 0
        for _ in range(20):
            lat = random_lattice(rng)
            p = lat.p1 if rng.random() < 0.5 else lat.p2
            m, n = rng.randint(-9, 9), rng.randint(-9, 9)
            lam = m * lat.p1 + n * lat.p2
            if min(abs(lam), abs(lam + p), abs(lam - p)) < 1e-9:
                continue
            orbit = term(lam, p) + term(-lam - p, p) + term(-lam, p) + term(lam - p, p)
            pair = -2 * p * (lam**2 + p**2) / (lam**2 * (lam**2 - p**2) ** 2)
            assert abs(orbit - pair) <= 1e-13 * abs(orbit)
            checked += 1
        assert checked >= 15


class TestVConstant:
    def test_zero_offset(self):
        lat = make_lattice(1, 1j)
        for method in (VMethod.VIA_ETA, VMethod.DIRECT_SUM):
            rc = v_constant(lat, 0, 1, method=method, shells=20)
            assert rc.v == 0

    def test_linearity(self, rng):
        lat = random_lattice(rng)
        xi0 = random_cell_point(rng, lat)
        a = v_constant(lat, xi0, 1)
        b = v_constant(lat, 2 * xi0, 1)
        assert b.v == 2 * a.v  # exact: the eta route is a single product
        ad = v_constant(lat, xi0, 2, method=VMethod.DIRECT_SUM, shells=40)
        bd = v_constant(lat, 2 * xi0, 2, method=VMethod.DIRECT_SUM, shells=40)
        assert abs(bd.v - 2 * ad.v) <= ad.error_bound

    def test_direct_matches_eta_route(self):
        lat = make_lattice(1, 1j)
        xi0 = 0.3 + 0.2j
        direct = v_constant(lat, xi0, 1, method=VMethod.DIRECT_SUM, shells=200)
        ref = v_constant(lat, xi0, 1, method=VMethod.VIA_ETA)
        assert abs(direct.v - ref.v) <= 1e-3 * abs(ref.v)
        assert abs(direct.v - ref.v) <= direct.error_bound

    def test_error_bound_honest(self, rng):
        for _ in range(5):
            lat = random_lattice(rng)
            xi0 = random_cell_point(rng, lat)
            j = rng.choice([1, 2])
            ref = v_constant(lat, xi0, j)
            for shells in (10, 50, 150):
                rc = v_constant(lat, xi0, j, method=VMethod.DIRECT_SUM, shells=shells)
                assert abs(rc.v - ref.v) <= rc.error_bound

    def test_closed_form_tail_bounds_the_series(self):
        # on the unit square c = 1, so the bound for |p_j| = 1 is 4 * (1/(2x^2) + 1/(6x^3)),
        # against the series 4 * sum_{k >= N} 1/(k (k-1)^2) = 4 * (psi_1(x) - 1/x), x = N - 1
        mpmath = pytest.importorskip("mpmath")
        square = make_lattice(1, 1j)
        with mpmath.workdps(30):
            for N in range(2, 1001):
                x = mpmath.mpf(N - 1)
                series = 4 * (mpmath.psi(1, x) - 1 / x)
                assert _direct_sum_tail(square, 1.0, N) >= series, N

    def test_routes_agree_within_both_bounds(self, rng):
        # the presented basis sets the shells, so shears and swaps change the direct sum
        for _ in range(4):
            lat = random_lattice(rng)
            xi0 = random_cell_point(rng, lat)
            shears = [make_lattice(lat.p1, lat.p2 + k * lat.p1) for k in range(-3, 4)]
            for presented in shears + [make_lattice(lat.p2, -lat.p1)]:
                for j in (1, 2):
                    eta_route = v_constant(presented, xi0, j)
                    direct = v_constant(presented, xi0, j, method=VMethod.DIRECT_SUM, shells=30)
                    gap = abs(direct.v - eta_route.v)
                    assert gap <= direct.error_bound + eta_route.error_bound

    def test_quadratic_convergence(self, rng):
        # halving steps shrink the truncation error by roughly 4
        for seed in range(3):
            case = random.Random(900 + seed)
            lat = random_lattice(case)
            xi0 = random_cell_point(case, lat)
            j = case.choice([1, 2])
            ref = v_constant(lat, xi0, j).v
            errs = [
                abs(v_constant(lat, xi0, j, method=VMethod.DIRECT_SUM, shells=N).v - ref)
                for N in (50, 100, 200)
            ]
            for coarse, fine in zip(errs, errs[1:]):
                assert 3.0 <= coarse / fine <= 5.5

    def test_additivity_under_basis_change(self, rng):
        # v for the period p1+p2 equals v1 + v2, computed on the sheared basis
        for _ in range(5):
            lat = random_lattice(rng)
            xi0 = random_cell_point(rng, lat)
            sheared = make_lattice(lat.p1, lat.p1 + lat.p2)
            v1 = v_constant(lat, xi0, 1).v
            v2 = v_constant(lat, xi0, 2).v
            vsum = v_constant(sheared, xi0, 2).v
            assert abs(vsum - (v1 + v2)) <= 1e-8 * (1 + abs(vsum))

    def test_validation(self):
        lat = make_lattice(1, 1j)
        with pytest.raises(ValueError):
            v_constant(lat, 0.1, 3)
        with pytest.raises(ValueError):
            v_constant(lat, 0.1, 1, method=VMethod.DIRECT_SUM, shells=1)

    @pytest.mark.parametrize("method", list(VMethod))
    def test_non_finite_xi0_rejected(self, method):
        lat = make_lattice(1, 1j)
        for xi0 in (complex(math.nan, 0), complex(0, math.inf)):
            with pytest.raises(ValueError, match="not finite"):
                v_constant(lat, xi0, 1, method=method)


class TestRatioResidual:
    def test_zero_offset_exact(self):
        lat = make_lattice(1, 1j)
        ev = SigmaEvaluator(lat)
        assert ratio_residual(ev, 0, 1, 0.37 + 0.21j) == 0.0

    def test_square_lattice_case(self):
        ev = SigmaEvaluator(make_lattice(1, 1j))
        for j in (1, 2):
            assert ratio_residual(ev, 0.3 + 0.2j, j, 0.41 + 0.27j) <= 1e-8

    def test_z_independent(self, rng):
        ev = SigmaEvaluator(make_lattice(1, 1j))
        residuals = [
            ratio_residual(ev, 0.3 + 0.2j, 1, random_cell_point(rng, ev.lattice))
            for _ in range(2)
        ]
        assert abs(residuals[0] - residuals[1]) <= 1e-8
