import random

import pytest

from ellipse_phase import (
    PoleOrZeroHit,
    SigmaEvaluator,
    make_lattice,
    ratio_residual,
    v_constant,
)
from ellipse_phase.sigma_ratio import VMethod
from ellipse_phase.weierstrass import _paired_term

from conftest import random_cell_point, random_lattice


class TestPairing:
    def test_orbit_identity(self, rng):
        # term(lam) + term(-lam-p) collapses to -p/(lam^2 (lam+p)^2)
        for _ in range(20):
            lat = random_lattice(rng)
            p = lat.p1 if rng.random() < 0.5 else lat.p2
            m, n = rng.randint(-9, 9), rng.randint(-9, 9)
            lam = m * lat.p1 + n * lat.p2
            if abs(lam) < 1e-9 or abs(lam + p) < 1e-9:
                continue
            single = 1 / (lam * (lam + p) ** 2)
            partner = -lam - p
            combined = single + 1 / (partner * (partner + p) ** 2)
            assert abs(combined - _paired_term(lam, p)) <= 1e-14 * abs(combined)


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

    def test_pole_hit(self):
        ev = SigmaEvaluator(make_lattice(1, 1j))
        with pytest.raises(PoleOrZeroHit):
            ratio_residual(ev, 0.3 + 0.2j, 1, 0.0)
        # z - xi0 + p_j on the lattice
        with pytest.raises(PoleOrZeroHit):
            ratio_residual(ev, 0.3 + 0.2j, 2, 0.3 - 0.8j)

    def test_j_validation(self):
        ev = SigmaEvaluator(make_lattice(1, 1j))
        with pytest.raises(ValueError):
            ratio_residual(ev, 0.3 + 0.2j, 3, 0.41 + 0.27j)
