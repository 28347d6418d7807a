import cmath
import math

import numpy as np
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
from ellipse_phase import weierstrass
from ellipse_phase.weierstrass import (
    MAX_SHELLS,
    SHELL_BLOCK,
    VMethod,
    _point_blocks,
    _shell_arrays,
    _unit_frame_distance,
    v_constant,
)

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

    @pytest.mark.parametrize("x", [math.pi, -math.pi, 3 * math.pi, TAU, 0.3])
    def test_from_log_inlines_wrap_angle(self, x):
        # LogValue.from_log repeats wrap_angle inline; -pi takes its phase <= -pi branch
        assert LogValue.from_log(complex(0, x)).phase.hex() == wrap_angle(x).hex()


class TestLogValue:
    def test_zero_conventions(self):
        z = LogValue.zero()
        assert z.is_zero() and z.phase == 0.0
        assert not LogValue(0.0, 0.0).is_zero()

    def test_from_log_wraps_phase(self):
        v = LogValue.from_log(complex(1.5, 7.0))
        assert v.log_mag == 1.5 and v.phase == pytest.approx(7.0 - TAU)
        assert cmath.exp(v.log()) == pytest.approx(cmath.exp(complex(1.5, 7.0)), rel=1e-15)


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
        assert rel_diff(lv, LogValue.from_log(cmath.log(z))) <= 1e-9

    def test_small_z_quartic_error(self, square_fast):
        # sigma(z)/z - 1 is O(z^4); assert the far weaker quadratic envelope
        ratios = []
        for scale in (1e-3, 1e-4, 1e-5):
            z = scale * cmath.exp(0.7j)
            err = rel_diff(sigma(square_fast, z), LogValue.from_log(cmath.log(z)))
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

    @pytest.mark.parametrize("z", [1e15, 1e16, 1e17, 1e20, complex(1e300, 1e300)])
    def test_far_point_is_no_lattice_hit(self, z):
        # z - lam had lost every bit there and read as a lattice point: sigma was
        # an exact zero and zeta None, although no such z lies on the lattice
        ev = SigmaEvaluator(make_lattice(1.1, 0.3 + 1.1j))
        with pytest.raises(AccuracyNotMet):
            sigma(ev, z)
        with pytest.raises(AccuracyNotMet):
            weierstrass.zeta(ev, z)

    def test_hits_within_three_periods_stay_exact(self):
        lat = make_lattice(1.1, 0.3 + 1.1j)
        ev = SigmaEvaluator(lat)
        for m in range(-3, 4):
            for n in range(-3, 4):
                lam = m * lat.p1 + n * lat.p2
                assert sigma(ev, lam).is_zero()
                assert weierstrass.zeta(ev, lam) is None

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(math.inf, 0), complex(0, -math.inf)])
    def test_non_finite_point_rejected(self, square_fast, square_direct, z):
        for ev in (square_fast, square_direct):
            with pytest.raises(ValueError, match="not finite"):
                sigma(ev, z)


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

    def test_j_validation(self, square_fast, square_direct):
        for ev in (square_fast, square_direct):
            with pytest.raises(ValueError):
                eta(ev, 3)


class TestDirectLatticeSum:
    """The DirectProduct evaluator runs the eta lattice sum only when asked."""

    @pytest.fixture
    def sums(self):
        # an empty memo, so the count is of sums that run, whatever ran before
        weierstrass._eta_sum.cache_clear()
        return lambda: weierstrass._eta_sum.cache_info().misses

    def test_sigma_runs_no_sum(self, sums):
        ev = SigmaEvaluator(make_lattice(1, 0.3 + 1.1j), backend="direct", truncation_shells=50)
        sigma(ev, 0.3 + 0.2j)
        assert sums() == 0

    def test_direct_evaluator_stores_no_array(self):
        # each direct sum builds its lattice points from the shell coordinates
        ev = SigmaEvaluator(make_lattice(1, 0.3 + 1.1j), backend="direct", truncation_shells=50)
        eta(ev, 1)
        sigma(ev, 0.3 + 0.2j)
        assert not [k for k, v in vars(ev).items() if isinstance(v, np.ndarray)]

    def test_eta_runs_one_sum(self, sums):
        ev = SigmaEvaluator(make_lattice(1, 0.3 + 1.1j), backend="direct", truncation_shells=50)
        eta(ev, 2)
        assert sums() == 1

    def test_direct_v_runs_one_sum(self, sums):
        v_constant(make_lattice(1, 0.3 + 1.1j), 0.2 - 0.1j, 1, method="direct", shells=50)
        assert sums() == 1

    @pytest.mark.parametrize(
        "p1, p2",
        [(1, 1j), (0.9 + 0.2j, 0.9 + 0.2j + (-0.1 + 1.2j)), (-0.1 + 1.2j, -(0.9 + 0.2j))],
        ids=["square", "sheared", "swapped"],
    )
    def test_direct_v_is_minus_xi0_times_eta(self, p1, p2):
        lat = make_lattice(p1, p2)
        xi0 = 0.37 - 0.21j
        for j in (1, 2):
            ev = SigmaEvaluator(lat, Backend.DIRECT_PRODUCT, 60)
            assert v_constant(lat, xi0, j, "direct", 60).v == -xi0 * eta(ev, j)


@pytest.mark.parametrize("N", [4, 70])
@pytest.mark.parametrize("j", [1, 2])
def test_eta_sum_omits_exactly_p_j(j, N):
    # _eta_sum drops p_j by its place in shell 1; a coordinate mask on the shell
    # list picks the same points.  Each term is more than 1e-4 of the sum at
    # N = 4 and 1e-9 at N = 70 (two blocks), and p_j's would divide by zero.
    # The plain, sheared and swapped bases, (1, 500i), whose p_1 and p_2 terms
    # are six orders apart, and the 1e-6 period floor and 1e75 ceiling.
    m, n = _shell_arrays(N)
    keep = (m != 2 - j) | (n != j - 1)
    assert np.count_nonzero(~keep) == 1
    for p1, p2 in [(1.3 - 0.2j, 0.4 + 1.1j), (1, 500j), *REF_BASES.values()]:
        shortest, longest = sorted((abs(p1), abs(p2)))
        for scale in (1.0, 1e-6 / shortest, 1e75 / longest):
            lat = make_lattice(scale * p1, scale * p2)
            pj = lat.p1 if j == 1 else lat.p2
            u = (m[keep] * lat.p1 + n[keep] * lat.p2) / pj
            expected = (25 / 8 + complex(np.sum((u**2 + 1) / (u**2 * (u**2 - 1) ** 2)))) / pj
            weierstrass._eta_sum.cache_clear()
            assert weierstrass.eta_from_sum(lat, j, N) == pytest.approx(expected, rel=1e-13)


class TestEtaMemo:
    """`eta_from_sum` runs each lattice sum once per process, keyed on the exact periods, j and N."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        # one _point_blocks call per sum that runs
        weierstrass._eta_sum.cache_clear()
        calls = []
        real = weierstrass._point_blocks
        monkeypatch.setattr(
            weierstrass, "_point_blocks", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        return calls

    def test_eta_then_direct_v_run_one_sum(self, blocks):
        # two equal lattices built apart, as two CLI calls build them
        lat_eta, lat_v = make_lattice(1, 0.3 + 1.1j), make_lattice(1, 0.3 + 1.1j)
        assert lat_eta is not lat_v
        xi0 = 0.37 - 0.21j
        for j in (1, 2):
            value = eta(SigmaEvaluator(lat_eta, "direct", 60), j)
            assert v_constant(lat_v, xi0, j, "direct", 60).v == -xi0 * value
        assert len(blocks) == 2

    def test_other_j_shells_or_lattice_run_a_new_sum(self, blocks):
        lat = make_lattice(1, 0.3 + 1.1j)
        weierstrass.eta_from_sum(lat, 1, 40)
        weierstrass.eta_from_sum(lat, 2, 40)
        weierstrass.eta_from_sum(lat, 1, 41)
        weierstrass.eta_from_sum(make_lattice(1, 0.3 + 1.2j), 1, 40)
        assert len(blocks) == 4
        weierstrass.eta_from_sum(lat, 1, 40)
        assert len(blocks) == 4

    @pytest.mark.parametrize(
        "periods",
        [
            [(1, 0.3 + 1.1j)],
            # Lattice equality merges the sign of a zero; the memo keeps them apart
            [(complex(1, 0), complex(0, 1)), (complex(1, -0.0), complex(-0.0, 1))],
            [(complex(-1, 0), complex(0.5, -1)), (complex(-1, -0.0), complex(0.5, -1))],
        ],
        ids=["generic", "signed-zero", "signed-zero-negative"],
    )
    def test_cached_value_is_the_fresh_sum(self, blocks, periods):
        lats = [make_lattice(*p) for p in periods]
        assert all(lat == lats[0] for lat in lats)
        for j in (1, 2):
            cached = [weierstrass.eta_from_sum(lat, j, 30) for lat in lats for _ in range(2)]
            fresh = []
            for lat in lats:
                weierstrass._eta_sum.cache_clear()
                fresh.append(weierstrass.eta_from_sum(lat, j, 30))
            assert [repr(v) for v in cached] == [repr(v) for v in fresh for _ in range(2)]
        assert len(blocks) == 4 * len(lats)


REF_SHELLS = 20

# a generic basis (P1, P2) with |P1|, |P2| >= 1, so its 1e-6 scaling is a valid lattice
P1, P2 = 1 + 0.3j, (1 + 0.3j) * (0.2 + 1.1j)
REF_BASES = {"square": (1, 1j), "sheared": (P1, P2 + 2 * P1), "swapped": (P2, -P1)}


def full_lattice(lat, N):
    """(lam, m, n) over every nonzero (m, n) with max(|m|, |n|) <= N: both points of each {lam, -lam}."""
    r = np.arange(-N, N + 1)
    m, n = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
    keep = (m != 0) | (n != 0)
    m, n = m[keep], n[keep]
    return m * lat.p1 + n * lat.p2, m, n


def reference_log_sigma(lat, z, N):
    """log z + sum log(1 - z/lam) + z/lam + z^2/(2 lam^2), one term per lattice point."""
    w = z / full_lattice(lat, N)[0]
    return cmath.log(z) + complex(np.sum(np.log1p(-w) + w + 0.5 * w * w))


def reference_eta(lat, j, N):
    """eta_j = 3/p_j - (p_j^2/2) sum -p_j/(lam^2 (lam+p_j)^2) over the points lam != -p_j."""
    lam, m, n = full_lattice(lat, N)
    p = lat.p1 if j == 1 else lat.p2
    lam = lam[(m != -(j == 1)) | (n != -(j == 2))]
    return 3 / p - p**2 / 2 * complex(np.sum(-p / (lam**2 * (lam + p) ** 2)))


class TestDirectReferenceSums:
    """The DirectProduct sums over one point of each {lam, -lam} match the literal full-lattice sums."""

    @pytest.fixture(params=sorted(REF_BASES))
    def lat(self, request):
        return make_lattice(*REF_BASES[request.param])

    @pytest.mark.parametrize("s, t", [(2.3, 0.4), (-1.6, 2.7), (3.9, -2.2), (0.35, -2.8)])
    def test_sigma_outside_the_cell(self, lat, s, t):
        z = s * lat.p1 + t * lat.p2
        direct = sigma(SigmaEvaluator(lat, "direct", REF_SHELLS), z)
        ref = LogValue.from_log(reference_log_sigma(lat, z, REF_SHELLS))
        assert log_distance(direct, ref) <= 1e-12 * (1 + abs(ref.log_mag))

    @pytest.mark.parametrize("angle", [0.0, 1.0, 2.5, -2.0])
    def test_sigma_next_to_a_lattice_point(self, lat, angle):
        # 1e-9 from lam = p1 + p2, where 1 - z^2/lam^2 is small
        z = lat.p1 + lat.p2 + 1e-9 * cmath.exp(1j * angle)
        ev = SigmaEvaluator(lat, "direct", REF_SHELLS)
        fast = SigmaEvaluator(lat)
        direct = sigma(ev, z)
        ref = LogValue.from_log(reference_log_sigma(lat, z, REF_SHELLS))
        assert log_distance(direct, ref) <= 1e-12 * (1 + abs(ref.log_mag))
        bound = ev.a_priori_bound(z) + fast.a_priori_bound(z)
        assert log_distance(direct, sigma(fast, z)) <= bound

    def test_sigma_at_200_shells(self, lat):
        # 80,400 points: the last block holds 6,672, not a whole number of 64-factor products
        assert 2 * 200 * 201 % SHELL_BLOCK % weierstrass._PRODUCT
        ev = SigmaEvaluator(lat, "direct", 200)
        # next to the origin the lattice sum is a small correction to log z
        near_origin = [0.02 * abs(lat.p1) * cmath.exp(1j * a) for a in (0.3, 1.7, -2.2)]
        for z in [0.31 * lat.p1 + 0.27 * lat.p2] + near_origin:
            ref = LogValue.from_log(reference_log_sigma(lat, z, 200))
            assert log_distance(sigma(ev, z), ref) <= 1e-12 * (1 + abs(ref.log_mag))

    def test_sigma_where_products_overflow(self):
        # far outside the cell (|z| ~ 3e4 periods; at |z| = 150 products stay within
        # e^162) a product of 64 factors 1 - z^2/lam^2 overflows, and its block
        # takes one log per factor
        lat, z = make_lattice(1, 1j), 30000.3 + 4000.2j
        w = z / next(_point_blocks(200, lat.p1, lat.p2))
        with np.errstate(over="ignore", invalid="ignore"):
            products = ((1 - w) * (1 + w)).reshape(weierstrass._PRODUCT, -1).prod(axis=0)
        assert not np.isfinite(products).all()
        direct = sigma(SigmaEvaluator(lat, "direct", 200), z)
        ref = LogValue.from_log(reference_log_sigma(lat, z, 200))
        assert log_distance(direct, ref) <= 1e-12 * (1 + abs(ref.log_mag))

    def test_sigma_where_the_block_product_overflows(self):
        # at |z| = 30 on the square the products of 64 factors stay within e^21,
        # but the first block's product overflows, so that block takes one log
        # per factor; the bound is finite here (c*N = 200 >= 60)
        lat, z = make_lattice(1, 1j), 30 * cmath.exp(0.3j)
        w = z / next(_point_blocks(200, lat.p1, lat.p2))
        with np.errstate(over="ignore", invalid="ignore"):
            t = (1 - w) * (1 + w)
            k = len(t) - len(t) % weierstrass._PRODUCT
            products = t[:k].reshape(weierstrass._PRODUCT, -1).prod(axis=0)
            assert np.all(np.abs(np.log(np.abs(products))) < 25)
            assert not np.isfinite(products.prod() * t[k:].prod())
        ev = SigmaEvaluator(lat, "direct", 200)
        direct = sigma(ev, z)
        ref = LogValue.from_log(reference_log_sigma(lat, z, 200))
        assert log_distance(direct, ref) <= 1e-12 * (1 + abs(ref.log_mag))
        assert log_distance(direct, sigma(SigmaEvaluator(lat), z)) <= ev.a_priori_bound(z) + 1e-12

    @pytest.mark.parametrize(
        "p1, p2",
        [(1, 1j), (1, 0.2 + 1.1j), (1.3 + 0.2j, 0.4 + 1.5j)],
        ids=["square", "sheared", "generic"],
    )
    def test_bound_counts_roundoff_next_to_the_origin(self, p1, p2):
        # below |z| ~ 4e-2|P1| the truncation term (~|z|^4) falls under the
        # roundoff of the 80,400 factors and 10 block logs, ~1e-12 measured
        lat = make_lattice(p1, p2)
        ev = SigmaEvaluator(lat, "direct", 200)
        size = abs(reduce_basis(lat).p1)
        for scale in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            for angle in (0.3, 1.7, -2.2):
                z = scale * size * cmath.exp(1j * angle)
                ref = LogValue.from_log(reference_log_sigma(lat, z, 200))
                assert log_distance(sigma(ev, z), ref) <= ev.a_priori_bound(z)
        # from |z| = 0.1|P1| on, where the benchmark's oracle checks sigma, the
        # roundoff adds ~2% of the paired truncation term, and ~2e-6 at |P1|
        c = _unit_frame_distance(lat)
        for scale, share in ((0.1, 0.025), (0.3, 3e-4), (1.0, 3e-6)):
            z = scale * size * cmath.exp(0.7j)
            truncation = (4 / 3) * (abs(z) / c) ** 4 / 200**2
            assert truncation < ev.a_priori_bound(z) <= truncation * (1 + share)

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_eta(self, lat, scale):
        # at the 1e-6 period floor lam^2 - p_j^2 is ~1e-12 for the neighbours of +-p_j
        lat = make_lattice(scale * lat.p1, scale * lat.p2)
        ev = SigmaEvaluator(lat, "direct", REF_SHELLS)
        for j in (1, 2):
            ref = reference_eta(lat, j, REF_SHELLS)
            assert abs(eta(ev, j) - ref) <= 1e-12 * abs(ref)


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
            red = reduce_basis(lat)
            ev = SigmaEvaluator(lat)
            evr = SigmaEvaluator(red)
            z = random_cell_point(rng, red)
            assert rel_diff(sigma(ev, z), sigma(evr, z)) <= 1e-10

    def test_direct_reports_bound(self, square_direct):
        # the paired tail (4/3)(|z|/c)^4/N^2, and roundoff ~7e-11 (3.4e-5 of it here)
        assert square_direct.a_priori_bound(0.4 + 0.3j) == pytest.approx(
            (4 / 3) * 0.5**4 / 200**2, rel=1e-4
        )
        assert math.isinf(square_direct.a_priori_bound(150.0))
        # sigma(0) is exactly zero; its bound is finite, so CLI sigma prints it
        assert math.isfinite(square_direct.a_priori_bound(0j))

    def test_direct_skips_theta_setup(self):
        # Im(P2/P1) = 500 is beyond the theta backend but fine for the lattice sum
        lat = make_lattice(1, 500j)
        ev = SigmaEvaluator(lat, backend=Backend.DIRECT_PRODUCT, truncation_shells=200)
        assert abs(eta(ev, 1) - math.pi**2 / 3) <= 1e-6
        assert not sigma(ev, 0.3 + 0.2j).is_zero()
        with pytest.raises(AccuracyNotMet):
            SigmaEvaluator(lat)

    @pytest.mark.parametrize("im", [240, 300, 413])
    def test_thin_lattice_refused_where_the_nome_underflows(self, im):
        # q = exp(i*pi*omega) is 0 in double precision from reduced Im(omega) ~237.3
        # up, so theta1'(0) would be 0: refused, not a ZeroDivisionError
        with pytest.raises(AccuracyNotMet, match="aspect ratio"):
            SigmaEvaluator(make_lattice(1, complex(0.2, im)))

    def test_thinnest_accepted_lattice_matches_direct(self):
        # at Im(omega) = 237 the nome is subnormal; its rounding cancels from
        # theta1(v)/theta1'(0), so sigma still agrees with the lattice product
        lat = make_lattice(1, 0.2 + 237j)
        fast = SigmaEvaluator(lat)
        direct = SigmaEvaluator(lat, backend=Backend.DIRECT_PRODUCT, truncation_shells=200)
        for z in (0.3 + 0.2j, -0.45 + 0.7j, 0.1 - 0.9j, 0.35 + 0.05j):
            bound = fast.a_priori_bound(z) + direct.a_priori_bound(z)
            assert log_distance(sigma(fast, z), sigma(direct, z)) <= bound

    def test_truncation_shells_validated(self):
        for backend in Backend:
            for shells in (0, MAX_SHELLS + 1):
                with pytest.raises(ValueError, match="truncation_shells"):
                    SigmaEvaluator(make_lattice(1, 1j), backend=backend, truncation_shells=shells)

    @pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1e-12])
    def test_target_rel_error_validated(self, target):
        # nan passed every roundoff certificate, inf read far points as exact
        # zeros, and 0 or a negative target refused every point
        for backend in Backend:
            with pytest.raises(ValueError, match="target_rel_error"):
                SigmaEvaluator(make_lattice(1, 1j), backend=backend, target_rel_error=target)

    def test_concurrent_evaluation(self, square_fast):
        # evaluators are immutable after construction: parallel reads agree
        from concurrent.futures import ThreadPoolExecutor

        zs = [complex(0.1 * k, 0.07 * k) + 0.11 + 0.13j for k in range(40)]
        expected = [sigma(square_fast, z) for z in zs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda z: sigma(square_fast, z), zs))
        assert results == expected
