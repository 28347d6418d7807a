"""Basis invariance of sigma, eta, xi0 and verify, and a 30-digit theta oracle for sigma, eta and zeta.

sigma, the quasi-period of a lattice vector and the divisor class depend only
on the lattice, so every basis of one lattice must give the same values up to
rounding.  The property tests present lattices of the conftest family by
sheared (P1, P2 + k*P1), swapped (P2, -P1), negated (-P1, -P2) and reversed
(P2, P1) bases; the rounding of the sheared basis grows with |k|, hence the
bound 1e-12 * (1 + |k|).  `verify_spec` must pass on every sheared basis with
|k| <= 3, however long and thin the presented cell.
"""

import cmath
import random

import pytest

from ellipse_phase import (
    SigmaEvaluator,
    eta,
    make_divisor,
    make_lattice,
    reduce_basis,
    report_passes,
    sigma,
    synthesize,
    torus_distance,
    verify_spec,
    wrap_angle,
)

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_cell_point, random_lattice  # noqa: E402

from ellipse_phase.lattice import nearest_lattice_point  # noqa: E402
from ellipse_phase.weierstrass import _unit_frame_distance, zeta  # noqa: E402

#: (basis matrix M, k): the presented basis is (p1, p2) = M (P1, P2).
PRESENTATIONS = (
    [(((1, 0), (k, 1)), k) for k in range(-5, 6)]
    + [(((0, 1), (-1, 0)), 0), (((-1, 0), (0, -1)), 0), (((0, 1), (1, 0)), 0)]
    + [(((1, 0), (k, 1)), k) for k in (50, -50, 1000, -1000)]
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
LATTICES = st.randoms(use_true_random=False)


def present(lat, matrix):
    (a, b), (c, d) = matrix
    return make_lattice(a * lat.p1 + b * lat.p2, c * lat.p1 + d * lat.p2)


@PROPERTY
@given(LATTICES, st.sampled_from(PRESENTATIONS))
def test_log_sigma_basis_invariant(rng, presentation):
    matrix, k = presentation
    lat = random_lattice(rng)
    z = random_cell_point(rng, lat) + rng.randint(-2, 1) * lat.p1 + rng.randint(-2, 1) * lat.p2
    want = sigma(SigmaEvaluator(lat), z)
    got = sigma(SigmaEvaluator(present(lat, matrix)), z)
    diff = complex(got.log_mag - want.log_mag, wrap_angle(got.phase - want.phase))
    assert abs(diff) <= 1e-12 * (1 + abs(k)) * (1 + abs(want.log()))


@PROPERTY
@given(LATTICES, st.sampled_from(PRESENTATIONS))
def test_eta_transforms_by_basis_matrix(rng, presentation):
    matrix, k = presentation
    (a, b), (c, d) = matrix
    lat = random_lattice(rng)
    base = SigmaEvaluator(lat)
    e1, e2 = eta(base, 1), eta(base, 2)
    other = SigmaEvaluator(present(lat, matrix))
    for got, want in ((eta(other, 1), a * e1 + b * e2), (eta(other, 2), c * e1 + d * e2)):
        assert abs(got - want) <= 1e-12 * (1 + abs(k)) * (1 + abs(want))


@PROPERTY
@given(LATTICES, st.sampled_from(PRESENTATIONS))
def test_xi0_agrees_mod_lattice(rng, presentation):
    matrix, k = presentation
    lat = random_lattice(rng)
    other = present(lat, matrix)
    pairs = rng.randint(1, 3)
    points = [(random_cell_point(rng, lat), 1) for _ in range(2 * pairs)]
    zeros, poles = points[:pairs], points[pairs:]
    xi0 = synthesize(make_divisor(zeros, poles, lat), 0, 0, lat).xi0
    xi0_other = synthesize(make_divisor(zeros, poles, other), 0, 0, other).xi0
    assert torus_distance(xi0_other, xi0, lat) <= 1e-12 * (1 + abs(k)) * (1 + abs(xi0))


@PROPERTY
@given(LATTICES, st.integers(-3, 3))
def test_verify_passes_on_sheared_bases(rng, k):
    # a zero at the origin in about a third of the draws
    lat = random_lattice(rng)
    sheared = make_lattice(lat.p1, lat.p2 + k * lat.p1)
    pairs = rng.randint(1, 3)
    points = [(random_cell_point(rng, lat), 1) for _ in range(2 * pairs)]
    if rng.random() < 1 / 3:
        points[0] = (0j, 1)
    d = make_divisor(points[:pairs], points[pairs:], sheared)
    spec = synthesize(d, rng.randint(-1, 1), rng.randint(-1, 1), sheared)
    assert report_passes(verify_spec(spec), spec)


def theta_oracle(
    p1: complex, p2: complex, points, digits: int = 30
) -> tuple[complex, list[complex], list[complex]]:
    """eta_1, and log sigma and zeta at the points, from mpmath's theta_1 at `digits` digits.

    sigma(z) = (p1/pi) exp(eta1 z^2 / (2 p1)) theta1(pi z / p1) / theta1'(0), its
    log-derivative zeta(z) = eta1 z / p1 + (pi/p1) theta1'(pi z / p1) / theta1(pi z / p1)
    and eta1 = -pi^2 theta1'''(0) / (3 p1 theta1'(0)), with nome q = exp(i pi p2/p1);
    p2 is negated if need be so that Im(p2/p1) > 0, which keeps the lattice.
    """
    with mpmath.workdps(digits):
        P1, P2 = mpmath.mpc(p1), mpmath.mpc(p2)
        if (P2 / P1).imag < 0:
            P2 = -P2
        q = mpmath.exp(1j * mpmath.pi * P2 / P1)
        t1p = mpmath.jtheta(1, 0, q, 1)
        eta1 = -(mpmath.pi**2) * mpmath.jtheta(1, 0, q, 3) / (3 * P1 * t1p)
        logs, zetas = [], []
        for z in points:
            Z = mpmath.mpc(z)
            u = mpmath.pi * Z / P1
            theta = mpmath.jtheta(1, u, q)
            logs.append(complex(mpmath.log(P1 / mpmath.pi * theta / t1p) + eta1 * Z**2 / (2 * P1)))
            zetas.append(complex(eta1 * Z / P1 + mpmath.pi / P1 * mpmath.jtheta(1, u, q, 1) / theta))
        return complex(eta1), logs, zetas


def test_theta_oracle_matches_sigma_and_eta():
    rng = random.Random(7)
    for _ in range(40):
        lat = random_lattice(rng)
        P1, P2 = lat.p1, lat.p2
        for p1, p2 in ((P1, P2), (P1, P2 + 2 * P1), (P2, -P1)):
            ev = SigmaEvaluator(make_lattice(p1, p2))
            points = [rng.uniform(-1.5, 1.5) * P1 + rng.uniform(-1.5, 1.5) * P2 for _ in range(2)]
            eta1, logs, _ = theta_oracle(p1, p2, points)
            assert abs(eta(ev, 1) - eta1) <= 1e-13 * (1 + abs(eta1))
            for z, want in zip(points, logs):
                got = sigma(ev, z)
                diff = complex(got.log_mag - want.real, wrap_angle(got.phase - want.imag))
                assert abs(diff) <= 1e-13 * (1 + abs(want))


def test_theta_oracle_matches_zeta():
    # the conftest lattices presented as sheared and swapped, at points 1-3
    # periods out in each direction, so the reduction of v = pi*z/P1 takes odd
    # and even m and n (collected in `parities`).  zeta' = -wp is large next to
    # a lattice point, so the rounding of the reduced argument, ~eps*|z|,
    # allows more than eps*|zeta|
    rng = random.Random(8)
    parities = set()
    for _ in range(40):
        lat = random_lattice(rng)
        P1, P2 = lat.p1, lat.p2
        for p1, p2 in ((P1, P2 + 2 * P1), (P2, -P1)):
            ev = SigmaEvaluator(make_lattice(p1, p2))
            red = reduce_basis(ev.lattice)
            points = []
            for _ in range(3):
                m, n = (rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(2))
                points.append(random_cell_point(rng, lat) + m * P1 + n * P2)
            _, _, zetas = theta_oracle(p1, p2, points)
            for z, want in zip(points, zetas):
                assert abs(zeta(ev, z) - want) <= 1e-12 * (1 + abs(want))
                m, n = nearest_lattice_point(z, red)[:2]
                parities.add((m % 2, n % 2))
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_theta_oracle_next_to_a_period():
    # z = k*P + d for a period P of a reduced basis, k in {-2, -1, 1, 2} and |d|
    # from 1e-9 to 1e-3 of |P|: the kernel subtracts k*P exactly there, so log
    # sigma keeps its accuracy.  Rounding pi*z/P1 before subtracting pi*k would
    # lose eps*|v|/|v0|, ~1e-6 at |d| = 1e-9.
    rng = random.Random(9)
    for _ in range(10):
        red = reduce_basis(random_lattice(rng))
        ev = SigmaEvaluator(red)
        points = [
            rng.choice((-2, -1, 1, 2)) * P + 10.0 ** rng.uniform(-9, -3) * abs(P) * cmath.exp(1j * rng.uniform(0, 7))
            for P in (red.p1, red.p2)
            for _ in range(3)
        ]
        _, logs, _ = theta_oracle(red.p1, red.p2, points)
        for z, want in zip(points, logs):
            got = sigma(ev, z)
            diff = complex(got.log_mag - want.real, wrap_angle(got.phase - want.imag))
            assert abs(diff) <= 1e-13 * (1 + abs(want))


#: plain, sheared and swapped presentations of a lattice, for the direct bound
DIRECT_BASES = (((1, 0), (0, 1)), ((1, 0), (2, 1)), ((0, 1), (-1, 0)))


@PROPERTY
@given(
    LATTICES,
    st.sampled_from(DIRECT_BASES),
    st.integers(2, 300),
    st.floats(-5, 0),
    st.floats(0, 2 * cmath.pi),
)
def test_direct_log_sigma_within_its_bound(rng, matrix, N, exponent, angle):
    # the paired tail (4/3)(|z|/c)^4/N^2 plus roundoff, against 50 digits, at
    # |z| from 1e-5 to 1 of c*N/2, the largest |z| with a finite bound
    lat = present(random_lattice(rng), matrix)
    ev = SigmaEvaluator(lat, "direct", N)
    z = 10**exponent * _unit_frame_distance(lat) * N / 2 * cmath.exp(1j * angle)
    got = sigma(ev, z)
    hypothesis.assume(not got.is_zero())
    red = reduce_basis(lat)
    _, (want,), _ = theta_oracle(red.p1, red.p2, [z], digits=50)
    diff = complex(got.log_mag - want.real, wrap_angle(got.phase - want.imag))
    assert abs(diff) <= ev.a_priori_bound(z)
