import cmath
import itertools
import math
import random

import numpy as np
import pytest

from ellipse_phase import (
    DegenerateLattice,
    coordinates,
    make_lattice,
    reduce_basis,
    reduce_to_cell,
    torus_distance,
)
from ellipse_phase.lattice import nearest_lattice_point
from ellipse_phase.weierstrass import SHELL_BLOCK, _point_blocks, _shell_arrays, _unit_frame_distance

from conftest import random_lattice


def shell_points(lat, N):
    """(m, n, m*p1 + n*p2) for the shells up to N, in enumeration order."""
    m, n = _shell_arrays(N)
    return list(zip(m.tolist(), n.tolist(), (m * lat.p1 + n * lat.p2).tolist()))


class TestMakeLattice:
    def test_unit_square(self):
        lat = make_lattice(1, 1j)
        assert lat.omega == 1j

    def test_real_ratio_rejected(self):
        with pytest.raises(DegenerateLattice):
            make_lattice(1, 2)

    def test_zero_period_rejected(self):
        with pytest.raises(DegenerateLattice):
            make_lattice(0, 1j)

    @pytest.mark.parametrize("p1, p2", [(1e-12, (0.3 + 1.1j) * 1e-12), (1, 9e-7j), (9e-7, 1j)])
    def test_period_below_scale_floor_rejected(self, p1, p2):
        # SNAP_TOL is absolute: below 1e6 * SNAP_TOL it would merge distinct points
        with pytest.raises(DegenerateLattice, match="at least"):
            make_lattice(p1, p2)

    @pytest.mark.parametrize("p1, p2", [(1e110, 1e110j), (1, 1.01e75j), (-2e75, 1j)])
    def test_period_above_ceiling_rejected(self, p1, p2):
        # the DirectSum tail bound takes the fourth power of a period
        with pytest.raises(DegenerateLattice, match="at most"):
            make_lattice(p1, p2)

    def test_period_at_ceiling_accepted(self):
        lat = make_lattice(1e75, 1e75j)
        assert reduce_basis(lat) == lat

    def test_non_finite_period_rejected(self):
        for p1, p2 in ((math.nan, 1j), (1, complex(0, math.inf)), (complex(math.nan, 0), 1j)):
            with pytest.raises(DegenerateLattice, match="finite"):
                make_lattice(p1, p2)

    def test_ratio_arithmetic(self):
        lat = make_lattice(2, 1 + 1j)
        assert lat.omega == (1 + 1j) / 2


def assert_lattice_vector(w, lat, tol=0.0):
    """w = m*p1 + n*p2 with integers (m, n), up to `tol` in each coordinate."""
    s, t = coordinates(w, lat)
    assert abs(s - round(s)) <= tol and abs(t - round(t)) <= tol


class TestReduce:
    def test_origin_fixed(self):
        lat = make_lattice(1, 1j)
        assert reduce_to_cell(0, lat) == 0

    def test_lattice_point_maps_to_origin(self):
        lat = make_lattice(1, 1j)
        z0 = reduce_to_cell(1, lat)
        assert z0 == 0
        assert coordinates(1 - z0, lat) == (1.0, 0.0)

    def test_interior_point_fixed(self):
        lat = make_lattice(1, 1j)
        assert reduce_to_cell(0.5 + 0.5j, lat) == 0.5 + 0.5j

    def test_roundtrip_and_range(self, rng):
        for _ in range(200):
            lat = random_lattice(rng)
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            z0 = reduce_to_cell(z, lat)
            assert_lattice_vector(z - z0, lat, tol=1e-12 * (1 + abs(z)))
            s, t = coordinates(z0, lat)
            assert 0 <= s < 1 and 0 <= t < 1

    def test_idempotent_on_representative(self, rng):
        for _ in range(100):
            lat = random_lattice(rng)
            z0 = reduce_to_cell(complex(rng.uniform(-9, 9), rng.uniform(-9, 9)), lat)
            assert reduce_to_cell(z0, lat) == z0

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.inf), -math.inf])
    def test_non_finite_point_rejected(self, z):
        lat = make_lattice(1, 1j)
        for call in (coordinates, reduce_to_cell):
            with pytest.raises(ValueError, match="not finite"):
                call(z, lat)
        with pytest.raises(ValueError, match="not finite"):
            torus_distance(z, 0.5, lat)


def full_shell_set(N):
    """Every nonzero (m, n) with max(|m|, |n|) <= N."""
    r = range(-N, N + 1)
    return {(m, n) for m in r for n in r if (m, n) != (0, 0)}


class TestShells:
    """The shell list holds one point of every pair {lam, -lam}."""

    def test_empty(self):
        m, n = _shell_arrays(0)
        assert len(m) == len(n) == 0

    def test_counts(self):
        assert len(_shell_arrays(1)[0]) == 4
        assert len(_shell_arrays(2)[0]) == 12
        for N in (3, 5, 20):
            m, n = _shell_arrays(N)
            assert len(m) == len(n) == 2 * N * (N + 1)
            assert len(set(zip(m.tolist(), n.tolist()))) == len(m)

    def test_no_point_with_its_negation(self):
        for N in (1, 4, 7):
            points = set(zip(*(a.tolist() for a in _shell_arrays(N))))
            assert not {(m, n) for m, n in points if (-m, -n) in points}

    def test_with_negations_is_the_full_shell_set(self):
        for N in (1, 2, 6):
            points = set(zip(*(a.tolist() for a in _shell_arrays(N))))
            assert points | {(-m, -n) for m, n in points} == full_shell_set(N)

    def test_grouped_by_shell(self):
        m, n = _shell_arrays(4)
        ks = [max(abs(a), abs(b)) for a, b in zip(m.tolist(), n.tolist())]
        assert ks == sorted(ks)
        assert 0 not in ks
        assert [ks.count(k) for k in range(1, 5)] == [4 * k for k in range(1, 5)]

    def test_values_consistent(self):
        lat = make_lattice(1.3 - 0.2j, 0.4 + 1.1j)
        for m, n, value in shell_points(lat, 2):
            s, t = coordinates(value, lat)
            assert abs(s - m) < 1e-12 and abs(t - n) < 1e-12

    def test_array_enumeration_matches(self):
        # shell by shell, each sorted by (m, n) within the shell; m > 0, or m == 0 and n > 0
        expected = []
        for k in range(1, 4):
            ring = [(m, n) for m in range(0, k + 1) for n in range(-k, k + 1)]
            expected += [p for p in ring if max(abs(p[0]), abs(p[1])) == k and (p[0] > 0 or p[1] > 0)]
        m, n = _shell_arrays(3)
        assert list(zip(m.tolist(), n.tolist())) == expected

    def test_point_blocks_cover_the_list(self):
        # N = 70 gives 9,940 points, more than one block
        N, a, b = 70, 1.3 - 0.2j, 0.4 + 1.1j
        m, n = _shell_arrays(N)
        blocks = list(_point_blocks(N, a, b))
        assert len(blocks) == -(-len(m) // SHELL_BLOCK) > 1
        assert np.array_equal(np.concatenate(blocks), m * a + n * b)


def _in_lattice(z, lat, tol=1e-9):
    s, t = coordinates(z, lat)
    return abs(s - round(s)) < tol and abs(t - round(t)) < tol


def basis_matrix(red, lat):
    """((a, b), (c, d)) with P1 = a*p1 + b*p2 and P2 = c*p1 + d*p2."""
    (a, b, _), (c, d, _) = (nearest_lattice_point(P, lat) for P in (red.p1, red.p2))
    return (a, b), (c, d)


def reduce_basis_with_matrix(lat):
    """Reference: Gauss reduction that carries the integer basis matrix along."""
    a, b = lat.p1, lat.p2
    ua, ub = (1, 0), (0, 1)
    if abs(b) < abs(a):
        a, b, ua, ub = b, a, ub, ua
    for _ in range(64):
        mu = round((b * a.conjugate()).real / abs(a) ** 2)
        if mu:
            b = b - mu * a
            ub = (ub[0] - mu * ua[0], ub[1] - mu * ua[1])
        if abs(b) < abs(a):
            a, b, ua, ub = b, a, ub, ua
        else:
            break
    if (b / a).imag < 0:
        b = -b
        ub = (-ub[0], -ub[1])
    return make_lattice(a, b), (ua, ub)


def presented_lattices(rng, count):
    """Random shapes presented by shears up to |k| = 1e5, swaps, negations and flips.

    Every 10th has its periods rounded to one decimal.
    """
    done = 0
    while done < count:
        base = random_lattice(rng)
        P1, P2 = base.p1, base.p2
        k = rng.choice((rng.randint(-5, 5), rng.randint(-1000, 1000), rng.randint(-10**5, 10**5)))
        p1, p2 = P1, P2 + k * P1
        variant = rng.randrange(4)
        if variant == 1:
            p1, p2 = p2, -p1
        elif variant == 2:
            p1, p2 = -p1, -p2
        elif variant == 3:
            p1, p2 = p2, p1
        if done % 10 == 0:
            p1 = complex(round(p1.real, 1), round(p1.imag, 1))
            p2 = complex(round(p2.real, 1), round(p2.imag, 1))
        try:
            yield make_lattice(p1, p2)
        except DegenerateLattice:
            continue
        done += 1


def small_period_lattices():
    """Every period pair with entries in {0, +-0.5, +-1, +-2} that spans a lattice."""
    vals = (0, 0.5, -0.5, 1, -1, 2, -2)
    for a, b, c, d in itertools.product(vals, repeat=4):
        try:
            yield make_lattice(complex(a, b), complex(c, d))
        except DegenerateLattice:
            pass


class TestReduceBasis:
    def test_already_reduced(self):
        lat = make_lattice(1, 1j)
        red = reduce_basis(lat)
        assert (red.p1, red.p2) == (1, 1j)
        assert basis_matrix(red, lat) == ((1, 0), (0, 1))

    def test_shear(self):
        old = make_lattice(1, 1 + 1j)
        red = reduce_basis(old)
        assert abs(red.omega - 1j) < 1e-15
        assert basis_matrix(red, old) == ((1, 0), (-1, 1))
        # both bases generate the same points
        for _, _, value in shell_points(red, 3):
            assert _in_lattice(value, old)
        for _, _, value in shell_points(old, 3):
            assert _in_lattice(value, red)

    def test_long_shear(self):
        lat = make_lattice(1, 10 + 1j)
        red = reduce_basis(lat)
        assert abs(red.omega.real) <= 0.5 + 1e-12
        assert abs(red.omega) >= 1 - 1e-12
        assert red.omega.imag > 0
        (a, b), (c, d) = basis_matrix(red, lat)
        assert a * d - b * c in (-1, 1)

    def test_exhaustive_oracle(self, rng):
        # some unimodular matrix with small entries must reproduce our reduction
        for _ in range(10):
            lat = make_lattice(1, complex(rng.uniform(-6, 6), rng.uniform(0.3, 4)))
            red = reduce_basis(lat)
            found = []
            for a in range(-9, 10):
                for b in range(-9, 10):
                    for c in range(-9, 10):
                        for d in range(-9, 10):
                            if a * d - b * c in (-1, 1):
                                q1 = a * lat.p1 + b * lat.p2
                                q2 = c * lat.p1 + d * lat.p2
                                om = q2 / q1
                                if (
                                    abs(om.real) <= 0.5 + 1e-9
                                    and abs(om) >= 1 - 1e-9
                                    and om.imag > 0
                                ):
                                    found.append(((a, b), (c, d)))
            assert basis_matrix(red, lat) in found

    def test_same_module(self, rng):
        for _ in range(20):
            lat = random_lattice(rng)
            red = reduce_basis(lat)
            for _, _, value in shell_points(red, 1):
                assert _in_lattice(value, lat)
            for _, _, value in shell_points(lat, 1):
                assert _in_lattice(value, red)
            # the matrix really maps the old basis to the new one
            (a, b), (c, d) = basis_matrix(red, lat)
            assert abs(red.p1 - (a * lat.p1 + b * lat.p2)) < 1e-12
            assert abs(red.p2 - (c * lat.p1 + d * lat.p2)) < 1e-12

    def test_coordinates_match_carried_matrix(self):
        # the matrix read back by nearest_lattice_point is the one the
        # reduction steps would carry, on sheared, swapped, negated and
        # flipped bases and on every small-entry period pair
        rng = random.Random(2024)
        lattices = [*presented_lattices(rng, 2000), *small_period_lattices()]
        for lat in lattices:
            ref, mat = reduce_basis_with_matrix(lat)
            red = reduce_basis(lat)
            assert (red.p1, red.p2) == (ref.p1, ref.p2)
            assert basis_matrix(red, lat) == mat, lat


class TestNearestLatticePoint:
    def test_remainder_in_centred_cell(self, rng):
        # sheared (P1, P2 + k*P1) and swapped (P2, -P1) bases, points far out
        for case in range(60):
            base = random_lattice(rng)
            k = case % 11 - 5
            lat = make_lattice(base.p1, base.p2 + k * base.p1)
            if case % 4 == 3:
                lat = make_lattice(base.p2, -base.p1)
            z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
            m, n, lam = nearest_lattice_point(z, lat)
            assert type(m) is int and type(n) is int
            assert lam == m * lat.p1 + n * lat.p2
            s, t = coordinates(z - lam, lat)
            assert -0.5 - 1e-12 <= s <= 0.5 + 1e-12
            assert -0.5 - 1e-12 <= t <= 0.5 + 1e-12

    def test_ties_round_half_up(self):
        lat = make_lattice(1, 1j)
        assert nearest_lattice_point(0.5 - 0.5j, lat) == (1, 0, 1 + 0j)
        assert nearest_lattice_point(-1.5 + 2.49j, lat) == (-1, 2, -1 + 2j)


class TestHelpers:
    def test_torus_distance_wraps(self):
        lat = make_lattice(1, 1j)
        assert torus_distance(0.999, 0.0, lat) == pytest.approx(0.001, abs=1e-12)
        assert torus_distance(0.3 + 0.4j, 0.3 + 0.4j + 3 - 2j, lat) < 1e-12

    @staticmethod
    def sheared_and_swapped(rng):
        """(base, presented) for shears (P1, P2 + k*P1) and the swap (P2, -P1)."""
        for k in (*range(-5, 6), 50, -50, 1000, -1000, "swap"):
            base = random_lattice(rng)
            if k == "swap":
                yield base, make_lattice(base.p2, -base.p1)
            else:
                yield base, make_lattice(base.p1, base.p2 + k * base.p1)

    def test_torus_distance_small_separation(self, rng):
        # exact |a - b|, and the 3x3 translate scan it replaced agrees up to
        # that scan's own rounding of translates of size |p1| + |p2|
        def scan(a, b, lat):
            z0 = reduce_to_cell(a - b, lat)
            return min(abs(z0 - (i * lat.p1 + j * lat.p2)) for i in (-1, 0, 1) for j in (-1, 0, 1))

        for _ in range(40):
            for base, lat in self.sheared_and_swapped(rng):
                a = rng.uniform(-2, 2) * base.p1 + rng.uniform(-2, 2) * base.p2
                b = a + rng.uniform(0, 1e-6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                dist = torus_distance(a, b, lat)
                assert dist == abs(a - b)
                assert abs(dist - scan(a, b, lat)) <= 1e-15 * (1 + abs(lat.p1) + abs(lat.p2))

    def test_torus_distance_is_a_lattice_offset(self, rng):
        # any separation: |d - lam| for a lattice vector lam near d, and never
        # below the true distance, found by brute force on the reduced basis
        for _ in range(20):
            for base, lat in self.sheared_and_swapped(rng):
                d = rng.uniform(-3, 3) * base.p1 + rng.uniform(-3, 3) * base.p2
                dist = torus_distance(d, 0, lat)
                s, t = coordinates(d, lat)
                near = [
                    abs(d - (i * lat.p1 + j * lat.p2))
                    for i in range(round(s) - 1, round(s) + 2)
                    for j in range(round(t) - 1, round(t) + 2)
                ]
                assert min(abs(dist - x) for x in near) <= 1e-15 * (1 + abs(d))
                red = reduce_basis(lat)
                window = range(-12, 13)
                brute = min(abs(d - (i * red.p1 + j * red.p2)) for i in window for j in window)
                assert dist >= brute - 1e-12 * (1 + abs(d))

    def test_unit_frame_distance_square(self):
        assert _unit_frame_distance(make_lattice(1, 1j)) == pytest.approx(1.0)
        # shells then obey |m p1 + n p2| >= k * frame distance
        lat = make_lattice(1.1 - 0.4j, 0.2 + 0.9j)
        c = _unit_frame_distance(lat)
        for m, n, value in shell_points(lat, 4):
            assert abs(value) >= max(abs(m), abs(n)) * c - 1e-12
