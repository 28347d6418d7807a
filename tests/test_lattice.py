import math

import pytest

from ellipse_phase import (
    DegenerateLattice,
    coordinates,
    make_lattice,
    reduce_basis,
    reduce_to_cell,
    torus_distance,
)
from ellipse_phase.lattice import _shell_arrays, _unit_frame_distance

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

    def test_non_finite_period_rejected(self):
        for p1, p2 in ((math.nan, 1j), (1, complex(0, math.inf)), (complex(math.nan, 0), 1j)):
            with pytest.raises(DegenerateLattice, match="finite"):
                make_lattice(p1, p2)

    def test_ratio_arithmetic(self):
        lat = make_lattice(2, 1 + 1j)
        assert lat.omega == (1 + 1j) / 2


class TestReduce:
    def test_origin_fixed(self):
        lat = make_lattice(1, 1j)
        cc = reduce_to_cell(0, lat)
        assert (cc.z0, cc.m, cc.n) == (0, 0, 0)

    def test_lattice_point_maps_to_origin(self):
        lat = make_lattice(1, 1j)
        cc = reduce_to_cell(1, lat)
        assert (cc.z0, cc.m, cc.n) == (0, 1, 0)

    def test_interior_point_fixed(self):
        lat = make_lattice(1, 1j)
        cc = reduce_to_cell(0.5 + 0.5j, lat)
        assert (cc.z0, cc.m, cc.n) == (0.5 + 0.5j, 0, 0)

    def test_roundtrip_and_range(self, rng):
        for _ in range(200):
            lat = random_lattice(rng)
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            cc = reduce_to_cell(z, lat)
            back = cc.z0 + cc.m * lat.p1 + cc.n * lat.p2
            assert abs(back - z) <= 1e-12 * (1 + abs(z))
            s, t = coordinates(cc.z0, lat)
            assert 0 <= s < 1 and 0 <= t < 1

    def test_idempotent_on_representative(self, rng):
        for _ in range(100):
            lat = random_lattice(rng)
            z0 = reduce_to_cell(complex(rng.uniform(-9, 9), rng.uniform(-9, 9)), lat).z0
            cc = reduce_to_cell(z0, lat)
            assert (cc.z0, cc.m, cc.n) == (z0, 0, 0)


class TestShells:
    def test_empty(self):
        m, n = _shell_arrays(0)
        assert len(m) == len(n) == 0

    def test_counts(self):
        assert len(_shell_arrays(1)[0]) == 8
        assert len(_shell_arrays(2)[0]) == 24
        for N in (3, 5):
            m, n = _shell_arrays(N)
            assert len(m) == (2 * N + 1) ** 2 - 1
            assert len(set(zip(m.tolist(), n.tolist()))) == len(m)

    def test_grouped_by_shell(self):
        m, n = _shell_arrays(4)
        ks = [max(abs(a), abs(b)) for a, b in zip(m.tolist(), n.tolist())]
        assert ks == sorted(ks)
        assert 0 not in ks

    def test_values_consistent(self):
        lat = make_lattice(1.3 - 0.2j, 0.4 + 1.1j)
        for m, n, value in shell_points(lat, 2):
            s, t = coordinates(value, lat)
            assert abs(s - m) < 1e-12 and abs(t - n) < 1e-12

    def test_array_enumeration_matches(self):
        # shell by shell, each sorted by (m, n) within the shell
        expected = []
        for k in range(1, 4):
            ring = [(m, n) for m in range(-k, k + 1) for n in range(-k, k + 1)]
            expected += sorted(p for p in ring if max(abs(p[0]), abs(p[1])) == k)
        m, n = _shell_arrays(3)
        assert list(zip(m.tolist(), n.tolist())) == expected


def _in_lattice(z, lat, tol=1e-9):
    s, t = coordinates(z, lat)
    return abs(s - round(s)) < tol and abs(t - round(t)) < tol


class TestReduceBasis:
    def test_already_reduced(self):
        lat = make_lattice(1, 1j)
        red, mat = reduce_basis(lat)
        assert (red.p1, red.p2) == (1, 1j)
        assert mat == ((1, 0), (0, 1))

    def test_shear(self):
        red, mat = reduce_basis(make_lattice(1, 1 + 1j))
        assert abs(red.omega - 1j) < 1e-15
        assert mat == ((1, 0), (-1, 1))
        # both bases generate the same points
        old = make_lattice(1, 1 + 1j)
        for _, _, value in shell_points(red, 3):
            assert _in_lattice(value, old)
        for _, _, value in shell_points(old, 3):
            assert _in_lattice(value, red)

    def test_long_shear(self):
        red, mat = reduce_basis(make_lattice(1, 10 + 1j))
        assert abs(red.omega.real) <= 0.5 + 1e-12
        assert abs(red.omega) >= 1 - 1e-12
        assert red.omega.imag > 0
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        assert det in (-1, 1)

    def test_exhaustive_oracle(self, rng):
        # some unimodular matrix with small entries must reproduce our reduction
        for _ in range(10):
            lat = make_lattice(1, complex(rng.uniform(-6, 6), rng.uniform(0.3, 4)))
            red, mat = reduce_basis(lat)
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
            assert mat in found

    def test_same_module(self, rng):
        for _ in range(20):
            lat = random_lattice(rng)
            red, mat = reduce_basis(lat)
            for _, _, value in shell_points(red, 1):
                assert _in_lattice(value, lat)
            for _, _, value in shell_points(lat, 1):
                assert _in_lattice(value, red)
            # matrix really maps old basis to new
            (a, b), (c, d) = mat
            assert abs(red.p1 - (a * lat.p1 + b * lat.p2)) < 1e-12
            assert abs(red.p2 - (c * lat.p1 + d * lat.p2)) < 1e-12


class TestHelpers:
    def test_torus_distance_wraps(self):
        lat = make_lattice(1, 1j)
        assert torus_distance(0.999, 0.0, lat) == pytest.approx(0.001, abs=1e-12)
        assert torus_distance(0.3 + 0.4j, 0.3 + 0.4j + 3 - 2j, lat) < 1e-12

    def test_unit_frame_distance_square(self):
        assert _unit_frame_distance(make_lattice(1, 1j)) == pytest.approx(1.0)
        # shells then obey |m p1 + n p2| >= k * frame distance
        lat = make_lattice(1.1 - 0.4j, 0.2 + 0.9j)
        c = _unit_frame_distance(lat)
        for m, n, value in shell_points(lat, 4):
            assert abs(value) >= max(abs(m), abs(n)) * c - 1e-12
