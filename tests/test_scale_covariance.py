"""verify at any lattice scale: scaling the lattice and the divisor by c scales xi0 by c.

sigma, the multipliers and the divisor class are covariant under z -> c*z, so
`verify_spec` of (c*L, c*D) must pass its gate and recover c times the xi0 it
recovers at c = 1.  The contour integrates the exact f'/f, a sum of zeta values
with no step size, so its error stays relative to the scale.
"""

import pytest

from ellipse_phase import (
    make_divisor,
    make_lattice,
    report_passes,
    synthesize,
    torus_distance,
    verify_spec,
)

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

P1, P2 = 1 + 0j, 0.3 + 1.1j
ZEROS = (0.2 + 0.3j, 0.6 + 0.1j, 0.4 + 0.7j)
POLES = (0.5 + 0.5j, 0.3 + 0.2j, 0.45 + 0.35j)
M1, M2 = 1, -1


def scaled_spec(c: float):
    lat = make_lattice(c * P1, c * P2)
    d = make_divisor([(c * z, 1) for z in ZEROS], [(c * p, 1) for p in POLES], lat)
    return synthesize(d, M1, M2, lat)


@pytest.fixture(scope="module")
def unit_xi0():
    spec = scaled_spec(1.0)
    report = verify_spec(spec)
    assert report_passes(report, spec)
    return report.xi0_recovered


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=-6.0, max_value=9.0))
@example(-6.0)
@example(-5.0)
@example(3.0)
@example(6.0)
@example(7.5)
@example(9.0)
def test_verify_is_scale_covariant(unit_xi0, u):
    c = 10.0**u
    spec = scaled_spec(c)
    report = verify_spec(spec)
    assert report_passes(report, spec), report
    assert torus_distance(report.xi0_recovered / c, unit_xi0, make_lattice(P1, P2)) <= 1e-9
