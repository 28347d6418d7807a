"""One per-factor sigma kernel behind sigma and eval_f, and zeta behind the exact f'/f.

`eval_f` adds and subtracts the kernel's values without building a LogValue
per factor.  These tests pin that down to the bit: it must equal the same sum
written with the public `sigma(...).log()`, in the same order, on both
backends, at points whose range reduction takes odd and even lattice
coordinates, and at zero and pole hits.  `zeta` shares the kernel's range
reduction; `log_derivative` sums it into the f'/f that `verify_spec`
integrates.
"""

import math
import random

import pytest

from ellipse_phase import (
    AccuracyNotMet,
    LogValue,
    PoleOrZeroHit,
    PoleValue,
    SigmaEvaluator,
    eval_elliptic,
    eval_f,
    make_divisor,
    make_lattice,
    sigma,
    synthesize,
    wrap_angle,
)
from ellipse_phase.divisor import log_derivative
from ellipse_phase.weierstrass import zeta

from conftest import random_cell_point

SQUARE = (1 + 0j, 1j)
# the square presented by a shear (P1, P2 + 2*P1) and by the swap (P2, -P1)
BASES = {"square": SQUARE, "sheared": (1 + 0j, 2 + 1j), "swapped": (1j, -1 + 0j)}
BACKENDS = {"fast": {}, "direct-20": {"backend": "direct", "truncation_shells": 20}}


def seeded_spec(rng: random.Random, lat):
    n = rng.randint(1, 3)
    zeros = [(random_cell_point(rng, lat), 1) for _ in range(n)]
    poles = [(random_cell_point(rng, lat), 1) for _ in range(n)]
    d = make_divisor(zeros, poles, lat)
    return synthesize(d, rng.randint(-2, 2), rng.randint(-2, 2), lat)


def literal(q, ev, z):
    """q at z from the public sigma, summed in eval_elliptic's order."""
    zeros = [sigma(ev, z - w) for w in q.zeros]
    poles = [sigma(ev, z - w) for w in q.poles]
    pole_hits = sum(v.is_zero() for v in poles)
    if pole_hits:
        return PoleValue(pole_hits)
    if any(v.is_zero() for v in zeros):
        return LogValue.zero()
    total = q.exponent * z + q.log_scale
    for v in zeros:
        total += v.log()
    for v in poles:
        total -= v.log()
    return LogValue.from_log(total)


def outside_points(rng: random.Random, lat, count=6):
    """Cell points moved 1-3 periods out, so both coordinates take odd and even values."""
    shifts = [(m, n) for m in range(-3, 4) for n in range(-3, 4) if max(abs(m), abs(n)) >= 1]
    points = []
    for k in range(count):
        m, n = shifts[(7 * k + rng.randrange(len(shifts))) % len(shifts)]
        s, t = rng.uniform(0, 1), rng.uniform(0, 1)
        points.append((s + m) * lat.p1 + (t + n) * lat.p2)
    return points


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("basis", BASES)
def test_eval_f_equals_sum_of_sigma_logs(basis, backend):
    lat = make_lattice(*BASES[basis])
    ev = SigmaEvaluator(lat, **BACKENDS[backend])
    rng = random.Random(f"{basis}-{backend}")
    for _ in range(4):
        spec = seeded_spec(rng, lat)
        q = spec.quotient
        for z in outside_points(rng, lat):
            got = eval_f(spec, ev, z)
            assert isinstance(got, LogValue) and not got.is_zero()
            assert got == literal(q, ev, z)
        zero_hit = q.zeros[0] + 2 * lat.p1 - 3 * lat.p2
        pole_hit = q.poles[0] - lat.p1 + lat.p2
        assert eval_f(spec, ev, zero_hit) == literal(q, ev, zero_hit) == LogValue.zero()
        assert eval_f(spec, ev, pole_hit) == literal(q, ev, pole_hit) == PoleValue(1)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("z", [complex(math.nan, 0), complex(math.inf, 0), -math.inf * 1j])
def test_non_finite_point_is_value_error(backend, z):
    lat = make_lattice(*SQUARE)
    ev = SigmaEvaluator(lat, **BACKENDS[backend])
    spec = seeded_spec(random.Random(5), lat)
    # the empty divisor folds to a quotient with no sigma factor at all
    empty = synthesize(make_divisor([], [], lat), 1, 0, lat)
    assert not empty.quotient.zeros and not empty.quotient.poles
    for s in (spec, empty):
        with pytest.raises(ValueError, match="not finite"):
            eval_f(s, ev, z)
        with pytest.raises(ValueError, match="not finite"):
            eval_elliptic(s.g, ev, z)
        with pytest.raises(ValueError, match="not finite"):
            log_derivative(s.quotient, ev, z)
    with pytest.raises(ValueError, match="not finite"):
        sigma(ev, z)
    if backend == "fast":
        with pytest.raises(ValueError, match="not finite"):
            zeta(ev, z)


def test_far_point_misses_accuracy_target():
    lat = make_lattice(*SQUARE)
    spec = synthesize(make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], lat), 0, 0, lat)
    with pytest.raises(AccuracyNotMet, match="roundoff estimate"):
        eval_f(spec, SigmaEvaluator(lat), 40 + 40j)


@pytest.mark.parametrize("basis", BASES)
def test_zeta_is_quasi_periodic_and_odd(basis):
    # zeta(z + p_j) = zeta(z) + eta_j, zeta(-z) = -zeta(z), and None on the lattice
    lat = make_lattice(*BASES[basis])
    ev = SigmaEvaluator(lat)
    rng = random.Random(basis)
    for z in outside_points(rng, lat):
        for p, e in ((lat.p1, ev.eta1), (lat.p2, ev.eta2)):
            assert abs(zeta(ev, z + p) - zeta(ev, z) - e) <= 1e-12 * (1 + abs(zeta(ev, z)))
        assert abs(zeta(ev, -z) + zeta(ev, z)) <= 1e-12 * (1 + abs(zeta(ev, z)))
    assert zeta(ev, 2 * lat.p1 - 3 * lat.p2) is None
    with pytest.raises(ValueError, match="FastSeries"):
        zeta(SigmaEvaluator(lat, **BACKENDS["direct-20"]), 0.3 + 0.2j)


@pytest.mark.parametrize("basis", BASES)
def test_log_derivative_is_the_derivative_of_eval_f(basis):
    lat = make_lattice(*BASES[basis])
    ev = SigmaEvaluator(lat)
    rng = random.Random(f"dlog-{basis}")
    h = 1e-5
    for _ in range(3):
        spec = seeded_spec(rng, lat)
        for z in outside_points(rng, lat, count=3):
            a, b = eval_f(spec, ev, z + h).log(), eval_f(spec, ev, z - h).log()
            diff = complex(a.real - b.real, wrap_angle(a.imag - b.imag)) / (2 * h)
            exact = log_derivative(spec.quotient, ev, z)
            assert abs(exact - diff) <= 1e-6 * (1 + abs(exact))
        for hit in (spec.quotient.zeros[0] + lat.p1, spec.quotient.poles[0] - lat.p2):
            with pytest.raises(PoleOrZeroHit):
                log_derivative(spec.quotient, ev, hit)
