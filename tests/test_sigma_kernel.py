"""One sigma-quotient kernel behind sigma and eval_f, and one derivative kernel behind zeta and f'/f.

`eval_f` evaluates its whole quotient in one theta-series kernel pass,
`sigma` is the quotient with the single zero 0, and the phase is wrapped
once, at the end.  The pass takes one log per factor, but adds the constant
term once per quotient and the parity sign once at the end, so it rounds
differently from the same sum written with the public `sigma(...).log()`:
the two agree within the sum of the per-factor roundoff certificates and eps
times the exponential's log, at points whose range reduction takes odd and
even lattice coordinates, and the zero and pole hits agree exactly.  The
direct backend serves only `sigma` (and `eta`): `eval_f` and
`eval_elliptic` refuse it, and a caller sums its `sigma` logs as `literal`
does.  The kernel repeats `nearest_lattice_point`'s rounding inline, pinned
here factor by factor.  The exact f'/f that `verify_spec` integrates has a
kernel of its own, `_dlog_quotient`: `zeta` is its one-factor case, and
`log_derivative` equals, to the bit, the exponent plus the signed `zeta` of
each factor.
"""

import cmath
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
from ellipse_phase import weierstrass
from ellipse_phase.lattice import coordinates, nearest_lattice_point
from ellipse_phase.weierstrass import _EPS, log_derivative, zeta

from conftest import random_cell_point, random_lattice

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
    log_sigma = 0j
    for v in zeros:
        log_sigma += v.log()
    for v in poles:
        log_sigma -= v.log()
    return LogValue.from_log(q.exponent * z + q.log_scale + log_sigma)


def certificate(q, ev, z):
    """Sum over q's factors of the fast kernel's roundoff estimate eps*(10 + amplitude).

    The amplitude of the factor sigma(u), u = z - w, is |eta1' u^2/(2 P1)| +
    |Im v0| + |n*(n*pi*omega + 2 v0)| with (m, n) the nearest lattice point of
    u on the reduced basis; eps*|exponent*z + log_scale| covers the exponential.
    """
    red = ev._reduced
    quad_coef = ev._theta[6]  # eta1' / (2 P1)
    total = _EPS * abs(q.exponent * z + q.log_scale)
    for w in (*q.zeros, *q.poles):
        u = z - w
        _, n, lam = nearest_lattice_point(u, red)
        v0 = math.pi * (u - lam) / red.p1
        amplitude = abs(quad_coef * u * u) + abs(v0.imag)
        if n:
            amplitude += abs(n * (n * math.pi * red.omega + 2 * v0))
        total += _EPS * (10.0 + amplitude)
    return total


def log_distance(a: LogValue, b: LogValue) -> float:
    return abs(complex(a.log_mag - b.log_mag, wrap_angle(a.phase - b.phase)))


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
        if backend != "fast":
            # the quotient kernel is theta-series only; the literal sum stays open
            z = outside_points(rng, lat)[0]
            with pytest.raises(ValueError, match="FastSeries"):
                eval_f(spec, ev, z)
            with pytest.raises(ValueError, match="FastSeries"):
                eval_elliptic(spec.g, ev, z)
            assert isinstance(literal(q, ev, z), LogValue)
            continue
        for z in outside_points(rng, lat):
            got = eval_f(spec, ev, z)
            assert isinstance(got, LogValue) and not got.is_zero()
            assert log_distance(got, literal(q, ev, z)) <= certificate(q, ev, z)
        zero_hit = q.zeros[0] + 2 * lat.p1 - 3 * lat.p2
        pole_hit = q.poles[0] - lat.p1 + lat.p2
        assert eval_f(spec, ev, zero_hit) == literal(q, ev, zero_hit) == LogValue.zero()
        assert eval_f(spec, ev, pole_hit) == literal(q, ev, pole_hit) == PoleValue(1)


class SinRecorder:
    """Stands in for the cmath module inside weierstrass and records every sin argument."""

    def __init__(self):
        self.args = []

    def __getattr__(self, name):
        return getattr(cmath, name)

    def sin(self, v):
        self.args.append(v)
        return cmath.sin(v)


def tie_points(red):
    """Points whose coordinates on the reduced basis are exactly +-1/2, in several cells."""
    coords = [(0.5, 0.3), (-0.5, 0.3), (0.2, 0.5), (0.2, -0.5), (0.5, 0.5), (-0.5, -0.5)]
    return [(s + m) * red.p1 + (t + n) * red.p2 for s, t in coords for m, n in ((0, 0), (2, -3), (-1, 1))]


@pytest.mark.parametrize("basis", BASES)
def test_kernel_reduces_like_nearest_lattice_point(basis, monkeypatch):
    # the quotient kernel repeats nearest_lattice_point's rounding inline: for
    # every factor u = z - w it must take the same (m, n), so the same v0 =
    # pi*(u - lam)/P1 reaches cmath.sin, also where a coordinate is exactly +-1/2
    rng = random.Random(f"reduce-{basis}")
    cases = [(make_lattice(*BASES[basis]), True)]
    for _ in range(4):
        lat = random_lattice(rng)
        P1, P2 = lat.p1, lat.p2
        cases += [(make_lattice(P1, P2 + 2 * P1), False), (make_lattice(P2, -P1), False)]
    for lat, exact in cases:
        ev = SigmaEvaluator(lat)
        red = ev._reduced
        ties = tie_points(red)
        if exact:
            # on the square every tie is exact in floating point
            assert all(0.5 in {c % 1 for c in coordinates(u, red)} for u in ties)
        us = ties + outside_points(rng, lat, count=12)
        z = 0.3 + 0.1j
        zeros, poles = [z - u for u in us[::2]], [z - u for u in us[1::2]]
        recorder = SinRecorder()
        monkeypatch.setattr(weierstrass, "cmath", recorder)
        weierstrass._log_quotient(ev, z, zeros, poles)
        monkeypatch.undo()
        expected = []
        for w in zeros + poles:
            u = z - w
            _, _, lam = nearest_lattice_point(u, red)
            expected.append(math.pi * (u - lam) / red.p1)
        assert recorder.args == expected


def test_thin_lattice_products_stay_in_range():
    # 100 zeros and 100 poles near the bottom of a (1, 0.2+100i) cell, seen
    # from half a cell up: each factor sin(v0) S(cos 2v0) is up to ~exp(78), so
    # a running product of them would overflow.  The kernel takes one log per
    # factor, and its sum stays finite and accurate
    lat = make_lattice(1, 0.2 + 100j)
    rng = random.Random(100)
    s = [rng.uniform(0, 1) for _ in range(100)]
    t = [rng.uniform(0, 0.1) for _ in range(100)]
    # the poles take the zeros' t in a shifted order: the sums agree and xi0 = 0
    zeros = [(a * lat.p1 + b * lat.p2, 1) for a, b in zip(s, t)]
    poles = [(a * lat.p1 + b * lat.p2, 1) for a, b in zip(s, t[1:] + t[:1])]
    spec = synthesize(make_divisor(zeros, poles, lat), 0, 0, lat)
    q = spec.quotient
    values = {}
    for _ in range(40):
        z = rng.uniform(0, 1) * lat.p1 + rng.uniform(0.4, 0.6) * lat.p2
        try:
            values[z] = eval_f(spec, spec.ev, z)
        except AccuracyNotMet:
            continue
    assert len(values) >= 10
    factors = len(q.zeros) + len(q.poles)
    for z, got in values.items():
        assert math.isfinite(got.log_mag)
        # a running sum of k terms rounds by up to k*eps times the sum of their sizes
        assert log_distance(got, literal(q, spec.ev, z)) <= factors * certificate(q, spec.ev, z)


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


@pytest.mark.parametrize(
    "kernel, z", [(sigma, 40 + 40j), (sigma, 1e8 + 0j), (zeta, 1e8 + 0j)], ids=["off", "hit", "zeta-hit"]
)
def test_refusal_names_the_point_and_the_shift(kernel, z):
    # far off the lattice the kernel's certificate fails; on a far lattice point, the hit's
    ev = SigmaEvaluator(make_lattice(*SQUARE))
    with pytest.raises(AccuracyNotMet) as refusal:
        kernel(ev, z)
    assert str(refusal.value).endswith(f" at z = {z} in the factor sigma(z - w), w = 0j")


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


@pytest.mark.parametrize("basis", BASES)
def test_log_derivative_equals_sum_of_zetas(basis):
    # one derivative pass adds the factors' zeta values in factor order,
    # starting at the exponent, so it matches the per-factor sum to the bit
    lat = make_lattice(*BASES[basis])
    ev = SigmaEvaluator(lat)
    direct = SigmaEvaluator(lat, **BACKENDS["direct-20"])
    rng = random.Random(f"zetas-{basis}")
    for _ in range(4):
        q = seeded_spec(rng, lat).quotient
        for z in outside_points(rng, lat):
            total = q.exponent
            for w in q.zeros:
                total += zeta(ev, z - w)
            for w in q.poles:
                total -= zeta(ev, z - w)
            assert log_derivative(q, ev, z) == total
        with pytest.raises(ValueError, match="FastSeries"):
            log_derivative(q, direct, 0.3 + 0.2j)
    with pytest.raises(ValueError, match="FastSeries"):
        zeta(direct, 0.3 + 0.2j)
    for z in (complex(math.nan, 0), complex(math.inf, 0), -math.inf * 1j):
        with pytest.raises(ValueError, match=r"^point .* is not finite$"):
            log_derivative(q, ev, z)
        with pytest.raises(ValueError, match=r"^point .* is not finite$"):
            zeta(ev, z)
