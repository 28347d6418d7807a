"""The paper's theorem as relations between synthesized functions.

Uniqueness: a meromorphic f with a given balanced divisor and doubly periodic
phase is unique up to a factor exp(c*z + d) whose multipliers exp(c*p_j) are
real and positive, that is Im(c*p_j) in 2*pi*Z.  So the product f1*f2 of two
synthesized functions and the f12 synthesized from their summed divisor and
summed m differ by such a factor; its slope c is exact from `log_derivative`.

The multiplier relation: the real multipliers exp(alpha_j) of f determine xi0
= (alpha1*p2 - alpha2*p1) / (2*pi*i) mod L, by the Legendre relation.
`verify_spec` measures the multipliers on its grid through `eval_f` and
recovers xi0 from its contour through `zeta`, so the relation ties two
independent measurements together.
"""

import math
import random

from ellipse_phase import (
    eval_f,
    make_divisor,
    make_lattice,
    synthesize,
    torus_distance,
    verify_spec,
    xi0_from_multipliers,
)
from ellipse_phase.weierstrass import log_derivative

from conftest import log_spread, random_cell_point, random_lattice

TAU = 2 * math.pi


def sheared(rng: random.Random):
    """A conftest lattice and its presentation (P1, P2 + k*P1), k in [-2, 2]."""
    base = random_lattice(rng)
    return base, make_lattice(base.p1, base.p2 + rng.randint(-2, 2) * base.p1)


def random_divisor(rng: random.Random, base):
    pairs = rng.randint(1, 3)
    points = [(random_cell_point(rng, base), 1) for _ in range(2 * pairs)]
    return points[:pairs], points[pairs:]


def test_product_is_the_summed_synthesis_times_an_exponential():
    rng = random.Random(41)
    for _ in range(40):
        base, lat = sheared(rng)
        (z1, p1), (z2, p2) = random_divisor(rng, base), random_divisor(rng, base)
        m = [rng.randint(-2, 2) for _ in range(4)]
        f1 = synthesize(make_divisor(z1, p1, lat), m[0], m[1], lat)
        f2 = synthesize(make_divisor(z2, p2, lat), m[2], m[3], lat)
        f12 = synthesize(make_divisor(z1 + z2, p1 + p2, lat), m[0] + m[2], m[1] + m[3], lat)

        signed = ((1, f1), (1, f2), (-1, f12))
        points = [random_cell_point(rng, base) + rng.randint(-1, 1) * base.p1 for _ in range(5)]
        # the slope where the log-derivatives are smallest: next to a divisor
        # point, psi ~ 1/(z - w) turns the rounding of z - w into ~eps*|z|*|psi|^2
        slopes = []
        for z in points:
            psis = [s * log_derivative(f.quotient, f.ev, z) for s, f in signed]
            slopes.append((sum(map(abs, psis)), sum(psis)))
        c = min(slopes, key=lambda slope: slope[0])[1]
        for p in (lat.p1, lat.p2):
            turns = (c * p).imag / TAU
            assert abs(turns - round(turns)) <= 1e-12
        logs = [sum(s * eval_f(f, f.ev, z).log() for s, f in signed) - c * z for z in points]
        assert log_spread(logs) <= 1e-11


def test_multipliers_give_the_recovered_xi0():
    rng = random.Random(42)
    for _ in range(12):
        base, lat = sheared(rng)
        zeros, poles = random_divisor(rng, base)
        spec = synthesize(make_divisor(zeros, poles, lat), rng.randint(-2, 2), rng.randint(-2, 2), lat)
        report = verify_spec(spec)
        xi0 = xi0_from_multipliers(math.log(report.multiplier1), math.log(report.multiplier2), lat)
        assert torus_distance(xi0, report.xi0_recovered, lat) <= 1e-12
