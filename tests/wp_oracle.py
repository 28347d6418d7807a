"""Independent Weierstrass P-function oracle for divisor tests.

Uses the classical exponentially convergent Fourier expansion in
q = exp(2*pi*i*omega) and u = exp(2*pi*i*z/p1):

    wp(z) / (2*pi*i/p1)^2 = 1/12 + u/(1-u)^2
        + sum_{k>=1} [ q^k u/(1-q^k u)^2 + q^k u^{-1}/(1-q^k u^{-1})^2
                       - 2 q^k/(1-q^k)^2 ]

valid once z is reduced to the centered cell of a reduced basis.  This shares
no code with the sigma evaluator (no theta functions, no canonical product),
so it is an independent check on elliptic functions built from sigma quotients.
"""

import cmath
import math

import numpy as np

from ellipse_phase import Lattice, coordinates, reduce_basis
from ellipse_phase.weierstrass import _shell_arrays

TAU = 2 * math.pi


def wp(z: complex, lat: Lattice) -> complex:
    red = reduce_basis(lat)
    s, t = coordinates(z, red)
    z0 = z - math.floor(s + 0.5) * red.p1 - math.floor(t + 0.5) * red.p2
    q = cmath.exp(TAU * 1j * red.omega)
    u = cmath.exp(TAU * 1j * z0 / red.p1)
    total = 1.0 / 12.0 + u / (1 - u) ** 2
    for k in range(1, 200):
        qk = q**k
        term = (
            qk * u / (1 - qk * u) ** 2
            + qk / u / (1 - qk / u) ** 2
            - 2 * qk / (1 - qk) ** 2
        )
        total += term
        if abs(term) < 1e-20 * abs(total):
            break
    return (TAU * 1j / red.p1) ** 2 * total


def wp_lattice_sum(z: complex, lat: Lattice, shells: int) -> complex:
    """The defining sum 1/z^2 + sum [1/(z-lam)^2 - 1/lam^2], shell-truncated.

    The shell list holds one point of every pair {lam, -lam}, so each summand
    adds the mirror term: 1/(z-lam)^2 + 1/(z+lam)^2 - 2/lam^2.
    """
    m, n = _shell_arrays(shells)
    lam = m * lat.p1 + n * lat.p2
    return 1 / z**2 + complex(np.sum(1 / (z - lam) ** 2 + 1 / (z + lam) ** 2 - 2 / lam**2))
