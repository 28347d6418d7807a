"""Shared samplers for randomized property tests (all deterministic via seeds)."""

import cmath
import math
import random

import pytest

from ellipse_phase import (
    Lattice,
    PoleOrZeroHit,
    SigmaEvaluator,
    make_lattice,
    sigma,
    wrap_angle,
)


def random_lattice(rng: random.Random) -> Lattice:
    """Lattice from the well-conditioned family: |Re w| <= 1/2, 0.5 <= Im w <= 2."""
    omega = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
    p1 = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    return make_lattice(p1, p1 * omega)


def random_cell_point(rng: random.Random, lat: Lattice, margin: float = 0.05) -> complex:
    s = rng.uniform(margin, 1.0 - margin)
    t = rng.uniform(margin, 1.0 - margin)
    return s * lat.p1 + t * lat.p2


def log_ratio(ev: SigmaEvaluator, xi0: complex, j: int, z: complex) -> complex:
    """log R_j(z) of the four-sigma ratio, summed from the public sigma's principal logs.

    R_j(z) = sigma(z) sigma(z - xi0 + p_j) / (sigma(z - xi0) sigma(z + p_j)) is
    constant in z and equals exp(v_j), v_j = -eta_j * xi0.  Raises PoleOrZeroHit
    when a sigma argument lies on the lattice, so the caller can resample z.
    """
    pj = ev.lattice.p1 if j == 1 else ev.lattice.p2
    values = [sigma(ev, w) for w in (z, z - xi0, z - xi0 + pj, z + pj)]
    if any(v.is_zero() for v in values):
        raise PoleOrZeroHit("a sigma argument lies on the lattice")
    a, b, c, d = (v.log() for v in values)
    return a - b + c - d


def log_spread(logs) -> float:
    """Largest pairwise distance between complex logs, with phases compared mod 2*pi."""
    gaps = [a - b for i, a in enumerate(logs) for b in logs[i + 1:]]
    return max((abs(complex(d.real, wrap_angle(d.imag))) for d in gaps), default=0.0)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def evaluator_inits(monkeypatch):
    """A list that grows by one for each SigmaEvaluator built during the test."""
    calls = []
    init = SigmaEvaluator.__init__
    monkeypatch.setattr(
        SigmaEvaluator, "__init__", lambda self, *a, **k: calls.append(1) or init(self, *a, **k)
    )
    return calls
