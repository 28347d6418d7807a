"""Shared samplers for randomized property tests (all deterministic via seeds)."""

import cmath
import math
import random

import pytest

from ellipse_phase import Lattice, SigmaEvaluator, make_lattice


def random_lattice(rng: random.Random) -> Lattice:
    """Lattice from the well-conditioned family: |Re w| <= 1/2, 0.5 <= Im w <= 2."""
    omega = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
    p1 = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    return make_lattice(p1, p1 * omega)


def random_cell_point(rng: random.Random, lat: Lattice, margin: float = 0.05) -> complex:
    s = rng.uniform(margin, 1.0 - margin)
    t = rng.uniform(margin, 1.0 - margin)
    return s * lat.p1 + t * lat.p2


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
