"""Acceptance suite: every criterion at its stated tolerance and runtime budget.

Each test prints one `A# PASS (elapsed)` line; a failing assertion (or a blown
budget) fails the test in the usual pytest way.  Run with `pytest -s` to see
the lines as they happen.
"""

import cmath
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import ellipse_phase
from ellipse_phase import (
    Backend,
    GridSpec,
    PoleOrZeroHit,
    SigmaEvaluator,
    count_zeros_poles,
    eval_f,
    make_divisor,
    make_lattice,
    phase_periodicity,
    sigma,
    synthesize,
    torus_distance,
    v_constant,
    wrap_angle,
)
from ellipse_phase.weierstrass import LogValue, VMethod

from conftest import log_ratio, log_spread, random_cell_point, random_lattice

TAU = 2 * math.pi

# the CLI children import the package this process imported, from any working directory
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(ellipse_phase.__file__).resolve().parent.parent))


@contextmanager
def criterion(name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"{name} FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"{name} blew its runtime budget: {elapsed:.2f}s >= {limit_s:g}s"
    print(f"{name} PASS ({elapsed:.2f}s < {limit_s:g}s)")


def rel_diff(a: LogValue, b: LogValue) -> float:
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, wrap_angle(a.phase - b.phase))) - 1)


def sample_z_avoiding(rng, lat, probe, attempts=20):
    for _ in range(attempts):
        z = random_cell_point(rng, lat)
        try:
            return z, probe(z)
        except PoleOrZeroHit:
            continue
    raise RuntimeError("could not find a clear sample point")


def random_balanced_divisor(rng, lat, pairs):
    zeros = [(random_cell_point(rng, lat), 1) for _ in range(pairs)]
    poles = [(random_cell_point(rng, lat), 1) for _ in range(pairs)]
    return make_divisor(zeros, poles, lat)


def test_a1_sigma_ratio_identity():
    rng = random.Random(101)
    with criterion("A1", 5.0):
        for _ in range(20):
            lat = random_lattice(rng)
            ev = SigmaEvaluator(lat)
            xi0 = random_cell_point(rng, lat)
            for j in (1, 2):
                v = v_constant(lat, xi0, j).v
                _, log_r = sample_z_avoiding(rng, lat, lambda z: log_ratio(ev, xi0, j, z))
                assert abs(cmath.exp(log_r - v) - 1) <= 1e-6


def test_a2_v_constant_consistency():
    rng = random.Random(102)
    with criterion("A2", 30.0):
        for _ in range(10):
            lat = random_lattice(rng)
            xi0 = random_cell_point(rng, lat)
            j = rng.choice([1, 2])
            ref = v_constant(lat, xi0, j, method=VMethod.VIA_ETA).v
            v200 = v_constant(lat, xi0, j, method=VMethod.DIRECT_SUM, shells=200).v
            v400 = v_constant(lat, xi0, j, method=VMethod.DIRECT_SUM, shells=400).v
            err200 = abs(v200 - ref)
            err400 = abs(v400 - ref)
            assert err200 <= 1e-3 * abs(ref)
            assert err400 <= 0.35 * err200


def test_a3_legendre_relation():
    rng = random.Random(103)
    with criterion("A3", 2.0):
        for _ in range(10):
            lat = random_lattice(rng)
            ev = SigmaEvaluator(lat)
            combo = ev.eta1 * lat.p2 - ev.eta2 * lat.p1
            assert abs(combo - TAU * 1j) <= 1e-10 * TAU


def _synthesized_cases(seed: int):
    rng = random.Random(seed)
    cases = []
    for _ in range(10):
        lat = random_lattice(rng)
        d = random_balanced_divisor(rng, lat, rng.randint(1, 4))
        for m1, m2 in ((0, 0), (1, 0), (0, -1)):
            cases.append((lat, synthesize(d, m1, m2, lat)))
    return cases


def test_a4_theorem_end_to_end():
    with criterion("A4", 20.0):
        for lat, spec in _synthesized_cases(104):
            ev = SigmaEvaluator(lat)
            fval = lambda z: eval_f(spec, ev, z)
            grid = GridSpec(lat, 8, 8, seed=7)
            for pj, alphaj in ((lat.p1, spec.alpha1), (lat.p2, spec.alpha2)):
                residual, mult = phase_periodicity(fval, pj, grid)
                assert residual <= 1e-6
                assert abs(mult.imag) <= 1e-8
                assert abs(mult.real - alphaj) <= 1e-6


def test_a5_argument_principle():
    with criterion("A5", 60.0):
        for lat, spec in _synthesized_cases(105):
            ev = SigmaEvaluator(lat)
            fval = lambda z: eval_f(spec, ev, z)
            known = [p for p, _ in spec.divisor.zeros] + [p for p, _ in spec.divisor.poles]
            result = count_zeros_poles(fval, lat, 0j, known_points=known)
            assert result.zeros_minus_poles == 0
            assert result.integer_distance < 0.01
            assert torus_distance(result.raw_moment, -spec.xi0, lat) <= 1e-6


def test_a6_sigma_basics():
    rng = random.Random(106)
    with criterion("A6", 2.0):
        square = make_lattice(1, 1j)
        ev = SigmaEvaluator(square)
        for _ in range(100):
            z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            if abs(z) < 0.05:
                continue
            f, b = sigma(ev, z), sigma(ev, -z)
            assert abs(f.log_mag - b.log_mag) <= 1e-10 * max(1, abs(f.log_mag))
            assert abs(wrap_angle(f.phase - b.phase - math.pi)) <= 1e-10
        for scale in (1e-3, 1e-4, 1e-5):
            z = scale * cmath.exp(1.1j)
            err = rel_diff(sigma(ev, z), LogValue.from_log(cmath.log(z)))
            assert err <= 1e-5 * (scale / 1e-3) ** 2
        for _ in range(10):
            lat = random_lattice(rng)
            evr = SigmaEvaluator(lat)
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            assert sigma(evr, m * lat.p1 + n * lat.p2).is_zero()


def test_a7_ratio_z_independence():
    rng = random.Random(107)
    with criterion("A7", 5.0):
        for _ in range(10):
            lat = random_lattice(rng)
            ev = SigmaEvaluator(lat)
            xi0 = random_cell_point(rng, lat)
            j = rng.choice([1, 2])
            samples = [random_cell_point(rng, lat) for _ in range(5)]
            assert log_spread([log_ratio(ev, xi0, j, z) for z in samples]) <= 1e-8


def test_a8_backend_agreement():
    rng = random.Random(108)
    with criterion("A8", 30.0):
        errs200, errs400 = [], []
        for _ in range(4):
            lat = random_lattice(rng)
            fast = SigmaEvaluator(lat)
            d200 = SigmaEvaluator(lat, backend=Backend.DIRECT_PRODUCT, truncation_shells=200)
            d400 = SigmaEvaluator(lat, backend=Backend.DIRECT_PRODUCT, truncation_shells=400)
            for _ in range(5):
                z = random_cell_point(rng, lat) - (lat.p1 + lat.p2) / 2
                if abs(z) < 0.05 * min(abs(lat.p1), abs(lat.p2)):
                    z += 0.21 * lat.p1
                ref = sigma(fast, z)
                e200 = rel_diff(sigma(d200, z), ref)
                e400 = rel_diff(sigma(d400, z), ref)
                assert e200 <= 1e-3
                errs200.append(e200)
                errs400.append(e400)
        assert max(errs400) <= 0.5 * 1.3 * max(errs200)


def test_a9_portrait_determinism_and_translation(tmp_path):
    with criterion("A9", 20.0):
        lattice_json = '{"p1": [1, 0], "p2": [0, 1]}'
        divisor_json = '{"zeros": [[0.3, 0.4, 1]], "poles": [[0.6, 0.1, 1]]}'
        synth = subprocess.run(
            [sys.executable, "-m", "ellipse_phase.cli", "synth",
             "--lattice", lattice_json, "--divisor", divisor_json],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert synth.returncode == 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(synth.stdout)

        def plot(out, center):
            r = subprocess.run(
                [sys.executable, "-m", "ellipse_phase.cli", "plot",
                 "--spec", str(spec_path), "--out", str(out),
                 "--center", center, "--width", "1", "--height", "1",
                 "--resolution", "256x256"],
                capture_output=True, text=True, env=CLI_ENV,
            )
            assert r.returncode == 0

        base1 = tmp_path / "cell.ppm"
        base2 = tmp_path / "cell_repeat.ppm"
        shifted = tmp_path / "cell_shifted.ppm"
        plot(base1, "0.5,0.5")
        plot(base2, "0.5,0.5")
        plot(shifted, "1.5,0.5")
        assert base1.read_bytes() == base2.read_bytes()
        assert base1.read_bytes() == shifted.read_bytes()
