"""Coarse timing budgets that catch order-of-magnitude slowdowns.

Each budget is at least 10x the median measured on a 2-core Intel Xeon with
Python 3.11 (noted next to it), because shared hosts can run at half speed
for minutes.  The benchmark under bench/ is the real measurement; these only
guard against a gross regression slipping through the unit tests.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ellipse_phase
from ellipse_phase import weierstrass
from ellipse_phase import (
    RenderSpec,
    SigmaEvaluator,
    eta,
    eval_f,
    make_divisor,
    make_lattice,
    render_pixels,
    sigma,
    synthesize,
    v_constant,
    verify_spec,
)
from ellipse_phase.jsonio import dumps, spec_from_obj, spec_to_obj

LAT = make_lattice(1, 0.2 + 1.1j)
PAIRS = [
    (0.12 + 0.31j, 0.71 + 0.05j),
    (0.43 + 0.88j, 0.25 + 0.52j),
    (0.64 + 0.17j, 0.93 + 0.77j),
    (0.86 + 0.62j, 0.38 + 0.99j),
    (0.29 + 1.02j, 0.57 + 0.41j),
]


COLD_START_CHILD = """
import time
t0 = time.perf_counter()
import ellipse_phase.cli
from ellipse_phase import SigmaEvaluator, make_lattice
SigmaEvaluator(make_lattice(1, 0.2 + 1.1j))
print(time.perf_counter() - t0)
"""


def median_ms(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


@pytest.fixture(scope="module")
def spec5():
    d = make_divisor([(z, 1) for z, _ in PAIRS], [(p, 1) for _, p in PAIRS], LAT)
    return synthesize(d, 1, -1, LAT)


def test_cold_start():
    # measured median ~26 ms without a bytecode cache (~38 ms while the value
    # classes were dataclasses, 21 alternating runs): a fresh interpreter
    # imports the CLI and builds one fast evaluator, as each CLI call does
    package_root = str(Path(ellipse_phase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    times = []
    for _ in range(5):
        r = subprocess.run(
            [sys.executable, "-c", COLD_START_CHILD], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        times.append(float(r.stdout))
    assert 1e3 * statistics.median(times) < 250.0


def test_evaluator_construction():
    # measured median ~2 ms for 100 evaluators
    assert median_ms(lambda: [SigmaEvaluator(LAT) for _ in range(100)]) < 25.0


def test_fast_sigma_calls():
    # measured median ~5.5 ms for 1,000 calls
    ev = SigmaEvaluator(LAT)
    zs = [complex(0.013 * k, 0.007 * k) + 0.11 for k in range(1000)]
    assert median_ms(lambda: [sigma(ev, z) for z in zs]) < 100.0


def test_direct_oracle_calls():
    # measured median ~7 ms: sigma, eta and vj --method direct at 200 shells,
    # each call with its own evaluator as the CLI builds them; the eta memo is
    # cleared before each eta and vj, so that all five lattice sums run
    def direct_calls():
        sigma(SigmaEvaluator(LAT, backend="direct", truncation_shells=200), 0.31 + 0.27j)
        for j in (1, 2):
            weierstrass._eta_sum.cache_clear()
            eta(SigmaEvaluator(LAT, backend="direct", truncation_shells=200), j)
            weierstrass._eta_sum.cache_clear()
            v_constant(LAT, 0.3 + 0.2j, j, method="direct", shells=200)

    assert median_ms(direct_calls) < 400.0


def test_direct_eta_pair():
    # measured median ~1.5 ms: eta_1 and eta_2 at 200 shells on one lattice,
    # from an empty memo, two passes over the 80,400 points
    def both_periods():
        weierstrass._eta_sum.cache_clear()
        for j in (1, 2):
            weierstrass.eta_from_sum(LAT, j, 200)

    assert median_ms(both_periods) < 15.0


def test_spec_round_trip(spec5):
    # measured median ~1 ms: synthesize, dumps, then spec_from_obj (which synthesizes again)
    def round_trip():
        text = dumps(spec_to_obj(synthesize(spec5.divisor, 1, -1, LAT)))
        spec_from_obj(json.loads(text))

    assert median_ms(round_trip) < 30.0


def test_render_small_portrait(spec5):
    # measured median ~30 ms for 32x32 pixels of a 5-pair spec
    ev = SigmaEvaluator(LAT)
    rspec = RenderSpec(
        center=(LAT.p1 + LAT.p2) / 2, width=2.0, height=2.0, width_px=32, height_px=32
    )
    assert median_ms(lambda: render_pixels(lambda z: eval_f(spec5, ev, z), rspec), 3) < 1000.0


def test_render_pixels(spec5):
    # measured median ~100 ms for 64x64 pixels of a 5-pair spec: 10 sigma factors per pixel
    ev = SigmaEvaluator(LAT)
    rspec = RenderSpec(
        center=(LAT.p1 + LAT.p2) / 2, width=2.0, height=2.0, width_px=64, height_px=64
    )
    assert median_ms(lambda: render_pixels(lambda z: eval_f(spec5, ev, z), rspec), 3) < 2500.0


def test_verify_three_pairs():
    # measured median ~145 ms: grid, contour and report for a 3-pair spec
    pairs = PAIRS[:3]
    d = make_divisor([(z, 1) for z, _ in pairs], [(p, 1) for _, p in pairs], LAT)
    spec = synthesize(d, 0, 0, LAT)
    assert median_ms(lambda: verify_spec(spec), 3) < 1500.0
