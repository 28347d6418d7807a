"""Seeded inputs, operations and output checks for the three workloads.

Every op goes through ``ellipse_phase.cli.main(argv)`` in-process, as a
user's command line would, and only the CLI calls are inside the timed
region; the checks run after the clock stops.  The one exception is the
literal-formula check of ``oracle``: it has no subcommand, so it calls the
public library functions.

Complex arguments are passed as ``--z=re,im`` / ``--xi0=re,im``: with a space
(``--z -0.3,0.2``) argparse reads a leading minus sign as a flag and the CLI
exits 1.
"""

from __future__ import annotations

import bisect
import cmath
import colorsys
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from ellipse_phase import (
    PoleValue,
    SigmaEvaluator,
    cli,
    eval_elliptic,
    eval_f,
    jsonio,
    make_divisor,
    make_lattice,
    sigma,
    synthesize,
)

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "plot_digests.json"

#: Seed whose plot portraits have committed SHA-256 digests.
DIGEST_SEED = 1

#: Every UNREDUCED_EVERY-th lattice is presented by an unreduced basis, so
#: that reduce_basis does real work: "swap" is (P2, -P1), "shear1" and
#: "shear2" are (P1, P2 + k*P1) with |k| = 1, 2, whose cell is elongated.
#: verify exits 2 on a share of the elongated cells (see README.md, known
#: defects); those ops count as failed.
UNREDUCED_EVERY = 4
UNREDUCED = ("swap", "shear1", "shear2")

#: Pair counts of one verify cycle.  Half the ops have 3 pairs, so the median
#: op falls well inside that class and not on a class boundary, where it
#: would jump between runs.
VERIFY_PAIRS = (1, 2, 3, 3, 3, 5)
VERIFY_GRID = "10x10"
VERIFY_TOL = 1e-6

#: Pair counts of one plot cycle, placing the median inside a class as for
#: verify.  The colourings alternate along the pool, so every
#: pair count is drawn in both.  The pool holds PLOT_ROUNDS cycles, each spec
#: with its own lattice, so a run averages over many lattices.
PLOT_PAIRS = (1, 3, 3, 3, 5, 5)
COLORINGS = ("phase", "phase-mod")
PLOT_ROUNDS = 6
PLOT_PX = (128, 128)
PLOT_HEADER = f"P6\n{PLOT_PX[0]} {PLOT_PX[1]}\n255\n".encode("ascii")
#: Pixels per portrait recomputed independently from eval_f.
SPOT_PIXELS = 32

#: Pair counts of the spec checked against the literal formula, one per op.
ORACLE_PAIRS = (1, 2, 3)
SHELLS = 200
LITERAL_POINTS = 4
#: Log-domain tolerance of the literal formula a*z + log g + log sigma(z)
#: - log sigma(z - xi0) against eval_f: both are certified to ~1e-12 per
#: sigma factor, so 1e-9 leaves room for roundoff in the larger logs.
LITERAL_TOL = 1e-9
#: Print rounding of the sigma subcommand (15 significant digits).
PRINT_REL = 1e-14
#: sigma 1 + eta 2 + vj 2 + literal points.
ORACLE_CHECKS = 5 + LITERAL_POINTS


class OpFailed(Exception):
    """The program exited non-zero, or an output failed its check."""


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI invocation in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_ok(argv: list[str]) -> str:
    rc, out, err = run_cli(argv)
    if rc != 0:
        raise OpFailed(f"{argv[0]} exited {rc}: {err.strip()[:200]}")
    return out


def cplx(z: complex) -> str:
    """'re,im' with repr floats, so the CLI parses back the exact double."""
    return f"{z.real!r},{z.imag!r}"


def wrap(x: float) -> float:
    return (x + math.pi) % (2 * math.pi) - math.pi


def log_distance(log_mag_a: float, phase_a: float, log_mag_b: float, phase_b: float) -> float:
    return abs(complex(log_mag_a - log_mag_b, wrap(phase_a - phase_b)))


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Lat:
    """A presented basis (p1, p2) and a well-shaped basis (P1, P2) of the same lattice."""

    p1: complex
    p2: complex
    P1: complex
    P2: complex

    def obj(self) -> dict:
        return {"p1": [self.p1.real, self.p1.imag], "p2": [self.p2.real, self.p2.imag]}

    def text(self) -> str:
        return json.dumps(self.obj())

    def point(self, s: float, t: float) -> complex:
        return s * self.P1 + t * self.P2

    def distance(self, a: complex, b: complex) -> float:
        """Torus distance, searched over the neighbouring translates."""
        w = (a - b) / self.P1
        t = w.imag / (self.P2 / self.P1).imag
        s = w.real - t * (self.P2 / self.P1).real
        d = a - b - math.floor(s) * self.P1 - math.floor(t) * self.P2
        return min(abs(d - i * self.P1 - j * self.P2) for i in (-1, 0, 1, 2) for j in (-1, 0, 1, 2))


def random_lattice(rng: random.Random, presentation: str = "plain", stratum: tuple[int, int] = (0, 1)) -> Lat:
    """The test-suite family (|Re w| <= 1/2, 1/2 <= Im w <= 2), rotated and scaled.

    stratum (k, S) draws Im w from the k-th of S equal slices of [1/2, 2].
    """
    k, strata = stratum
    omega = complex(rng.uniform(-0.5, 0.5), 0.5 + 1.5 * (k + rng.random()) / strata)
    P1 = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    P2 = P1 * omega
    if presentation == "swap":
        return Lat(P2, -P1, P1, P2)
    if presentation.startswith("shear"):
        k = int(presentation[-1]) * rng.choice((-1, 1))
        return Lat(P1, P2 + k * P1, P1, P2)
    return Lat(P1, P2, P1, P2)


def separated_points(rng: random.Random, lat: Lat, count: int, avoid=()) -> list[complex]:
    """Points in the cell, kept apart from each other, from `avoid` and from 0."""
    gap = 0.1 * min(abs(lat.P1), abs(lat.P2))
    pts: list[complex] = []
    while len(pts) < count:
        z = lat.point(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        if all(lat.distance(z, q) >= gap for q in [0j, *avoid, *pts]):
            pts.append(z)
    return pts


def random_divisor(rng: random.Random, lat: Lat, pairs: int) -> tuple[dict, list[complex], list[complex]]:
    pts = separated_points(rng, lat, 2 * pairs)
    zeros, poles = pts[:pairs], pts[pairs:]
    obj = {
        "zeros": [[z.real, z.imag, 1] for z in zeros],
        "poles": [[p.real, p.imag, 1] for p in poles],
    }
    return obj, zeros, poles


# ---------------------------------------------------------------- workloads


class Workload:
    """A seeded, endless stream of ops, grouped in cycles of a fixed mix."""

    name = ""
    #: Rate metric reported besides specs_per_s, and its units of work per op.
    extra_rate: str | None = None
    units_per_op = 1

    #: Pair counts of one cycle.
    cycle_pairs: tuple[int, ...] = ()
    #: The cold set-up also builds a direct evaluator at SHELLS shells.
    setup_direct = False

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self._made = 0
        self._next: list | None = None

    def next_lattice(self) -> Lat:
        """The next lattice of the stream, with every run drawing the same shapes.

        Presentations follow a fixed rotation, and Im(p2/p1) is stratified
        into as many strata as a cycle has ops, so that each op kind sweeps
        all strata over that many cycles: the cost of an op depends on the
        lattice shape (through the theta series length), and a random share
        of shapes would move the medians from seed to seed.
        """
        n, self._made = self._made, self._made + 1
        kind = "plain"
        if n % UNREDUCED_EVERY == UNREDUCED_EVERY - 1:
            kind = UNREDUCED[(n // UNREDUCED_EVERY) % len(UNREDUCED)]
        length = len(self.cycle_pairs)
        return random_lattice(self.rng, kind, ((n // length + n % length) % length, length))

    def prepare(self) -> None:
        """Untimed preparation before the first op."""

    def make(self, pairs: int):
        raise NotImplementedError

    def _peek(self) -> list:
        if self._next is None:
            self._next = [self.make(p) for p in self.cycle_pairs]
        return self._next

    def cycle(self) -> list:
        """The next cycle of ops, one of each kind in the mix."""
        ops, self._next = self._peek(), None
        return ops

    def setup_lattice(self) -> Lat:
        """Lattice of the first op, used by the cold set-up measurement."""
        return self._peek()[0].lat

    def execute(self, op) -> float:
        """Run and check one op; returns the seconds spent inside the program."""
        raise NotImplementedError


@dataclass(frozen=True)
class VerifyOp:
    lat: Lat
    divisor: dict
    pairs: int
    m1: int
    m2: int
    grid_seed: int


class VerifyWorkload(Workload):
    name = "verify"
    cycle_pairs = VERIFY_PAIRS

    def make(self, pairs: int) -> VerifyOp:
        lat = self.next_lattice()
        divisor, _, _ = random_divisor(self.rng, lat, pairs)
        return VerifyOp(
            lat, divisor, pairs, self.rng.randint(-2, 2), self.rng.randint(-2, 2), self.rng.randrange(10**6)
        )

    def execute(self, op: VerifyOp):
        t0 = time.perf_counter()
        spec_text = _cli_ok(
            ["synth", "--lattice", op.lat.text(), "--divisor", json.dumps(op.divisor),
             f"--m1={op.m1}", f"--m2={op.m2}"]
        )
        rc, out, err = run_cli(
            ["verify", "--spec", spec_text.strip(), "--grid", VERIFY_GRID, f"--seed={op.grid_seed}"]
        )
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise OpFailed(f"verify exited {rc}: {err.strip()[:200]} {out.strip()[:300]}")
        spec = json.loads(spec_text)
        report = json.loads(out)
        if spec["m"] != [op.m1, op.m2] or len(spec["divisor"]["zeros"]) != op.pairs:
            raise OpFailed("synth output does not match its input")
        if not (report["zero_count"] == report["pole_count"] == op.pairs and report["reliable"]):
            raise OpFailed(f"verify report counts are wrong: {report}")
        if max(report["phase_residual_p1"], report["phase_residual_p2"]) > VERIFY_TOL:
            raise OpFailed("phase residual above tolerance")
        return elapsed


@dataclass(frozen=True)
class PlotOp:
    index: int
    lat: Lat
    pairs: int
    coloring: str
    spec_text: str
    center: complex
    size: float


class PlotWorkload(Workload):
    name = "plot"
    extra_rate = "px_per_s"
    units_per_op = PLOT_PX[0] * PLOT_PX[1]
    cycle_pairs = PLOT_PAIRS

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.pool: list[tuple] = []
        for index in range(PLOT_ROUNDS * len(PLOT_PAIRS)):
            pairs = PLOT_PAIRS[index % len(PLOT_PAIRS)]
            coloring = COLORINGS[(index + index // len(PLOT_PAIRS)) % 2]
            lat = self.next_lattice()
            divisor, _, _ = random_divisor(self.rng, lat, pairs)
            m = (self.rng.randint(-2, 2), self.rng.randint(-2, 2))
            self.pool.append((index, lat, pairs, coloring, divisor, m))
        self.ops: list[PlotOp] = []
        self.next_index = 0
        self.first_digest: dict[int, str] = {}
        self._checkers: dict[int, tuple] = {}
        self.out_path = work_dir / f"plot-{seed}.ppm"

    def setup_lattice(self):
        return self.pool[0][1]

    @functools.cached_property
    def committed(self) -> list[str] | None:
        """Committed portrait digests, for the digest seed only."""
        return load_digests() if self.seed == DIGEST_SEED else None

    def prepare(self):
        """Synthesize the whole pool through the CLI, outside the timed region."""
        for index, lat, pairs, coloring, divisor, (m1, m2) in self.pool:
            text = _cli_ok(
                ["synth", "--lattice", lat.text(), "--divisor", json.dumps(divisor), f"--m1={m1}", f"--m2={m2}"]
            ).strip()
            self.ops.append(
                PlotOp(index, lat, pairs, coloring, text, (lat.p1 + lat.p2) / 2, abs(lat.p1) + abs(lat.p2))
            )

    def cycle(self):
        ops = [self.ops[(self.next_index + k) % len(self.ops)] for k in range(len(PLOT_PAIRS))]
        self.next_index += len(PLOT_PAIRS)
        return ops

    def argv(self, op: PlotOp) -> list[str]:
        return [
            "plot", "--spec", op.spec_text, "--out", str(self.out_path), f"--center={cplx(op.center)}",
            f"--width={op.size!r}", f"--height={op.size!r}", "--resolution", f"{PLOT_PX[0]}x{PLOT_PX[1]}",
            "--coloring", op.coloring,
        ]

    def execute(self, op: PlotOp):
        t0 = time.perf_counter()
        rc, _, err = run_cli(self.argv(op))
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise OpFailed(f"plot exited {rc}: {err.strip()[:200]}")
        data = self.out_path.read_bytes()
        self.check(op, data)
        return elapsed

    def check(self, op: PlotOp, data: bytes) -> None:
        """Digest against the committed one (DIGEST_SEED) or the run's first render, plus spot pixels."""
        digest = hashlib.sha256(data).hexdigest()
        expected = self.committed[op.index] if self.committed else self.first_digest.setdefault(op.index, digest)
        if digest != expected:
            raise OpFailed(f"portrait {op.index} digest {digest[:12]} != {expected[:12]}")
        if not data.startswith(PLOT_HEADER) or len(data) != len(PLOT_HEADER) + 3 * PLOT_PX[0] * PLOT_PX[1]:
            raise OpFailed("portrait has the wrong header or size")
        if op.index not in self._checkers:
            spec = jsonio.spec_from_obj(json.loads(op.spec_text))
            self._checkers[op.index] = (spec, SigmaEvaluator(spec.lattice), random.Random(digest))
        spec, ev, rng = self._checkers[op.index]
        body = data[len(PLOT_HEADER):]
        wpx, hpx = PLOT_PX
        for _ in range(SPOT_PIXELS):
            row, col = rng.randrange(hpx), rng.randrange(wpx)
            # the pixel-centre expression of the README's pixel contract
            y = op.center.imag + op.size / 2 - (row + 0.5) * op.size / hpx
            x = op.center.real - op.size / 2 + (col + 0.5) * op.size / wpx
            want = pixel_rgb(eval_f(spec, ev, complex(x, y)), op.coloring)
            k = 3 * (row * wpx + col)
            if tuple(body[k:k + 3]) != want:
                raise OpFailed(f"portrait {op.index} pixel ({row}, {col}) is {tuple(body[k:k + 3])}, want {want}")


def pixel_rgb(value, coloring: str) -> tuple[int, int, int]:
    """Colour of one pixel by the README's contract: HSV hue from phase, round(255 * c)."""
    if isinstance(value, PoleValue):
        return (255, 255, 255)
    if value.is_zero():
        return (0, 0, 0)
    hue = (value.phase + math.pi) / (2 * math.pi)
    v = 1.0
    if coloring == "phase-mod" and math.isfinite(value.log_mag):
        v = 0.7 + 0.3 * (value.log_mag - math.floor(value.log_mag))
    return tuple(int(255 * c + 0.5) for c in colorsys.hsv_to_rgb(hue % 1.0, 1.0, v))


def load_digests() -> list[str]:
    obj = json.loads(DIGESTS_PATH.read_text())
    if obj["seed"] != DIGEST_SEED or len(obj["sha256"]) != PLOT_ROUNDS * len(PLOT_PAIRS):
        raise ValueError(f"{DIGESTS_PATH.name} does not match the plot pool")
    return obj["sha256"]


@dataclass(frozen=True)
class OracleOp:
    lat: Lat
    z: complex
    xi0: complex
    divisor: dict
    m1: int
    m2: int
    points: tuple[complex, ...]


class OracleWorkload(Workload):
    name = "oracle"
    extra_rate = "checks_per_s"
    units_per_op = ORACLE_CHECKS
    setup_direct = True
    cycle_pairs = ORACLE_PAIRS

    def make(self, pairs: int) -> OracleOp:
        lat = self.next_lattice()
        z = lat.point(self.rng.uniform(-0.5, 0.5), self.rng.uniform(-0.5, 0.5))
        while abs(z) < 0.1 * abs(lat.P1):
            z = lat.point(self.rng.uniform(-0.5, 0.5), self.rng.uniform(-0.5, 0.5))
        xi0 = lat.point(self.rng.uniform(0.1, 0.9), self.rng.uniform(0.1, 0.9))
        divisor, zeros, poles = random_divisor(self.rng, lat, pairs)
        # keep the literal-formula points away from every zero and pole of
        # either form, including 0 and the cell image of sum(poles) - sum(zeros)
        points = separated_points(self.rng, lat, LITERAL_POINTS, [*zeros, *poles, sum(poles) - sum(zeros)])
        return OracleOp(lat, z, xi0, divisor, self.rng.randint(-2, 2), self.rng.randint(-2, 2), tuple(points))

    def execute(self, op: OracleOp):
        L = op.lat.text()
        t0 = time.perf_counter()
        sig = {
            b: _cli_ok(["sigma", "--lattice", L, f"--z={cplx(op.z)}", "--backend", b, f"--shells={SHELLS}"])
            for b in ("direct", "fast")
        }
        etas = {
            (b, j): _cli_ok(["eta", "--lattice", L, f"--j={j}", "--backend", b, f"--shells={SHELLS}"])
            for b in ("direct", "fast")
            for j in (1, 2)
        }
        vjs = {
            (m, j): _cli_ok(["vj", "--lattice", L, f"--xi0={cplx(op.xi0)}", f"--j={j}", "--method", m,
                             f"--shells={SHELLS}"])
            for m in ("direct", "eta")
            for j in (1, 2)
        }
        literal = literal_formula(op)
        elapsed = time.perf_counter() - t0
        check_oracle(op, sig, etas, vjs, literal)
        return elapsed


#: The library calls of the literal-formula check; the traced run swaps in
#: wrapped versions with the same signatures.
LIBRARY = {
    "synthesize": synthesize,
    "eval_f": eval_f,
    "eval_elliptic": eval_elliptic,
}


def literal_formula(op: OracleOp, lib: dict = LIBRARY) -> list[tuple[complex, complex]]:
    """(eval_f, literal) log pairs at the op's points.

    The literal side is the paper's formula in log form,
    a*z + log g(z) + log sigma(z) - log sigma(z - xi0).
    """
    lat = make_lattice(op.lat.p1, op.lat.p2)
    zeros = [(complex(e[0], e[1]), e[2]) for e in op.divisor["zeros"]]
    poles = [(complex(e[0], e[1]), e[2]) for e in op.divisor["poles"]]
    spec = lib["synthesize"](make_divisor(zeros, poles, lat), op.m1, op.m2, lat)
    ev = SigmaEvaluator(lat)
    pairs = []
    for z in op.points:
        f = lib["eval_f"](spec, ev, z)
        g = lib["eval_elliptic"](spec.g, ev, z)
        s0, s1 = sigma(ev, z), sigma(ev, z - spec.xi0)
        if any(isinstance(v, PoleValue) or v.is_zero() for v in (f, g, s0, s1)):
            raise OpFailed("literal-formula point hit a zero or pole")
        pairs.append((f.log(), spec.a * z + g.log() + s0.log() - s1.log()))
    return pairs


def _parse_sigma(text: str) -> tuple[float, float]:
    fields = dict(part.split("=") for part in text.split())
    return float(fields["log_mag"]), float(fields["phase"])


def check_oracle(op: OracleOp, sig: dict, etas: dict, vjs: dict, literal) -> None:
    """Gate every cross-check on the program's own certificates."""
    lat = make_lattice(op.lat.p1, op.lat.p2)
    bound = (
        SigmaEvaluator(lat, backend="direct", truncation_shells=SHELLS).a_priori_bound(op.z)
        + SigmaEvaluator(lat).a_priori_bound(op.z)
    )
    (lm_d, ph_d), (lm_f, ph_f) = _parse_sigma(sig["direct"]), _parse_sigma(sig["fast"])
    gap = log_distance(lm_d, ph_d, lm_f, ph_f)
    if not gap <= bound + PRINT_REL * (1 + abs(lm_f)):
        raise OpFailed(f"direct and fast sigma differ by {gap:.3e}, certificate {bound:.3e}")
    for j in (1, 2):
        vd, ve = (json.loads(vjs[(m, j)]) for m in ("direct", "eta"))
        v_bound = vd["error_bound"] + ve["error_bound"]
        v_gap = abs(complex(*vd["v"]) - complex(*ve["v"]))
        if not v_gap <= v_bound:
            raise OpFailed(f"v_{j}: direct and eta differ by {v_gap:.3e}, certificate {v_bound:.3e}")
        # the direct eta and direct v_j use the same paired lattice sum, with
        # v_j = -xi0 * eta_j, so the v_j certificate divided by |xi0| covers eta_j
        ed, ef = (complex(*json.loads(etas[(b, j)])["eta"]) for b in ("direct", "fast"))
        if not abs(ed - ef) <= v_bound / abs(op.xi0):
            raise OpFailed(f"eta_{j}: direct and fast differ by {abs(ed - ef):.3e}")
    for f_log, lit_log in literal:
        gap = log_distance(f_log.real, f_log.imag, lit_log.real, lit_log.imag)
        if not gap <= LITERAL_TOL:
            raise OpFailed(f"literal formula differs from eval_f by {gap:.3e}")


# ---------------------------------------------------------------- the loop


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it.

    With fewer than eleven samples the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


#: The reference block: a pure-Python integer loop of REF_LOOP iterations
#: (about 7 ms on a quiet 2-vCPU Xeon), then REF_PASSES log-product sums over
#: an array of REF_SIZE complex points in numpy (about 4 ms).  Beside the
#: ops over several minutes of a drifting host, the loop followed plot's
#: interpreted pixel loop most closely and the array sums followed oracle's
#: lattice sums; two parts loop to one part array, by time, served both.
#: The array is small enough to leave peak RSS to the program.
REF_LOOP = 60_000
REF_SIZE = 10_000
REF_PASSES = 6
_REF_W = np.exp(1j * np.linspace(0.0, 6.0, REF_SIZE)) * np.linspace(0.05, 0.5, REF_SIZE)
#: An op's time is scaled by the median of the reference blocks run within
#: REF_SPAN_S seconds of it: long enough to smooth the blocks' own jitter,
#: short beside the minutes a host's slow spell lasts.
REF_SPAN_S = 10.0
#: About the seconds one reference block takes on a quiet 2-vCPU Xeon: the
#: unit that turns set-up time in reference blocks back into seconds.
REF_SECONDS = 0.01


def reference_block() -> float:
    """Wall seconds of a fixed piece of work that belongs to the benchmark.

    Run beside every op, it measures how fast the host is running at that
    moment: a shared host slows everything on it by up to 2x for a minute
    at a time, and the reference slows with the program.  The program's code
    is not in it, so a change to the program does not move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc + i * i) % 1_000_003
    for k in range(REF_PASSES):
        w = _REF_W * (1.0 + 1e-3 * k + 1e-12 * acc)
        complex((np.log1p(-w) + w + 0.5 * (w * w)).sum())
    return time.perf_counter() - t0


def run_ops(workload, seconds: float, between_cycles=None) -> dict:
    """Closed loop over whole cycles (at least one) for about `seconds` seconds of wall time.

    A reference block runs before the first op and after every op, outside
    the op timings.  `between_cycles(wall)`, if given, runs after each
    cycle, outside the op timings too.  Besides the wall time of each op
    that passed, the result holds its time in reference blocks: its wall
    time over the median of the blocks run within REF_SPAN_S of it.
    """
    ops, times, errors, cycle_of, at = [], [], [], [], []
    refs, ref_at = [], []

    def reference():
        t = time.perf_counter()
        refs.append(reference_block())
        ref_at.append(t)

    # leave the inputs and the imported modules out of the garbage
    # collector's scans, as in a fresh CLI process
    gc.collect()
    gc.freeze()
    reference()
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in workload.cycle():
            ops.append(op)
            t = time.perf_counter()
            try:
                times.append(workload.execute(op))
                cycle_of.append(cycles)
                at.append(t)
            except OpFailed as exc:
                errors.append(str(exc))
            reference()
        cycles += 1
        if between_cycles:
            between_cycles(time.perf_counter() - start)
        wall = time.perf_counter() - start
        # start another cycle only if it is expected to end by the deadline
        if wall * (cycles + 1) / cycles > seconds:
            break
    if not times:
        raise SystemExit(f"bench: every op failed; the first error: {errors[0]}")
    result = {"ops": ops, "times": times, "cycle_of": cycle_of, "cycles": cycles,
              "refs": refs, "ref_at": ref_at, "errors": errors, "wall": wall}
    result["norm"] = [elapsed / ref_median(result, t) for t, elapsed in zip(at, times)]
    return result


def ref_median(result: dict, t: float) -> float:
    """Median time of the run's reference blocks within REF_SPAN_S of perf_counter() time t."""
    refs, ref_at = result["refs"], result["ref_at"]
    lo = bisect.bisect_left(ref_at, t - REF_SPAN_S)
    hi = bisect.bisect_right(ref_at, t + REF_SPAN_S)
    return statistics.median(refs[lo:hi] or refs)


WORKLOADS = {w.name: w for w in (VerifyWorkload, PlotWorkload, OracleWorkload)}
