"""Bit-identity fingerprint of the program's outputs over seeded inputs.

Run from the repository root as

    PYTHONPATH=src python tests/fingerprint.py [N]

with N seeded specs (default 60).  Every command runs in-process through
`ellipse_phase.cli.main`, in an empty temporary working directory, and its
exit code, stdout and stderr are hashed:

- `synth` and `verify --grid 6x5` for each spec.  The specs have 1-3 pairs,
  lattices presented by shears (P1, P2 + k*P1) with k in [-2, 2] or by the
  swap (P2, -P1), a zero at the origin every 7th spec, and every 5th spec a
  congruent zero/pole pair and a point given outside the cell;
- `plot --resolution 16x16` (the PPM bytes too) for every 10th spec;
- `sigma` (both backends), `eta` (both backends) and `vj` (both methods) on
  one seeded lattice per spec;
- `eta --j 1`, `eta --j 2` and `synth` of zeros 1/4, 3/4 and a double pole at
  1/2 (so xi0 = 0) on the i-th of the period pairs with entries in
  {-1, 0, 0.5, 1, 2} that span a lattice.  Their many zero components catch a
  flipped sign of zero.

The reloaded spec's quotient and the exact `repr` of the fast `eta1`, `eta2`
on the presented basis and of `eval_f`, `sigma` and both backends'
`a_priori_bound` at 6 points per spec are hashed as well, so changes below the
CLI's printed precision show; so is whether the torus distance from each
divisor point to xi0 and to each point of g is within each of `TORUS_TOLS`.
Two trees give bit-identical results when this script prints the same sha256
with PYTHONPATH set to each tree's `src`.  Each hashed value also belongs to one
family of `FAMILIES`, and `parts` gives the first 12 hex digits of the sha256 of
each family's bytes, so a moved hash names what moved.  The families in
`PARTS_ONLY` go into `parts` and not into the sha256, so the sha256 recorded
before they were added stays comparable.  The `divisor` family hashes `synth`,
the reloaded quotient and g of one more divisor per spec, drawn from its own
seeded generator (see `divisor_case`).  The `zeta` family hashes the exact
`repr` of the fast `zeta` and of the spec's exact f'/f (`log_derivative`) at
the same 6 points per spec.  `verify_worst_miss` is the largest
torus distance from `xi0_recovered` to the spec's `xi0` over the `verify` runs
that exit 0, so a change in accuracy shows even where no exit code flips; it
is in neither the sha256 nor `parts`.  Output is one line:

    sha256=<hex> specs=<N> verify_exits=<code>:<count>,... verify_worst_miss=<float>
    parts=<family>:<hex>,...

(one line, wrapped here).
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
import tempfile
from collections import Counter

from ellipse_phase import (
    DegenerateLattice,
    SigmaEvaluator,
    cli,
    eval_f,
    jsonio,
    make_lattice,
    sigma,
    torus_distance,
)
from ellipse_phase.weierstrass import log_derivative, zeta

#: Direct-backend shells: enough to exercise the sums, cheap enough for Tier-1.
DIRECT_SHELLS = 20

#: Tolerances callers compare torus distances with: SNAP_TOL, ABEL_TOL, verify --tol.
#: Only these comparisons are hashed: beyond small separations the distance is
#: |d - lam| for the coordinate-rounded lattice vector lam, which on a sheared
#: basis may exceed the shortest such distance.
TORUS_TOLS = (1e-12, 1e-9, 1e-6)

#: Hash families, in output order: CLI commands by name, and `values` for the
#: exact library values (quotient, eta, eval_f, sigma, bounds, torus distances).
FAMILIES = ("eta", "synth", "verify", "values", "plot", "sigma", "vj", "divisor", "zeta")

#: Families hashed into `parts` only, not into the overall sha256.
PARTS_ONLY = ("divisor", "zeta")

#: Divisor with xi0 = 0 on the real axis, synthesized on the small-entry lattices.
AXIS_DIVISOR = json.dumps({"zeros": [[0.25, 0, 1], [0.75, 0, 1]], "poles": [[0.5, 0, 2]]})


def small_entry_lattices() -> list[str]:
    """Period pairs with entries in {-1, 0, 0.5, 1, 2}, in a fixed order, as --lattice JSON."""
    pairs = []
    for a, b, c, d in itertools.product((-1, 0, 0.5, 1, 2), repeat=4):
        try:
            make_lattice(complex(a, b), complex(c, d))
        except DegenerateLattice:
            continue
        pairs.append(json.dumps({"p1": [a, b], "p2": [c, d]}))
    return pairs


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cplx(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def lattice_basis(rng: random.Random) -> tuple[complex, complex, complex, complex]:
    """A presented basis (p1, p2) and the well-shaped basis (P1, P2) it comes from."""
    omega = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
    P1 = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    P2 = P1 * omega
    if rng.random() < 0.25:
        return P2, -P1, P1, P2
    k = rng.randint(-2, 2)
    return P1, P2 + k * P1, P1, P2


def divisor_obj(i: int, rng: random.Random, P1: complex, P2: complex) -> dict:
    pairs = 1 + i % 3
    pts = [rng.uniform(0.1, 0.9) * P1 + rng.uniform(0.1, 0.9) * P2 for _ in range(2 * pairs)]
    zeros, poles = pts[:pairs], pts[pairs:]
    if i % 7 == 3:
        zeros[0] = 0j
    if i % 5 == 1:
        zeros[-1] += rng.choice((-1, 1)) * P1 - rng.choice((0, 2)) * P2
        w = rng.uniform(0.1, 0.9) * P1 + rng.uniform(0.1, 0.9) * P2
        zeros.append(w)
        poles.append(w + P1 - P2)
    return {
        "zeros": [[z.real, z.imag, 1] for z in zeros],
        "poles": [[p.real, p.imag, 1] for p in poles],
    }


def divisor_case(i: int, rng: random.Random, P1: complex, P2: complex) -> dict:
    """A divisor that exercises merging, cancelling and folding; the kind cycles with i.

    Multiplicities 2-3 with repeated and congruent points; a zero at 0; a pole at
    0 with xi0 = 0; a zero at xi0; a pole at xi0; and 10-40 random points.
    """

    def pt() -> complex:
        return rng.uniform(0.1, 0.9) * P1 + rng.uniform(0.1, 0.9) * P2

    a, b, c, d = pt(), pt(), pt(), pt()
    kind = i % 6
    if kind == 0:
        zeros = [(a, 2), (a, 1), (b + P1 - P2, 3)]
        poles = [(c, 3), (c - 2 * P2, 2), (b, 1)]
    elif kind == 1:
        zeros, poles = [(0j, 1), (a, 1)], [(b, 1), (c, 1)]
    elif kind == 2:
        zeros, poles = [(a, 1), (b, 1)], [(0j, 1), (a + b, 1)]
    elif kind == 3:
        zeros, poles = [(a, 1), ((c + d - a) / 2, 1)], [(c, 1), (d, 1)]
    elif kind == 4:
        zeros, poles = [(a, 1), (b, 1)], [(a + b, 1), (d, 1)]
    else:
        pairs = rng.randint(5, 20)
        zeros = [(pt(), rng.randint(1, 2)) for _ in range(pairs)]
        poles = [(pt(), m) for _, m in zeros]
    return {
        "zeros": [[z.real, z.imag, m] for z, m in zeros],
        "poles": [[p.real, p.imag, m] for p, m in poles],
    }


def fingerprint(n_specs: int) -> tuple[str, Counter, float, dict[str, str]]:
    digest = hashlib.sha256()
    family_digests = {family: hashlib.sha256() for family in FAMILIES}
    exits: Counter = Counter()
    worst_miss = 0.0

    def feed(family: str, *parts) -> None:
        """Hash `parts` into `family`'s digest, and into the overall one unless PARTS_ONLY."""
        for part in parts:
            data = (part if isinstance(part, bytes) else repr(part).encode()) + b"\0"
            if family not in PARTS_ONLY:
                digest.update(data)
            family_digests[family].update(data)

    small = small_entry_lattices()
    rng = random.Random(20240817)
    divisor_rng = random.Random(20261018)
    for i in range(n_specs):
        lattice = small[i % len(small)]
        for j in ("1", "2"):
            feed("eta", run_cli(["eta", "--lattice", lattice, "--j", j]))
        feed("synth", run_cli(["synth", "--lattice", lattice, "--divisor", AXIS_DIVISOR]))

        p1, p2, P1, P2 = lattice_basis(rng)
        lattice = json.dumps({"p1": [p1.real, p1.imag], "p2": [p2.real, p2.imag]})
        case = json.dumps(divisor_case(i, divisor_rng, P1, P2))
        m = f"--m1={divisor_rng.randint(-1, 1)}", f"--m2={divisor_rng.randint(-1, 1)}"
        synth = run_cli(["synth", "--lattice", lattice, "--divisor", case, *m])
        feed("divisor", i, *synth)
        if synth[0] == 0:
            spec = jsonio.spec_from_obj(json.loads(synth[1]))
            feed("divisor", spec.quotient, spec.g)
        divisor = json.dumps(divisor_obj(i, rng, P1, P2))
        m1, m2 = rng.randint(-1, 1), rng.randint(-1, 1)
        argv = ["synth", "--lattice", lattice, "--divisor", divisor, f"--m1={m1}", f"--m2={m2}"]
        synth = run_cli(argv)
        feed("synth", "synth", i, *synth)
        if synth[0] != 0:
            continue
        verify = run_cli(["verify", "--spec", synth[1], "--grid", "6x5"])
        feed("verify", "verify", *verify)
        exits[verify[0]] += 1

        spec = jsonio.spec_from_obj(json.loads(synth[1]))
        if verify[0] == 0:
            recovered = complex(*json.loads(verify[1])["xi0_recovered"])
            worst_miss = max(worst_miss, torus_distance(recovered, spec.xi0, spec.lattice))
        ev = SigmaEvaluator(spec.lattice)
        direct = SigmaEvaluator(spec.lattice, "direct", DIRECT_SHELLS)
        feed("values", spec.quotient, ev.eta1, ev.eta2)
        for p, _ in spec.divisor.zeros + spec.divisor.poles:
            for q in (spec.xi0, *spec.g.zeros, *spec.g.poles):
                dist = torus_distance(p, q, spec.lattice)
                feed("values", [dist <= tol for tol in TORUS_TOLS])
        for _ in range(6):
            z = rng.uniform(-1.5, 2.5) * P1 + rng.uniform(-1.5, 2.5) * P2
            bounds = ev.a_priori_bound(z), direct.a_priori_bound(z)
            feed("values", eval_f(spec, ev, z), sigma(ev, z), *bounds)
            feed("zeta", zeta(ev, z), log_derivative(spec.quotient, ev, z))
        if i % 10 == 0:
            plot = run_cli(["plot", "--spec", synth[1], "--out", "f.ppm", "--resolution", "16x16"])
            with open("f.ppm", "rb") as fh:
                feed("plot", "plot", *plot, fh.read())

        z = rng.uniform(-2.0, 2.0) * P1 + rng.uniform(-2.0, 2.0) * P2
        xi0 = rng.uniform(0.0, 1.0) * P1 + rng.uniform(0.0, 1.0) * P2
        shells = f"--shells={DIRECT_SHELLS}"
        for backend in ("fast", "direct"):
            argv = ["sigma", "--lattice", lattice, f"--z={cplx(z)}", "--backend", backend]
            feed("sigma", run_cli(argv + [shells]))
            for j in ("1", "2"):
                eta_argv = ["eta", "--lattice", lattice, "--j", j, "--backend", backend, shells]
                feed("eta", run_cli(eta_argv))
        for method in ("eta", "direct"):
            for j in ("1", "2"):
                argv = ["vj", "--lattice", lattice, f"--xi0={cplx(xi0)}", "--j", j]
                feed("vj", run_cli(argv + ["--method", method, shells]))
    parts = {family: d.hexdigest()[:12] for family, d in family_digests.items()}
    return digest.hexdigest(), exits, worst_miss, parts


def main(argv: list[str]) -> int:
    n_specs = int(argv[1]) if len(argv) > 1 else 60
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            sha, exits, worst_miss, parts = fingerprint(n_specs)
        finally:
            os.chdir(home)
    counts = ",".join(f"{code}:{count}" for code, count in sorted(exits.items()))
    families = ",".join(f"{family}:{hexdigest}" for family, hexdigest in parts.items())
    print(
        f"sha256={sha} specs={n_specs} verify_exits={counts} "
        f"verify_worst_miss={worst_miss:.3e} parts={families}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
