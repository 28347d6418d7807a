"""Command-line front end: JSON in/out for every operation plus PPM portraits.

Exit codes: 0 success, 1 validation error, 2 numerical-tolerance failure,
3 I/O error.  The environment variable ELLIPSE_PHASE_SEED overrides --seed,
and an optional ./ellipse-phase.json supplies flag defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .errors import (
    AccuracyNotMet,
    ContourTooClose,
    EllipsePhaseError,
    IoFailure,
    PoleOrZeroHit,
    TooManyPoleHits,
)
from .render import Coloring, RenderSpec, render_phase_portrait
from .sigma_ratio import v_constant
from .synthesis import eval_f, synthesize
from .verify import GridSpec, QuadratureSpec, report_passes, verify_spec
from .weierstrass import Backend, SigmaEvaluator, eta, sigma

CONFIG_PATH = "ellipse-phase.json"
SEED_ENV = "ELLIPSE_PHASE_SEED"

_VALIDATION = 1
_TOLERANCE = 2
_IO = 3


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _read_json_arg(text: str):
    """Accept inline JSON or a path to a JSON file."""
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected 're,im', got {text!r}")


def _parse_grid(text: str) -> tuple[int, int]:
    nx, _, ny = text.partition("x")
    return int(nx), int(ny or nx)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipse-phase",
        description="Construct, evaluate, and verify functions with doubly periodic phase.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sigma = sub.add_parser("sigma", help="evaluate the sigma function in log form")
    p_sigma.add_argument("--lattice", required=True)
    p_sigma.add_argument("--z", required=True)
    p_sigma.add_argument("--backend", choices=["direct", "fast"], default="fast")
    p_sigma.add_argument("--shells", type=int, default=200)

    p_eta = sub.add_parser("eta", help="print a cached quasi-period")
    p_eta.add_argument("--lattice", required=True)
    p_eta.add_argument("--j", type=int, choices=[1, 2], required=True)
    p_eta.add_argument("--backend", choices=["direct", "fast"], default="fast")
    p_eta.add_argument("--shells", type=int, default=200)

    p_vj = sub.add_parser("vj", help="translation constant of the four-sigma ratio")
    p_vj.add_argument("--lattice", required=True)
    p_vj.add_argument("--xi0", required=True)
    p_vj.add_argument("--j", type=int, choices=[1, 2], required=True)
    p_vj.add_argument("--method", choices=["direct", "eta"], default="eta")
    p_vj.add_argument("--shells", type=int, default=200)

    p_synth = sub.add_parser("synth", help="synthesize a doubly-periodic-phase function")
    p_synth.add_argument("--lattice", required=True)
    p_synth.add_argument("--divisor", required=True)
    p_synth.add_argument("--m1", type=int, default=0)
    p_synth.add_argument("--m2", type=int, default=0)

    p_verify = sub.add_parser("verify", help="verify a synthesized spec numerically")
    p_verify.add_argument("--spec", required=True)
    p_verify.add_argument("--grid", default="10x10")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tol", type=float, default=1e-6)

    p_plot = sub.add_parser("plot", help="render a phase portrait as a PPM file")
    p_plot.add_argument("--spec", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--center", default=None)
    p_plot.add_argument("--width", type=float, default=None)
    p_plot.add_argument("--height", type=float, default=None)
    p_plot.add_argument("--resolution", default="256x256")
    p_plot.add_argument(
        "--coloring", choices=[c.value for c in Coloring], default=Coloring.PHASE_HUE.value
    )
    return parser


def _cmd_sigma(args) -> int:
    lat = jsonio.lattice_from_obj(_read_json_arg(args.lattice))
    ev = SigmaEvaluator(lat, backend=Backend(args.backend), truncation_shells=args.shells)
    lv = sigma(ev, _parse_complex(args.z))
    print(f"log_mag={_fmt(lv.log_mag)} phase={_fmt(lv.phase)}")
    return 0


def _cmd_eta(args) -> int:
    lat = jsonio.lattice_from_obj(_read_json_arg(args.lattice))
    ev = SigmaEvaluator(lat, backend=Backend(args.backend), truncation_shells=args.shells)
    value = eta(ev, args.j)
    print(jsonio.dumps({"eta": jsonio.complex_to_obj(value)}))
    return 0


def _cmd_vj(args) -> int:
    lat = jsonio.lattice_from_obj(_read_json_arg(args.lattice))
    rc = v_constant(lat, _parse_complex(args.xi0), args.j, method=args.method, shells=args.shells)
    print(
        jsonio.dumps(
            {
                "v": jsonio.complex_to_obj(rc.v),
                "error_bound": rc.error_bound,
                "method": rc.method.value,
                "shells_used": rc.shells_used,
            }
        )
    )
    return 0


def _cmd_synth(args) -> int:
    lat = jsonio.lattice_from_obj(_read_json_arg(args.lattice))
    d = jsonio.divisor_from_obj(_read_json_arg(args.divisor), lat)
    spec = synthesize(d, args.m1, args.m2, lat)
    print(jsonio.dumps(jsonio.spec_to_obj(spec)))
    return 0


def _cmd_verify(args) -> int:
    spec = jsonio.spec_from_obj(_read_json_arg(args.spec))
    nx, ny = _parse_grid(args.grid)
    grid = GridSpec(spec.lattice, nx, ny, seed=args.seed)
    quad = QuadratureSpec(seed=args.seed + 1)
    report = verify_spec(spec, grid=grid, quad=quad)
    print(jsonio.dumps(jsonio.report_to_obj(report)))
    return 0 if report_passes(report, spec, tol=args.tol) else _TOLERANCE


def _cmd_plot(args) -> int:
    spec = jsonio.spec_from_obj(_read_json_arg(args.spec))
    lat = spec.lattice
    ev = SigmaEvaluator(lat)
    center = _parse_complex(args.center) if args.center else (lat.p1 + lat.p2) / 2
    span = abs(lat.p1) + abs(lat.p2)
    width = args.width if args.width is not None else span
    height = args.height if args.height is not None else span
    wpx, hpx = _parse_grid(args.resolution)
    rspec = RenderSpec(
        center=center,
        width=width,
        height=height,
        width_px=wpx,
        height_px=hpx,
        coloring=Coloring(args.coloring),
        output_path=args.out,
    )
    render_phase_portrait(lambda z: eval_f(spec, ev, z), rspec)
    return 0


_COMMANDS = {
    "sigma": _cmd_sigma,
    "eta": _cmd_eta,
    "vj": _cmd_vj,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def _load_config() -> dict:
    """Flag defaults from ./ellipse-phase.json; bad JSON or a non-object is a ValueError."""
    if not os.path.exists(CONFIG_PATH):
        return {}
    with open(CONFIG_PATH, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{CONFIG_PATH}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{CONFIG_PATH}: expected a JSON object, got {type(cfg).__name__}")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        config = _load_config()
        if config:
            parser.set_defaults(**config)
            for action in parser._subparsers._group_actions:
                for sub in action.choices.values():
                    sub.set_defaults(**config)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code == 0 else _VALIDATION

        if SEED_ENV in os.environ and hasattr(args, "seed"):
            args.seed = int(os.environ[SEED_ENV])

        return _COMMANDS[args.command](args)
    except (
        AccuracyNotMet,
        ContourTooClose,
        TooManyPoleHits,
        PoleOrZeroHit,
        ArithmeticError,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _TOLERANCE
    except IoFailure as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _IO
    except OSError as exc:
        print(f"IoFailure: {exc}", file=sys.stderr)
        return _IO
    except (EllipsePhaseError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _VALIDATION


if __name__ == "__main__":
    sys.exit(main())
