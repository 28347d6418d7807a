"""Command-line front end: JSON in/out for every operation plus PPM portraits.

Exit codes: 0 success, 1 validation error, 2 numerical-tolerance failure,
3 I/O error; each package error class declares its own as `exit_code`.  A
`verify` that exits 2 names each failed check on stderr.  An optional
./ellipse-phase.json supplies flag defaults.  `verify --seed` is
accepted and ignored: `verify` draws no random numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import jsonio
from .errors import AccuracyNotMet, EllipsePhaseError, IoFailure
from .weierstrass import Backend, SigmaEvaluator, eta, sigma, v_constant

CONFIG_PATH = "ellipse-phase.json"


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


def _parse_grid(text: str, flag: str) -> tuple[int, int]:
    """(W, H) from a flag's value `WxH`, or (N, N) from `N`; anything else is a ValueError."""
    match = re.fullmatch(r"([0-9]+)(?:x([0-9]+))?", text)
    if match is None:
        raise ValueError(f"{flag} must be N or WxH, got {text!r}")
    nx, ny = match.groups()
    return int(nx), int(ny or nx)


def _build_parser() -> argparse.ArgumentParser:
    from .render import Coloring

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

    p_eta = sub.add_parser("eta", help="print a quasi-period (theta value or lattice sum)")
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
    # ignored; kept so that existing calls and config files still parse
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
    z = _parse_complex(args.z)
    lv = sigma(ev, z)
    # library sigma still returns the truncated product where it has no bound
    # (tests compare it there on purpose); the CLI prints only bounded values
    if ev.a_priori_bound(z) == math.inf:
        raise AccuracyNotMet(
            f"the direct product has no error bound at |z| = {abs(z):.6g}"
            f" with {ev.truncation_shells} shells"
        )
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
    from .synthesis import synthesize

    lat = jsonio.lattice_from_obj(_read_json_arg(args.lattice))
    d = jsonio.divisor_from_obj(_read_json_arg(args.divisor), lat)
    spec = synthesize(d, args.m1, args.m2, lat)
    print(jsonio.dumps(jsonio.spec_to_obj(spec)))
    return 0


def _cmd_verify(args) -> int:
    from .verify import GridSpec, failed_checks, verify_spec

    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    spec = jsonio.spec_from_obj(_read_json_arg(args.spec))
    nx, ny = _parse_grid(args.grid, "--grid")
    report = verify_spec(spec, grid=GridSpec(spec.lattice, nx, ny))
    print(jsonio.dumps(jsonio.report_to_obj(report)))
    failed = failed_checks(report, spec, tol=args.tol)
    for name, value, limit in failed:
        print(f"verify: failed {name}: {value:.3g} (limit {limit:.3g})", file=sys.stderr)
    return 2 if failed else 0  # a tolerance failure


def _cmd_plot(args) -> int:
    from .render import Coloring, RenderSpec, render_phase_portrait
    from .synthesis import eval_f

    spec = jsonio.spec_from_obj(_read_json_arg(args.spec))
    lat = spec.lattice
    center = _parse_complex(args.center) if args.center else (lat.p1 + lat.p2) / 2
    span = abs(lat.p1) + abs(lat.p2)
    width = args.width if args.width is not None else span
    height = args.height if args.height is not None else span
    wpx, hpx = _parse_grid(args.resolution, "--resolution")
    rspec = RenderSpec(
        center=center,
        width=width,
        height=height,
        width_px=wpx,
        height_px=hpx,
        coloring=Coloring(args.coloring),
        output_path=args.out,
    )
    render_phase_portrait(lambda z: eval_f(spec, spec.ev, z), rspec)
    return 0


_COMMANDS = {
    "sigma": _cmd_sigma,
    "eta": _cmd_eta,
    "vj": _cmd_vj,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


@functools.lru_cache(maxsize=8)
def _parser(config_items: tuple) -> argparse.ArgumentParser:
    """The parser with `config_items` as flag defaults; built once per process and config.

    argparse keeps no state between `parse_args` calls, so one parser serves them all.
    """
    parser = _build_parser()
    for sub in _subparsers(parser):
        sub.set_defaults(**dict(config_items))
        # a value such as "-0.3,0.2" or "-.5" is a number, not a flag
        sub._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _subparsers(parser: argparse.ArgumentParser):
    return parser._subparsers._group_actions[0].choices.values()


def _load_config(subparsers) -> dict:
    """Flag defaults from ./ellipse-phase.json, parsed as argv would be; else ValueError."""
    if not os.path.exists(CONFIG_PATH):
        return {}
    with open(CONFIG_PATH, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{CONFIG_PATH}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{CONFIG_PATH}: expected a JSON object, got {type(cfg).__name__}")
    for key, value in cfg.items():
        actions = [a for sub in subparsers for a in sub._actions if a.dest == key]
        if not any(a.option_strings for a in actions):
            raise ValueError(f"{CONFIG_PATH}: {key!r} is not a flag of any subcommand")
        for action in actions:
            try:
                if not (isinstance(value, str) or (action.type and type(value) in (int, float))):
                    raise ValueError
                cfg[key] = (action.type or str)(str(value))
                if action.choices is not None and cfg[key] not in action.choices:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{CONFIG_PATH}: --{key} cannot take {value!r}") from None
    return cfg


def main(argv=None) -> int:
    try:
        config = _load_config(_subparsers(_parser(())))
        try:
            args = _parser(tuple(sorted(config.items()))).parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code == 0 else EllipsePhaseError.exit_code

        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"{IoFailure.__name__}: {exc}", file=sys.stderr)
        return IoFailure.exit_code
    except (EllipsePhaseError, ArithmeticError, ValueError, KeyError, TypeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2 if isinstance(exc, ArithmeticError) else 1)


if __name__ == "__main__":
    sys.exit(main())
