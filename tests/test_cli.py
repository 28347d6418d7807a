import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ellipse_phase
from ellipse_phase import (
    Coloring,
    EllipsePhaseError,
    LogValue,
    PoleValue,
    RenderSpec,
    render_pixels,
)
from ellipse_phase.jsonio import dumps, spec_from_obj

LATTICE = '{"p1": [1, 0], "p2": [0, 1]}'
SKEW = '{"p1": [1.1, 0], "p2": [0.3, 1.1]}'
DIVISOR = '{"zeros": [[0.3, 0.4, 1]], "poles": [[0.6, 0.1, 1]]}'


# The directory that holds the imported package (src/ or site-packages), as an
# absolute path: a relative PYTHONPATH such as "src" would not resolve in a
# child started with another working directory.
PACKAGE_ROOT = str(Path(ellipse_phase.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None, env=None, timeout=None):
    """Run `python -m ellipse_phase.cli` on the package this process imported.

    `env` holds extra environment variables for the child; `timeout` is in seconds.
    """
    child_env = dict(os.environ, **(env or {}))
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "ellipse_phase.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def spec_m12():
    """`synth` output for LATTICE and DIVISOR with m = (1, 2)."""
    return run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR, "--m1=1", "--m2=2").stdout


class TestJsonFormat:
    def test_floats_roundtrip_exactly(self):
        values = [0.1, 1 / 3, math.pi, 1e-300, -7.25, 123456.789012345678]
        text = dumps({"v": values})
        assert json.loads(text)["v"] == values

    def test_deterministic(self):
        obj = {"a": [1.5, -0.25], "b": {"c": True, "d": None}}
        assert dumps(obj) == dumps(obj)


class TestSigmaCommand:
    def test_output_format(self):
        r = run_cli("sigma", "--lattice", LATTICE, "--z", "0.43,0.17")
        assert r.returncode == 0
        fields = dict(kv.split("=") for kv in r.stdout.split())
        assert float(fields["log_mag"]) == pytest.approx(-0.772583083666608, rel=1e-13)
        assert float(fields["phase"]) == pytest.approx(0.340442446685249, rel=1e-12)

    def test_backends_agree(self):
        fast = run_cli("sigma", "--lattice", LATTICE, "--z", "0.43,0.17")
        direct = run_cli(
            "sigma", "--lattice", LATTICE, "--z", "0.43,0.17", "--backend", "direct"
        )
        fm = dict(kv.split("=") for kv in fast.stdout.split())
        dm = dict(kv.split("=") for kv in direct.stdout.split())
        assert float(fm["log_mag"]) == pytest.approx(float(dm["log_mag"]), abs=1e-3)

    def test_bad_lattice_is_validation_error(self):
        r = run_cli("sigma", "--lattice", '{"p1": [1, 0], "p2": [2, 0]}', "--z", "0.4,0")
        assert r.returncode == 1
        assert "DegenerateLattice" in r.stderr

    def test_nan_period_is_validation_error(self):
        r = run_cli("sigma", "--lattice", '{"p1": [NaN, 0], "p2": [0, 1]}', "--z", "0.4,0")
        assert r.returncode == 1
        assert "DegenerateLattice" in r.stderr

    @pytest.mark.parametrize("backend", ["fast", "direct"])
    @pytest.mark.parametrize("z", ["nan,0", "inf,0"])
    def test_non_finite_point_is_validation_error(self, backend, z):
        r = run_cli("sigma", "--lattice", LATTICE, f"--z={z}", "--backend", backend)
        assert r.returncode == 1
        assert r.stdout == ""
        assert "not finite" in r.stderr

    @pytest.mark.parametrize("backend", ["fast", "direct"])
    def test_point_beyond_certified_range_exits_2(self, backend):
        # the direct product has no truncation bound once c*N < 2|z|, and the
        # fast backend misses its roundoff target there
        r = run_cli("sigma", "--lattice", LATTICE, "--z=1e20,0.5", "--backend", backend)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("AccuracyNotMet:"), r.stderr

    @pytest.mark.parametrize("z", ["1e15,0", "1e16,0", "1e17,0", "1e20,0"])
    def test_far_point_is_not_an_exact_zero(self, monkeypatch, tmp_path, capsys, z):
        # no lattice point, but z - lam had lost every bit: log_mag=-inf phase=0, exit 0
        monkeypatch.chdir(tmp_path)
        code, out, err = _main(capsys, "sigma", "--lattice", SKEW, f"--z={z}")
        assert (code, out) == (2, "")
        assert err.startswith("AccuracyNotMet:"), err

    @pytest.mark.parametrize("im", [240, 300, 413])
    @pytest.mark.parametrize("command", ["sigma", "synth"])
    def test_thin_lattice_exits_2(self, command, im):
        # the fast backend's nome underflows to 0 there; this was a ZeroDivisionError
        lattice = f'{{"p1": [1, 0], "p2": [0.2, {im}]}}'
        extra = ["--z=0.3,0.2"] if command == "sigma" else ["--divisor", DIVISOR]
        r = run_cli(command, "--lattice", lattice, *extra)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("AccuracyNotMet:"), r.stderr

    def test_negative_value_attached_with_equals(self):
        # a value starting with "-" must be attached to its flag with "="
        neg = run_cli("sigma", "--lattice", LATTICE, "--z=-0.3,0.2")
        pos = run_cli("sigma", "--lattice", LATTICE, "--z", "0.3,-0.2")
        assert neg.returncode == 0, neg.stderr
        nm = dict(kv.split("=") for kv in neg.stdout.split())
        pm = dict(kv.split("=") for kv in pos.stdout.split())
        # sigma is odd: same modulus, phase shifted by pi
        assert float(nm["log_mag"]) == pytest.approx(float(pm["log_mag"]), abs=1e-13)
        turn = abs(float(nm["phase"]) - float(pm["phase"]))
        assert turn == pytest.approx(math.pi, abs=1e-13)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("sigma", "--z", "-0.3,0.2"), ("vj", "--xi0", "-0.3,0.2"), ("sigma", "--z", "-.3")],
    )
    def test_negative_value_spaced_from_flag(self, command, flag, value):
        args = [command, "--lattice", LATTICE] + (["--j", "1"] if command == "vj" else [])
        spaced = run_cli(*args, flag, value)
        attached = run_cli(*args, f"{flag}={value}")
        assert spaced.returncode == 0, spaced.stderr
        assert (spaced.stdout, spaced.stderr) == (attached.stdout, attached.stderr)

    def test_flag_like_value_still_a_usage_error(self):
        r = run_cli("sigma", "--lattice", LATTICE, "--z", "-x")
        assert r.returncode == 1
        assert "expected one argument" in r.stderr


class TestEtaAndVj:
    def test_eta_square_lattice(self):
        r = run_cli("eta", "--lattice", LATTICE, "--j", "1")
        assert r.returncode == 0
        re, im = json.loads(r.stdout)["eta"]
        assert re == pytest.approx(math.pi, abs=1e-12)
        assert abs(im) < 1e-13

    def test_vj_methods_agree(self):
        out_eta = run_cli("vj", "--lattice", LATTICE, "--xi0", "0.3,0.2", "--j", "1")
        out_dir = run_cli(
            "vj", "--lattice", LATTICE, "--xi0", "0.3,0.2", "--j", "1",
            "--method", "direct", "--shells", "100",
        )
        ve = json.loads(out_eta.stdout)
        vd = json.loads(out_dir.stdout)
        assert ve["method"] == "eta" and vd["method"] == "direct"
        assert vd["shells_used"] == 100
        diff = abs(complex(*ve["v"]) - complex(*vd["v"]))
        assert diff <= vd["error_bound"]

    @pytest.mark.parametrize(
        "args",
        [
            ("sigma", "--z=0.3,0.2", "--backend", "direct"),
            ("eta", "--j", "1", "--backend", "direct"),
            ("vj", "--xi0=0.3,0.2", "--j", "1", "--method", "direct"),
        ],
    )
    def test_shells_above_cap_is_validation_error(self, args):
        r = run_cli(*args, "--lattice", LATTICE, "--shells", "1001")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("ValueError:") and "truncation_shells" in r.stderr

    @pytest.mark.parametrize("shells", ["5000", "-3"])
    @pytest.mark.parametrize("method", ["eta", "direct"])
    def test_vj_shells_out_of_range_is_validation_error(self, method, shells):
        r = run_cli(
            "vj", "--lattice", LATTICE, "--xi0=0.3,0.2", "--j", "1", "--method", method,
            f"--shells={shells}",
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("ValueError:") and "truncation_shells" in r.stderr

    @pytest.mark.parametrize("method", ["eta", "direct"])
    def test_vj_overflowing_v_is_accuracy_error(self, method):
        # xi0 is finite, but -xi0 * eta_1 overflows; the direct bound (6.9e303) alone does not
        r = run_cli(
            "vj", "--lattice", '{"p1": [1, 0], "p2": [0.3, 1.2]}', "--xi0=1e308,0", "--j=1",
            "--method", method,
        )
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("AccuracyNotMet:") and "double range" in r.stderr

    @pytest.mark.parametrize("method", ["eta", "direct"])
    def test_vj_non_finite_xi0_is_validation_error(self, method):
        r = run_cli("vj", "--lattice", LATTICE, "--xi0=nan,0", "--j", "1", "--method", method)
        assert r.returncode == 1
        assert r.stdout == ""
        assert "not finite" in r.stderr


class TestSynthVerifyRoundtrip:
    def test_pipeline(self, tmp_path):
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        assert synth.returncode == 0
        spec_obj = json.loads(synth.stdout)
        assert set(spec_obj) == {"lattice", "xi0", "a", "alpha", "m", "g", "divisor"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(synth.stdout)

        verify = run_cli("verify", "--spec", str(spec_path))
        assert verify.returncode == 0
        report = json.loads(verify.stdout)
        assert report["reliable"] is True
        assert report["zero_count"] == report["pole_count"] == 1
        assert report["phase_residual_p1"] <= 1e-8

    def test_zero_at_origin_verifies(self):
        # the contour places its offset clear of the zero at the origin
        divisor = '{"zeros": [[0, 0, 1]], "poles": [[0.3, 0.4, 1]]}'
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", divisor)
        r = run_cli("verify", "--spec", synth.stdout)
        assert r.returncode == 0, r.stdout + r.stderr
        assert json.loads(r.stdout)["contour_offset"] != [0, 0]

    def test_synth_deterministic(self):
        a = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        b = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        assert a.stdout == b.stdout

    def test_unbalanced_divisor_exit_code(self):
        r = run_cli(
            "synth", "--lattice", LATTICE, "--divisor", '{"zeros": [[0.3, 0.4, 1]], "poles": []}'
        )
        assert r.returncode == 1
        assert "UnbalancedDivisor" in r.stderr

    def test_non_finite_divisor_point_exit_code(self):
        r = run_cli(
            "synth", "--lattice", LATTICE,
            "--divisor", '{"zeros": [[NaN, 0.4, 1]], "poles": [[0.6, 0.1, 1]]}',
        )
        assert r.returncode == 1
        assert "not finite" in r.stderr

    def test_non_integer_multiplicity_exit_code(self):
        r = run_cli(
            "synth", "--lattice", LATTICE,
            "--divisor", '{"zeros": [[0.3, 0.4, 1.5]], "poles": [[0.6, 0.1, 1]]}',
        )
        assert r.returncode == 1
        assert "multiplicities must be positive integers" in r.stderr

    def test_multiplicity_above_max_degree_exit_code(self):
        r = run_cli(
            "synth", "--lattice", LATTICE,
            "--divisor", '{"zeros": [[0.3, 0.4, 1e12]], "poles": [[0.6, 0.1, 1e12]]}',
        )
        assert r.returncode == 1
        assert r.stderr.startswith("ValueError:") and "MAX_DEGREE" in r.stderr

    @pytest.mark.parametrize(
        "args, names",
        [
            (("sigma", "--lattice", '{"p1": [1], "p2": [0, 1]}', "--z=0.3,0.2"), "complex number"),
            (("synth", "--lattice", LATTICE, "--divisor", '{"zeros": [[0.3]], '
              '"poles": [[0.6, 0.1]]}'), "divisor entries"),
            (("synth", "--lattice", LATTICE, "--divisor", "[]"), "a divisor"),
            (("synth", "--lattice", LATTICE, "--divisor", '{"zeros": 5}'), "'zeros'"),
            (("synth", "--lattice", LATTICE, "--divisor", '{"zeros": [[0.3, 0.4]], "poles": "ab"}'),
             "'poles'"),
            (("sigma", "--lattice", "[1, 2]", "--z=0.3,0.2"), "a lattice"),
            (("synth", "--lattice", '[{"p1": [1, 0], "p2": [0, 1]}]', "--divisor", DIVISOR),
             "a lattice"),
            (("verify", "--spec", "[1, 2]"), "a spec"),
            (("plot", "--spec", '{"lattice": 5}', "--out", "f.ppm"), "a lattice"),
            (("sigma", "--lattice", '{"p2": [0, 1]}', "--z=0.1,0.1"), "lattice field 'p1' is missing"),
            (("verify", "--spec", f'{{"lattice": {LATTICE}, "divisor": {DIVISOR}}}'),
             "spec field 'm' is missing"),
            (("verify", "--spec", f'{{"lattice": {LATTICE}, "divisor": {DIVISOR}, "m": [0, 0]}}'),
             "spec field 'xi0' is missing"),
        ],
        ids=[
            "short-period", "short-divisor-entry", "divisor-not-object", "zeros-not-list",
            "poles-string", "lattice-list", "lattice-in-list", "spec-list", "spec-lattice-number",
            "lattice-no-p1", "spec-no-m", "spec-no-xi0",
        ],
    )
    def test_malformed_json_shape_exit_code(self, args, names):
        r = run_cli(*args)
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert r.stderr.startswith("ValueError: ") and names in r.stderr, r.stderr

    def test_misspelled_divisor_key_exits_1(self):
        divisor = '{"zero": [[0.1, 0.2]], "pole": [[0.3, 0.1]]}'
        r = run_cli("synth", "--lattice", LATTICE, "--divisor", divisor)
        assert (r.returncode, r.stdout) == (1, ""), r.stderr
        assert r.stderr.startswith("ValueError: divisor key 'zero'"), r.stderr

    @pytest.mark.parametrize("grid", ["1001x1000", "100000x100000"])
    def test_grid_above_cap_exits_1(self, spec_m12, grid):
        r = run_cli("verify", "--spec", spec_m12, "--grid", grid, timeout=60)
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert r.stderr.startswith("ValueError:") and "MAX_GRID" in r.stderr

    def test_unknown_subcommand(self):
        r = run_cli("nonsense")
        assert r.returncode == 1
        assert "usage" in r.stderr.lower()

    def test_tolerance_failure_exit_code(self, tmp_path):
        # an untouched spec cannot meet an impossible tolerance (exit 2)
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(synth.stdout)
        r = run_cli("verify", "--spec", str(spec_path), "--tol=1e-300")
        assert r.returncode == 2
        assert json.loads(r.stdout)["reliable"] is True

    @pytest.mark.parametrize(
        "field, change, name",
        [
            ("phase_residual_p1", lambda r: 1e-3, "phase_residual_p1"),
            ("phase_residual_p2", lambda r: 1e-3, "phase_residual_p2"),
            ("multiplier1", lambda r: r.multiplier1 * 1.01, "alpha1_miss"),
            ("multiplier2", lambda r: r.multiplier2 * 1.01, "alpha2_miss"),
            ("reliable", lambda r: False, "winding_distance"),
            ("pole_count", lambda r: r.pole_count + 1, "zero_pole_gap"),
            ("xi0_recovered", lambda r: r.xi0_recovered + 0.01, "xi0_miss"),
        ],
    )
    def test_each_failed_check_is_named_on_stderr(self, monkeypatch, capsys, field, change, name):
        # exit 2 wrote nothing on stderr; stdout is the report, as before
        from ellipse_phase import verify

        real = verify.verify_spec

        def doctored(*args, **kwargs):
            report = real(*args, **kwargs)
            fields = {k: getattr(report, k) for k in report.__slots__}
            fields[field] = change(report)
            return verify.VerificationReport(**fields)

        spec = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)[1]
        monkeypatch.setattr(verify, "verify_spec", doctored)
        code, out, err = _main(capsys, "verify", "--spec", spec, "--grid", "4x4")
        assert code == 2 and json.loads(out)["zero_count"] == 1
        assert err.startswith(f"verify: failed {name}: ") and err.count("\n") == 1, err

    def test_impossible_tol_names_every_failed_check(self, capsys):
        # exit 2 with 0 bytes on stderr before
        spec = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)[1]
        code, _, err = _main(capsys, "verify", "--spec", spec, "--tol=1e-300")
        assert code == 2
        names = [line.split(":")[1].split()[-1] for line in err.splitlines()]
        assert names == ["phase_residual_p1", "phase_residual_p2", "alpha1_miss", "alpha2_miss", "xi0_miss"]
        assert err.splitlines()[0].endswith(" (limit 1e-300)"), err

    @pytest.mark.parametrize("m2", ["200", "-200"])
    def test_multiplier_outside_double_range_exits_2(self, m2):
        lattice = '{"p1": [1, 0], "p2": [0, 1.1]}'
        synth = run_cli("synth", "--lattice", lattice, "--divisor", DIVISOR, f"--m2={m2}")
        assert synth.returncode == 0, synth.stderr
        r = run_cli("verify", "--spec", synth.stdout, "--grid", "3x3")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("AccuracyNotMet:") and "alpha1" in r.stderr, r.stderr

    def test_multiplier_outside_double_range_in_process(self, capsys):
        # the refusal above, in this process, with its whole message
        code, spec, err = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR, "--m2", "120")
        assert code == 0, err
        code, out, err = _main(capsys, "verify", "--spec", spec)
        assert (code, out) == (2, "")
        assert err == "AccuracyNotMet: exp(alpha1) leaves the normal double range: alpha1 = 755.867\n"

    def test_exponent_outside_double_range_exits_2(self, capsys):
        # m1 is a finite float, but a and alpha leave the double range: no spec holds inf or nan
        argv = ["synth", "--lattice", SKEW, "--divisor", DIVISOR, "--m1", str(10**308)]
        code, out, err = _main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("AccuracyNotMet: a = "), err

    def test_valid_divisor_at_scale_1e8_synthesizes(self, capsys):
        # g meets Abel's condition by construction; at this scale the rounding
        # residue of its sums (~3e-8) exceeds ABEL_TOL and is no violation
        lattice = '{"p1": [1e8, 0], "p2": [3e7, 1.1e8]}'
        divisor = (
            '{"zeros": [[19687072.698, 72725633.14], [13834774.204, 64084082.124], '
            '[12417782.789, 42234050.49]], "poles": [[21860835.955, 27439907.765], '
            '[96151047.509, 79734327.302], [30806224.687, 87716781.049]]}'
        )
        code, spec, err = _main(capsys, "synth", "--lattice", lattice, "--divisor", divisor)
        assert code == 0, err
        code, out, err = _main(capsys, "verify", "--spec", spec)
        assert code == 0, err
        assert json.loads(out)["reliable"] is True

    @pytest.mark.parametrize(
        "flags, config",
        [(("--tol=nan",), None), (("--tol=-1",), None), (("--tol=0",), None),
         (("--tol=inf",), None), ((), '{"tol": "nan"}')],
        ids=["nan", "negative", "zero", "inf", "config-nan"],
    )
    def test_tol_outside_range_exits_1(self, tmp_path, spec_m12, flags, config):
        # nan, -1 and 0 failed every check (exit 2) and inf passed them all
        (tmp_path / "spec.json").write_text(spec_m12)
        if config:
            (tmp_path / "ellipse-phase.json").write_text(config)
        r = run_cli("verify", "--spec", "spec.json", *flags, cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert r.stderr.startswith("ValueError: --tol "), r.stderr

    def test_help_exits_zero(self):
        r = run_cli("--help")
        assert r.returncode == 0
        assert "sigma" in r.stdout


class TestPlot:
    def test_plot_deterministic(self, tmp_path):
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(synth.stdout)
        out1, out2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        for out in (out1, out2):
            r = run_cli(
                "plot", "--spec", str(spec_path), "--out", str(out),
                "--resolution", "24x24",
            )
            assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_bytes()[:15]
        assert header.startswith(b"P6\n24 24\n255\n")

    def test_unit_pixel_of_constant_one(self):
        one = lambda z: LogValue(0.0, 0.0)
        spec = RenderSpec(center=0j, width=1.0, height=1.0, width_px=1, height_px=1)
        # phase 0 maps to hue 0.5: full-saturation cyan
        assert render_pixels(one, spec) == bytes((0, 255, 255))

    def test_zero_and_pole_pixels(self):
        marks = lambda z: LogValue.zero() if z.real < 0 else PoleValue(1)
        spec = RenderSpec(center=0j, width=2.0, height=1.0, width_px=2, height_px=1)
        assert render_pixels(marks, spec) == bytes((0, 0, 0, 255, 255, 255))

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            RenderSpec(center=0j, width=1.0, height=1.0, width_px=0, height_px=1)

    def test_pixel_count_capped(self):
        RenderSpec(center=0j, width=1.0, height=1.0, width_px=4096, height_px=4096)
        with pytest.raises(ValueError, match="MAX_PIXELS"):
            RenderSpec(center=0j, width=1.0, height=1.0, width_px=4097, height_px=4096)

    @pytest.mark.parametrize("resolution", ["4097x4096", "100000x100000", "1x16777217"])
    def test_resolution_above_cap_exits_1(self, tmp_path, spec_m12, resolution):
        # the uncapped loop ran 10^10 pixels into a 30 GB buffer for 100000x100000
        out = tmp_path / "p.ppm"
        r = run_cli(
            "plot", "--spec", spec_m12, "--out", str(out), "--resolution", resolution,
            timeout=60,
        )
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("ValueError:") and "MAX_PIXELS" in r.stderr
        assert not out.exists()

    def test_modulus_contours_dim_value_channel(self):
        half = lambda z: LogValue(0.5, 0.0)
        spec = RenderSpec(
            center=0j, width=1.0, height=1.0, width_px=1, height_px=1,
            coloring=Coloring.PHASE_HUE_MODULUS,
        )
        # frac(0.5) = 0.5 dims the value channel to 0.85
        assert render_pixels(half, spec) == bytes((0, 217, 217))

    @pytest.mark.parametrize("coloring", list(Coloring))
    def test_pixel_colours_match_colorsys(self, coloring):
        # the inlined HSV-to-RGB must give colorsys.hsv_to_rgb's bytes, also on
        # and next to the six sector boundaries
        import colorsys
        import random

        from ellipse_phase.render import _pixel_rgb

        rng = random.Random(11)
        phases = [rng.uniform(-math.pi, math.pi) for _ in range(2000)]
        for k in range(-2, 4):
            edge = k * math.pi / 3
            phases += [edge, math.nextafter(edge, -4.0), math.nextafter(edge, 4.0)]
        for phase in (p for p in phases if -math.pi < p <= math.pi):
            value = LogValue(rng.uniform(-30.0, 30.0), phase)
            v = 1.0
            if coloring is Coloring.PHASE_HUE_MODULUS:
                v = 0.7 + 0.3 * (value.log_mag - math.floor(value.log_mag))
            rgb = colorsys.hsv_to_rgb((phase + math.pi) / (2.0 * math.pi) % 1.0, 1.0, v)
            assert _pixel_rgb(value, coloring) == tuple(int(255 * c + 0.5) for c in rgb)

    def test_negative_center_spaced_from_flag(self, tmp_path, spec_m12):
        outputs = []
        for center in (["--center", "-0.5,0.25"], ["--center=-0.5,0.25"]):
            out = tmp_path / f"{len(outputs)}.ppm"
            args = ["--spec", spec_m12, "--out", str(out), "--resolution", "8x8", *center]
            r = run_cli("plot", *args)
            assert r.returncode == 0, r.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flag, field",
        [("--center=nan,0", "center"), ("--width=inf", "width"), ("--height=nan", "height")],
    )
    def test_non_finite_region_names_its_field(self, monkeypatch, tmp_path, capsys, flag, field):
        # these rendered up to the first pixel, then failed on a non-finite point
        monkeypatch.chdir(tmp_path)
        spec = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)[1]
        (tmp_path / "spec.json").write_text(spec)
        code, out, err = _main(capsys, "plot", "--spec", "spec.json", "--out", "p.ppm", flag)
        assert (code, out) == (1, "")
        assert err.startswith(f"ValueError: {field} must be"), err
        assert not (tmp_path / "p.ppm").exists()

    def test_far_center_exits_2(self, monkeypatch, tmp_path, capsys):
        # this far out every factor's reduced point has lost its bits, so each
        # reads as a lattice hit and fails the roundoff certificate of a hit
        monkeypatch.chdir(tmp_path)
        spec = _main(capsys, "synth", "--lattice", SKEW, "--divisor", DIVISOR)[1]
        (tmp_path / "spec.json").write_text(spec)
        argv = ["--spec", "spec.json", "--out", "p.ppm", "--center", "1e300,1e300", "--resolution", "4x4"]
        code, out, err = _main(capsys, "plot", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("AccuracyNotMet:"), err
        assert not (tmp_path / "p.ppm").exists()

    def test_far_center_refusal_names_z_and_w(self, monkeypatch, tmp_path, capsys):
        # the kernel said only "roundoff estimate X exceeds target Y"
        monkeypatch.chdir(tmp_path)
        spec = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)[1]
        argv = ["--spec", spec, "--out", "p.ppm", "--center", "40,40", "--resolution", "4x4"]
        code, out, err = _main(capsys, "plot", *argv)
        assert (code, out) == (2, "")
        pattern = (
            r"AccuracyNotMet: roundoff estimate \S+ exceeds target 1\.000e-12"
            r" at z = \(\S+\+\S+j\) in the factor sigma\(z - w\), w = \(0\.3\+0\.4j\)\n"
        )
        assert re.fullmatch(pattern, err), err

    @pytest.mark.parametrize(
        "command, flag", [("plot", "--resolution"), ("verify", "--grid")], ids=["plot", "verify"]
    )
    @pytest.mark.parametrize("value", ["4x", "x4", "abc", "4x4x4", "4X4", " 4", "+4", "4.0"])
    def test_malformed_grid_names_flag(self, monkeypatch, tmp_path, capsys, command, flag, value):
        # "4x" was read as 4x4, "abc" failed with int()'s message, naming neither
        monkeypatch.chdir(tmp_path)
        spec = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)[1]
        (tmp_path / "spec.json").write_text(spec)
        argv = ["--out", "p.ppm"] if command == "plot" else []
        code, out, err = _main(capsys, command, "--spec", "spec.json", *argv, f"{flag}={value}")
        assert (code, out) == (1, "")
        assert err == f"ValueError: {flag} must be N or WxH, got {value!r}\n"

    @pytest.mark.parametrize("value, size", [("3", (3, 3)), ("2x3", (2, 3))])
    def test_grid_forms(self, monkeypatch, tmp_path, capsys, value, size):
        monkeypatch.chdir(tmp_path)
        spec = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)[1]
        (tmp_path / "spec.json").write_text(spec)
        code, _, err = _main(capsys, "plot", "--spec", "spec.json", "--out", "p.ppm", "--resolution", value)
        assert code == 0, err
        assert (tmp_path / "p.ppm").read_bytes().startswith(b"P6\n%d %d\n" % size)
        code, out, err = _main(capsys, "verify", "--spec", "spec.json", "--grid", value)
        assert code == 0, err
        assert json.loads(out)["samples_used"] == size[0] * size[1]

    def test_empty_grid_exits_1(self, capsys):
        spec = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)[1]
        code, out, err = _main(capsys, "verify", "--spec", spec, "--grid", "0x5")
        assert (code, out) == (1, "")
        assert err == "ValueError: grid must have at least one point per direction\n"

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        from ellipse_phase import IoFailure, render_phase_portrait

        spec = RenderSpec(
            center=0j, width=1.0, height=1.0, width_px=1, height_px=1,
            output_path=str(tmp_path / "missing_dir" / "x.ppm"),
        )
        with pytest.raises(IoFailure):
            render_phase_portrait(lambda z: LogValue(0.0, 0.0), spec)


def _scaled_square(scale: float) -> tuple[str, str]:
    """The unit square scaled by `scale`, with a 2-zero/2-pole divisor scaled alike."""
    lattice = json.dumps({"p1": [scale, 0], "p2": [0, scale]})
    zeros = [[0.2 * scale, 0.3 * scale, 1], [0.6 * scale, 0.5 * scale, 1]]
    poles = [[0.4 * scale, 0.1 * scale, 1], [0.4 * scale, 0.7 * scale, 1]]
    return lattice, json.dumps({"zeros": zeros, "poles": poles})


class TestLatticeScaleFloor:
    TINY = json.dumps({"p1": [1e-12, 0], "p2": [0.3e-12, 1.1e-12]})

    @pytest.mark.parametrize(
        "args",
        [
            ("sigma", "--z=0.3e-12,0.2e-12"),
            ("sigma", "--z=0.3e-12,0.2e-12", "--backend", "direct"),
            ("vj", "--xi0=0.3e-12,0.2e-12", "--j", "1", "--method", "direct"),
        ],
    )
    def test_tiny_lattice_exits_1(self, args):
        # SNAP_TOL is absolute: here sigma would read -inf and the direct vj bound be false
        r = run_cli(args[0], "--lattice", self.TINY, *args[1:])
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.startswith("DegenerateLattice:"), r.stderr

    def test_tiny_divisor_is_not_merged_away(self, spec_m12):
        lattice, divisor = _scaled_square(1e-12)
        r = run_cli("synth", "--lattice", lattice, "--divisor", divisor)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.startswith("DegenerateLattice:"), r.stderr
        spec = json.loads(spec_m12)
        spec["lattice"] = json.loads(lattice)
        r = run_cli("verify", "--spec", json.dumps(spec))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.startswith("DegenerateLattice:"), r.stderr

    def test_lattice_at_floor_synthesizes_and_verifies(self):
        lattice, divisor = _scaled_square(1e-6)
        synth = run_cli("synth", "--lattice", lattice, "--divisor", divisor)
        assert synth.returncode == 0, synth.stderr
        verify = run_cli("verify", "--spec", synth.stdout)
        assert verify.returncode == 0, verify.stdout + verify.stderr
        assert json.loads(verify.stdout)["zero_count"] == 2


class TestLatticeScaleCeiling:
    @pytest.mark.parametrize(
        "args",
        [
            ("vj", "--lattice", _scaled_square(1e78)[0], "--xi0=0.3,0.1", "--j", "1",
             "--method", "direct", "--shells", "20"),
            ("eta", "--lattice", _scaled_square(1e155)[0], "--j", "1"),
            ("synth", "--lattice", _scaled_square(1e155)[0], "--divisor", DIVISOR),
        ],
        ids=["vj-direct", "eta", "synth"],
    )
    def test_huge_lattice_exits_1(self, args):
        # past the ceiling c**4 of the tail bound and abs(a)**2 of reduce_basis overflow
        r = run_cli(*args)
        assert (r.returncode, r.stdout) == (1, ""), r.stderr
        assert r.stderr.startswith("DegenerateLattice:"), r.stderr

    def test_direct_vj_bound_finite_at_ceiling(self):
        r = run_cli("vj", "--lattice", _scaled_square(1e75)[0], "--xi0=0.3,0.1", "--j", "1",
                    "--method", "direct", "--shells", "20")
        assert r.returncode == 0, r.stderr
        assert math.isfinite(json.loads(r.stdout)["error_bound"])


def _readme_exit_codes() -> dict[str, int]:
    """The README's error-class exit-code table, as {class name: code}."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| (\d) \|", readme, re.M)
    return {name: int(code) for name, code in rows}


class TestExitCodes:
    @pytest.mark.parametrize("error", [EllipsePhaseError, *EllipsePhaseError.__subclasses__()])
    def test_error_class_declares_documented_code(self, monkeypatch, tmp_path, capsys, error):
        assert error.exit_code == _readme_exit_codes()[error.__name__]
        _assert_command_raising(error("boom"), error.exit_code, monkeypatch, tmp_path, capsys)

    @pytest.mark.parametrize(
        "exc, code",
        [(ZeroDivisionError("boom"), 2), (PermissionError("boom"), 3), (KeyError("boom"), 1)],
    )
    def test_builtin_errors_map_to_codes(self, monkeypatch, tmp_path, capsys, exc, code):
        _assert_command_raising(exc, code, monkeypatch, tmp_path, capsys)


def _assert_command_raising(exc, code, monkeypatch, tmp_path, capsys):
    """`cli.main` returns `code` and names the error when the command raises `exc`."""
    from ellipse_phase import cli

    def command(args):
        raise exc

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli._COMMANDS, "sigma", command)
    assert cli.main(["sigma", "--lattice", LATTICE, "--z", "0.1,0.2"]) == code
    name = "IoFailure" if isinstance(exc, OSError) else type(exc).__name__
    assert capsys.readouterr().err.startswith(f"{name}: ")


class TestConfigAndSeed:
    def test_seed_is_ignored(self, tmp_path):
        # the zero sits on a point of the cell-centred 10x10 grid, so the grid
        # must move off it, and the same spec must give the same report
        divisor = '{"zeros": [[0.05, 0.05, 1]], "poles": [[0.55, 0.25, 1]]}'
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", divisor)
        (tmp_path / "spec.json").write_text(synth.stdout)
        runs = [run_cli("verify", "--spec", "spec.json", f"--seed={seed}", cwd=tmp_path)
                for seed in (1, 2)]
        (tmp_path / "ellipse-phase.json").write_text('{"seed": 3}')
        runs.append(run_cli("verify", "--spec", "spec.json", cwd=tmp_path))
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout

    def test_config_file_defaults(self, tmp_path):
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        (tmp_path / "spec.json").write_text(synth.stdout)
        (tmp_path / "ellipse-phase.json").write_text('{"grid": "6x6", "seed": 11}')
        r = run_cli("verify", "--spec", "spec.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["samples_used"] == 36

    @pytest.mark.parametrize("text", ['{"grid": "6x6",', "[1, 2]"])
    def test_malformed_config_is_validation_error(self, tmp_path, text):
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        (tmp_path / "spec.json").write_text(synth.stdout)
        (tmp_path / "ellipse-phase.json").write_text(text)
        r = run_cli("verify", "--spec", "spec.json", cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert "ellipse-phase.json" in r.stderr

    @pytest.mark.parametrize(
        "config, command",
        [
            ('{"grid": 5}', ("verify", "--spec", "spec.json")),
            ('{"resolution": 8}', ("plot", "--spec", "spec.json", "--out", "p.ppm")),
            ('{"center": 5}', ("plot", "--spec", "spec.json", "--out", "p.ppm")),
            ('{"seed": 7.5}', ("verify", "--spec", "spec.json")),
            ('{"shells": 2.5}', ("sigma", "--lattice", LATTICE, "--z=0.3,0.2")),
            ('{"gird": "3x3"}', ("verify", "--spec", "spec.json")),
        ],
    )
    def test_config_value_checked_like_its_flag(self, tmp_path, config, command):
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        (tmp_path / "spec.json").write_text(synth.stdout)
        (tmp_path / "ellipse-phase.json").write_text(config)
        r = run_cli(*command, cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert r.stderr.startswith("ValueError: ellipse-phase.json: "), r.stderr
        assert next(iter(json.loads(config))) in r.stderr
        assert not (tmp_path / "p.ppm").exists()

    def test_unreadable_config_is_io_error(self, tmp_path):
        (tmp_path / "ellipse-phase.json").mkdir()
        r = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR, cwd=tmp_path)
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert "ellipse-phase.json" in r.stderr


def _main(capsys, *argv):
    """`cli.main(argv)` in-process, as (exit code, stdout, stderr)."""
    from ellipse_phase import cli

    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    def test_parser_built_once_without_config(self, monkeypatch, tmp_path, capsys):
        from ellipse_phase import cli

        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        monkeypatch.chdir(tmp_path)
        try:
            for _ in range(5):
                assert _main(capsys, "eta", "--lattice", LATTICE, "--j", "1")[0] == 0
                assert _main(capsys, "sigma", "--lattice", LATTICE, "--z=0.3,0.2")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_config_defaults_do_not_leak(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        spec = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)[1]
        (tmp_path / "spec.json").write_text(spec)
        config = tmp_path / "ellipse-phase.json"
        samples = []
        for text in (None, '{"grid": "2x3", "seed": 11}', None):
            if text is None:
                config.unlink(missing_ok=True)
            else:
                config.write_text(text)
            code, out, err = _main(capsys, "verify", "--spec", "spec.json")
            assert code == 0, err
            samples.append(json.loads(out)["samples_used"])
        assert samples == [100, 6, 100]

    def test_malformed_config_after_cached_parser(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert _main(capsys, "eta", "--lattice", LATTICE, "--j", "1")[0] == 0
        (tmp_path / "ellipse-phase.json").write_text('{"grid": "6x6",')
        code, out, err = _main(capsys, "eta", "--lattice", LATTICE, "--j", "1")
        assert (code, out) == (1, "")
        assert "ellipse-phase.json" in err

    def test_help_exits_zero_twice(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            code, out, _ = _main(capsys, "--help")
            assert code == 0
            assert "sigma" in out


class TestOneEvaluatorPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [("verify", "--grid", "3x3"), ("plot", "--out", "p.ppm", "--resolution", "8x8")],
        ids=["verify", "plot"],
    )
    def test_reloaded_spec_builds_one(self, monkeypatch, tmp_path, capsys, evaluator_inits, argv):
        # the evaluator the reload's synthesize builds is the one that evaluates f
        monkeypatch.chdir(tmp_path)
        code, spec, err = _main(capsys, "synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        assert code == 0, err
        (tmp_path / "spec.json").write_text(spec)
        evaluator_inits.clear()
        code, _, err = _main(capsys, argv[0], "--spec", "spec.json", *argv[1:])
        assert code == 0, err
        assert len(evaluator_inits) == 1


LOADED_MODULES_CHILD = """
import contextlib, io, json, sys
from ellipse_phase import cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0, sys.argv[1:]
package = {m.partition(".")[2] for m in sys.modules if m.startswith("ellipse_phase.")}
print(json.dumps([sorted(package), *(m in sys.modules for m in ("numpy", "dataclasses", "inspect", "typing"))]))
"""

# the parser's --coloring choices come from render, so every command loads it
CORE = {"cli", "errors", "jsonio", "lattice", "render", "weierstrass"}
SPEC_COMMANDS = CORE | {"synthesis"}

#: argv of a CLI call -> (the package modules it loads, whether it loads numpy)
LOADED_MODULES = {
    ("synth", "--lattice", LATTICE, "--divisor", DIVISOR): (SPEC_COMMANDS, False),
    ("plot", "--spec", "spec.json", "--out", "p.ppm", "--resolution", "8x8"): (SPEC_COMMANDS, False),
    ("sigma", "--lattice", LATTICE, "--z=0.3,0.2"): (CORE, False),
    ("eta", "--lattice", LATTICE, "--j", "2"): (CORE, False),
    ("vj", "--lattice", LATTICE, "--xi0=0.3,0.1", "--j", "1", "--method", "eta"): (CORE, False),
    ("sigma", "--lattice", LATTICE, "--z=0.3,0.2", "--backend", "direct"): (CORE, True),
    ("eta", "--lattice", LATTICE, "--j", "2", "--backend", "direct"): (CORE, True),
    ("vj", "--lattice", LATTICE, "--xi0=0.3,0.1", "--j", "1", "--method", "direct"): (CORE, True),
    ("verify", "--spec", "spec.json", "--grid", "3x3"): (SPEC_COMMANDS | {"verify"}, False),
}


def test_commands_load_only_their_modules(tmp_path, spec_m12):
    # each call is a fresh process, so what it imports is start-up time: numpy
    # is most of it, and only the direct lattice sums need it.  No command loads
    # dataclasses, which pulls in inspect, ast and dis; inspect comes only with
    # numpy, whose numpy._core.overrides imports it.  Nor does any numpy-free
    # command load typing; a .pth file may import it at start-up, so that is
    # checked again without the site module (python -S)
    (tmp_path / "spec.json").write_text(spec_m12)
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    for argv, (modules, numpy) in LOADED_MODULES.items():
        for flags in [()] if numpy else [(), ("-S",)]:
            r = subprocess.run(
                [sys.executable, *flags, "-c", LOADED_MODULES_CHILD, *argv],
                capture_output=True, text=True, cwd=tmp_path, env=env,
            )
            assert r.returncode == 0, r.stderr
            *loaded, typing = json.loads(r.stdout)
            assert loaded == [sorted(modules), numpy, False, numpy], argv
            assert not (flags and typing), argv


class TestSpecReload:
    def test_reload_evaluates_identically(self):
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        spec = spec_from_obj(json.loads(synth.stdout))
        from ellipse_phase import SigmaEvaluator, eval_f, make_lattice

        ev = SigmaEvaluator(make_lattice(1, 1j))
        v = eval_f(spec, ev, 0.11 + 0.22j)
        assert not v.is_zero()
        reparsed = spec_from_obj(json.loads(synth.stdout))
        assert eval_f(reparsed, ev, 0.11 + 0.22j) == v

    def test_vanishing_g_rejected(self):
        # a re-derived g has scale 1, so a stored scale 0 is a mismatch
        obj = json.loads(run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR).stdout)
        obj["g"]["scale"] = [0.0, 0.0]
        with pytest.raises(ValueError, match="spec field 'g'"):
            spec_from_obj(obj)

    @pytest.mark.parametrize(
        "command, field", [("verify", "xi0"), ("verify", "a"), ("verify", "alpha"), ("plot", "alpha")]
    )
    def test_edited_derived_field_exits_1(self, tmp_path, command, field):
        obj = json.loads(run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR).stdout)
        obj[field][0] += 0.5
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(dumps(obj))
        out = tmp_path / "bad.ppm"
        args = ["--out", str(out)] if command == "plot" else []
        r = run_cli(command, "--spec", str(spec_path), *args)
        assert r.returncode == 1
        assert r.stdout == ""
        assert f"spec field '{field}'" in r.stderr
        assert not out.exists()

    def test_non_integer_m_exits_1(self, tmp_path):
        # a truncated 1.9 would reload as m1 = 1 and match the stored a
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR, "--m1", "1")
        obj = json.loads(synth.stdout)
        obj["m"] = [1.9, 0]
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(dumps(obj))
        r = run_cli("verify", "--spec", str(spec_path))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("ValueError: m1 and m2 must be integers, got 1.9 and 0.0"), r.stderr

    @pytest.mark.parametrize(
        "command, m, shown",
        [("plot", [0.5, 0], "0.5 and 0.0"), ("verify", ["inf", 0], "inf and 0.0")],
        ids=["plot-half", "verify-inf"],
    )
    def test_m_refused_by_synthesize(self, tmp_path, spec_m12, command, m, shown):
        # spec_from_obj passes m through, and synthesize makes the one integrality check
        obj = json.loads(spec_m12)
        obj["m"] = [float(v) for v in m]
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(obj))
        out = tmp_path / "bad.ppm"
        args = ["--out", str(out)] if command == "plot" else []
        r = run_cli(command, "--spec", str(spec_path), *args)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.startswith(f"ValueError: m1 and m2 must be integers, got {shown}"), r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("m", ["12", [1, 2, 99], [1]], ids=["string", "three", "one"])
    def test_malformed_m_exits_1(self, tmp_path, spec_m12, m):
        # "12" read as (1, 2) and [1, 2, 99] as its first two entries
        obj = json.loads(spec_m12)
        obj["m"] = m
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(dumps(obj))
        r = run_cli("verify", "--spec", str(spec_path))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("ValueError: spec field 'm'"), r.stderr


HUGE = "1" + "0" * 400


class TestJsonNumbers:
    """Number fields take JSON numbers only: no strings, booleans or ints beyond float."""

    @pytest.fixture(scope="class")
    def spec_m00(self):
        return run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR).stdout

    @pytest.mark.parametrize(
        "path, value",
        [
            (("m",), ["0", False]),
            (("lattice", "p1"), ["1", "0"]),
            (("lattice", "p1"), [True, False]),
            (("divisor", "zeros", 0, 2), "1"),
            (("divisor", "zeros", 0, 2), True),
        ],
        ids=["m-string-bool", "p1-strings", "p1-bools", "mult-string", "mult-bool"],
    )
    def test_edited_spec_exits_1(self, tmp_path, spec_m00, path, value):
        # each edit reads back as the unedited value when coerced by float()
        obj = json.loads(spec_m00)
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(obj))
        r = run_cli("verify", "--spec", str(spec_path))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.startswith("ValueError:"), r.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("sigma", "--lattice", '{"p1": [true, 0], "p2": [0, true]}', "--z=0.3,0.2"),
            (
                "synth",
                "--lattice",
                LATTICE,
                "--divisor",
                '{"zeros": [[true, 0.4], [0.3, 0.2]], "poles": [[0.5, 0.1], [0.8, 0.5]]}',
            ),
            ("synth", "--lattice", f'{{"p1": [{HUGE}, 0], "p2": [0, 1]}}', "--divisor", DIVISOR),
            (
                "synth",
                "--lattice",
                LATTICE,
                "--divisor",
                f'{{"zeros": [[{HUGE}, 0.4, 1]], "poles": [[0.6, 0.1, 1]]}}',
            ),
            (
                "synth",
                "--lattice",
                LATTICE,
                "--divisor",
                f'{{"zeros": [[0.3, 0.4, {HUGE}]], "poles": [[0.6, 0.1, {HUGE}]]}}',
            ),
        ],
        ids=["sigma-bool-periods", "synth-bool-point", "huge-period", "huge-point", "huge-mult"],
    )
    def test_non_number_argument_exits_1(self, args):
        r = run_cli(*args)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.startswith("ValueError:"), r.stderr


def test_fingerprint_script():
    # 30 specs include sheared presentations and zeros at the origin; every
    # verify passes, and xi0 is recovered to rounding
    script = Path(__file__).resolve().parent / "fingerprint.py"
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    r = subprocess.run(
        [sys.executable, str(script), "30"], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0, r.stderr
    names = ("eta", "synth", "verify", "values", "plot", "sigma", "vj", "divisor", "zeta")
    families = ",".join(f"{family}:[0-9a-f]{{12}}" for family in names)
    pattern = (
        rf"sha256=[0-9a-f]{{64}} specs=30 verify_exits=((\d+:\d+,?)+) "
        rf"verify_worst_miss=(\d\.\d{{3}}e[+-]\d\d) parts={families}\n"
    )
    found = re.fullmatch(pattern, r.stdout)
    assert found, r.stdout
    assert found[1] == "0:30"
    assert float(found[3]) < 1e-12
