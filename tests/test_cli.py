import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellipse_phase
from ellipse_phase import (
    Coloring,
    LogValue,
    PoleValue,
    RenderSpec,
    render_pixels,
)
from ellipse_phase.jsonio import dumps, spec_from_obj

LATTICE = '{"p1": [1, 0], "p2": [0, 1]}'
DIVISOR = '{"zeros": [[0.3, 0.4, 1]], "poles": [[0.6, 0.1, 1]]}'


# The directory that holds the imported package (src/ or site-packages), as an
# absolute path: a relative PYTHONPATH such as "src" would not resolve in a
# child started with another working directory.
PACKAGE_ROOT = str(Path(ellipse_phase.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None, env=None):
    """Run `python -m ellipse_phase.cli` on the package this process imported.

    `env` holds extra environment variables for the child.
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
    )


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

    def test_unknown_subcommand(self):
        r = run_cli("nonsense")
        assert r.returncode == 1
        assert "usage" in r.stderr.lower()

    def test_tolerance_failure_exit_code(self, tmp_path):
        # corrupting the stored multiplier must trip the verifier (exit 2)
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        obj = json.loads(synth.stdout)
        obj["alpha"][0] += 0.5
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(dumps(obj))
        r = run_cli("verify", "--spec", str(spec_path))
        assert r.returncode == 2

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
        one = lambda z: LogValue.one()
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

    def test_modulus_contours_dim_value_channel(self):
        half = lambda z: LogValue(0.5, 0.0)
        spec = RenderSpec(
            center=0j, width=1.0, height=1.0, width_px=1, height_px=1,
            coloring=Coloring.PHASE_HUE_MODULUS,
        )
        # frac(0.5) = 0.5 dims the value channel to 0.85
        assert render_pixels(half, spec) == bytes((0, 217, 217))

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        from ellipse_phase import IoFailure, render_phase_portrait

        spec = RenderSpec(
            center=0j, width=1.0, height=1.0, width_px=1, height_px=1,
            output_path=str(tmp_path / "missing_dir" / "x.ppm"),
        )
        with pytest.raises(IoFailure):
            render_phase_portrait(lambda z: LogValue.one(), spec)


class TestConfigAndSeed:
    def test_env_seed_overrides(self, tmp_path):
        synth = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(synth.stdout)
        r = run_cli(
            "verify", "--spec", str(spec_path), "--seed", "3",
            env={"ELLIPSE_PHASE_SEED": "7"},
        )
        assert r.returncode == 0

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

    def test_unreadable_config_is_io_error(self, tmp_path):
        (tmp_path / "ellipse-phase.json").mkdir()
        r = run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR, cwd=tmp_path)
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert "ellipse-phase.json" in r.stderr


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
        obj = json.loads(run_cli("synth", "--lattice", LATTICE, "--divisor", DIVISOR).stdout)
        obj["g"]["scale"] = [0.0, 0.0]
        with pytest.raises(ValueError):
            spec_from_obj(obj)
