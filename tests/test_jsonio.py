"""A spec reloads by re-synthesis: bit-identical text, and derived fields are checked."""

import json
import math
import random

import pytest

from ellipse_phase import make_divisor, make_lattice, synthesize
from ellipse_phase.jsonio import divisor_from_obj, dumps, spec_from_obj, spec_to_obj

from conftest import random_cell_point, random_lattice


def random_spec(rng, lat):
    """A spec of 1-5 zero/pole pairs with multiplicities 1-2 and m in [-2, 2]."""
    zeros, poles = [], []
    for _ in range(rng.randint(1, 5)):
        mult = rng.randint(1, 2)
        zeros.append((random_cell_point(rng, lat), mult))
        poles.append((random_cell_point(rng, lat), mult))
    d = make_divisor(zeros, poles, lat)
    return synthesize(d, rng.randint(-2, 2), rng.randint(-2, 2), lat)


def assert_reload_identical(spec):
    """Reloading the `synth` text gives the same text and the same quotient."""
    text = dumps(spec_to_obj(spec))
    reloaded = spec_from_obj(json.loads(text))
    assert dumps(spec_to_obj(reloaded)) == text
    assert reloaded.quotient == spec.quotient


def unit_square_text():
    lat = make_lattice(1, 1j)
    d = make_divisor([(0.3 + 0.4j, 1)], [(0.6 + 0.1j, 1)], lat)
    return dumps(spec_to_obj(synthesize(d, 1, -1, lat)))


class TestRoundTrip:
    def test_random_specs(self):
        rng = random.Random(20240817)
        for _ in range(200):
            assert_reload_identical(random_spec(rng, random_lattice(rng)))

    @pytest.mark.parametrize("k", [-3, 1, 2, 7])
    def test_sheared_bases(self, k):
        rng = random.Random(k)
        for _ in range(10):
            lat = random_lattice(rng)
            assert_reload_identical(random_spec(rng, make_lattice(lat.p1, lat.p2 + k * lat.p1)))

    def test_congruent_zero_pole_pair(self):
        # a zero at the origin cancels g's pole there, and the input pair
        # w, w + p1 - 2*p2 is congruent and cancelled by make_divisor
        lat = make_lattice(1.1 + 0.2j, -0.3 + 0.9j)
        w = 0.35 * lat.p1 + 0.6 * lat.p2
        d = make_divisor(
            [(0j, 1), (w, 1), (0.2 * lat.p1 + 0.7 * lat.p2, 2)],
            [(w + lat.p1 - 2 * lat.p2, 1), (0.5 * lat.p2, 1), (0.9 * lat.p1 + 0.1 * lat.p2, 2)],
            lat,
        )
        assert_reload_identical(synthesize(d, 2, -1, lat))


def test_reload_builds_one_evaluator(evaluator_inits):
    obj = json.loads(unit_square_text())
    evaluator_inits.clear()
    spec_from_obj(obj)
    assert len(evaluator_inits) == 1


class TestDivisorKeys:
    def test_missing_key_is_empty(self):
        lat = make_lattice(1, 1j)
        assert divisor_from_obj({}, lat) == make_divisor([], [], lat)
        d = divisor_from_obj({"poles": [[0.3, 0.1]]}, lat)
        assert d == make_divisor([], [(0.3 + 0.1j, 1)], lat)

    @pytest.mark.parametrize("key", ["zero", "Poles", "mult"])
    def test_unknown_key_rejected_by_name(self, key):
        obj = {"zeros": [[0.1, 0.2]], "poles": [[0.3, 0.1]], key: []}
        with pytest.raises(ValueError, match=f"divisor key '{key}'"):
            divisor_from_obj(obj, make_lattice(1, 1j))


def _edit_xi0(obj):
    obj["xi0"][1] += 1e-9


def _edit_a(obj):
    obj["a"][0] = -obj["a"][0]


def _edit_alpha(obj):
    obj["alpha"][0] += 0.5


def _edit_g_zero(obj):
    obj["g"]["zeros"][0][0] += 0.01


def _edit_g_drop_scale(obj):
    del obj["g"]["scale"]


def _edit_m(obj):
    obj["m"][0] += 1


class TestDerivedFieldMismatch:
    @pytest.mark.parametrize(
        "edit, field",
        [
            (_edit_xi0, "xi0"),
            (_edit_a, "a"),
            (_edit_alpha, "alpha"),
            (_edit_g_zero, "g"),
            (_edit_g_drop_scale, "g"),
            # a different m re-derives a different exponent
            (_edit_m, "a"),
        ],
    )
    def test_rejected_naming_field(self, edit, field):
        obj = json.loads(unit_square_text())
        edit(obj)
        with pytest.raises(ValueError, match=f"spec field '{field}'"):
            spec_from_obj(obj)

    def test_unrounded_value_rejected(self):
        # one unit in the last place is already a mismatch
        obj = json.loads(unit_square_text())
        obj["alpha"][1] = math.nextafter(obj["alpha"][1], math.inf)
        with pytest.raises(ValueError, match="'alpha'"):
            spec_from_obj(obj)
