import dataclasses
import json
import math

import hypothesis
import pytest
from hypothesis import given

from cuspspec import (
    CompactCoreSurrogate,
    CuspEnd,
    ManifoldModel,
    TorusCrossSection,
    cusp_volume,
    load_model,
    model_from_dict,
    model_to_dict,
    spectral_floor,
    total_volume,
    validate_model,
)
from conftest import TWO_PI, circle_model, model_dicts


def make(n, lengths, magnetic, a=1.0, delta=1.0, core=0.0):
    return ManifoldModel(
        n=n,
        core=CompactCoreSurrogate(volume=core),
        cusps=(CuspEnd(TorusCrossSection(lengths, magnetic), a=a, delta=delta),),
    )


class TestValidate:
    def test_reference_is_valid(self):
        assert validate_model(make(2, (TWO_PI,), (0.5,))) == []

    def test_integer_flux_rejected(self):
        violations = validate_model(make(2, (TWO_PI,), (1.0,)))
        assert any("integer flux" in v for v in violations)

    def test_delta_below_threshold(self):
        violations = validate_model(make(3, (1.0, 1.0), (0.0, 0.0), delta=0.3))
        assert any("delta <= 1/n" in v for v in violations)

    def test_zero_field_model_valid(self):
        assert validate_model(make(2, (TWO_PI,), (0.0,))) == []

    def test_mixed_flux_rejected(self):
        # magnetic mode demands nontrivial flux on every cusp
        good = CuspEnd(TorusCrossSection((TWO_PI,), (0.5,)), a=1.0, delta=1.0)
        trivial = CuspEnd(TorusCrossSection((TWO_PI,), (0.0,)), a=1.0, delta=1.0)
        model = ManifoldModel(n=2, core=CompactCoreSurrogate(), cusps=(good, trivial))
        assert any("integer flux" in v for v in validate_model(model))

    def test_bad_lengths_and_dimensions(self):
        violations = validate_model(make(3, (1.0,), (0.3,)))
        assert any("expected n-1" in v for v in violations)
        violations = validate_model(make(2, (-1.0,), (0.3,)))
        assert any("lengths" in v for v in violations)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"magnetic": (math.nan,)}, "magnetic coefficients must be finite"),
            ({"magnetic": (math.inf,)}, "magnetic coefficients must be finite"),
            ({"lengths": (math.nan,)}, "lengths must be finite and > 0"),
            ({"lengths": (math.inf,)}, "lengths must be finite and > 0"),
            ({"a": math.nan}, "a = nan must be finite"),
            ({"a": math.inf}, "a = inf must be finite"),
            ({"delta": math.nan}, "delta must be a number"),
            ({"core": math.nan}, "core volume nan"),
            ({"core": math.inf}, "core volume inf"),
        ],
    )
    def test_non_finite_entries_are_violations(self, kwargs, fragment):
        args = {"n": 2, "lengths": (TWO_PI,), "magnetic": (0.5,)}
        args.update(kwargs)
        violations = validate_model(make(**args))
        assert any(fragment in v for v in violations), violations

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -1.0])
    def test_bad_remainder_coeff_is_a_violation(self, coeff):
        model = ManifoldModel(
            n=2,
            core=CompactCoreSurrogate(volume=0.0, remainder_coeff=coeff),
            cusps=circle_model().cusps,
        )
        assert any("remainder_coeff" in v for v in validate_model(model))

    @pytest.mark.parametrize("dimension", [2.7, math.nan, math.inf, "2", None])
    def test_non_integral_dimension_rejected(self, dimension):
        with pytest.raises(ValueError, match="must be an integer"):
            ManifoldModel(n=dimension, core=CompactCoreSurrogate(), cusps=circle_model().cusps)
        data = model_to_dict(circle_model())
        data["dimension"] = dimension
        with pytest.raises(ValueError, match="must be an integer"):
            model_from_dict(data)

    def test_integral_float_dimension_accepted(self):
        model = ManifoldModel(n=2.0, core=CompactCoreSurrogate(), cusps=circle_model().cusps)
        assert model.n == 2 and isinstance(model.n, int)

    def test_idempotent_and_pure(self):
        model = make(2, (TWO_PI,), (1.0,))
        first = validate_model(model)
        assert validate_model(model) == first


class TestVolumes:
    def test_circle_cusp_volume(self):
        cusp = CuspEnd(TorusCrossSection((TWO_PI,), (0.0,)), a=1.0, delta=1.0)
        assert cusp_volume(cusp, 2) == pytest.approx(TWO_PI, rel=1e-15)

    def test_volume_linear_in_cross_section(self):
        cusp = CuspEnd(TorusCrossSection((1.0,), (0.0,)), a=1.0, delta=1.0)
        assert cusp_volume(cusp, 2) == pytest.approx(1.0, rel=1e-15)

    def test_torus_cusp_volume_n3(self):
        cusp = CuspEnd(TorusCrossSection((TWO_PI, TWO_PI), (0.0, 0.0)), a=1.0, delta=1.0)
        assert cusp_volume(cusp, 3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_cusp_volume_precondition(self):
        cusp = CuspEnd(TorusCrossSection((1.0,), (0.0,)), a=1.0, delta=0.5)
        with pytest.raises(ValueError):
            cusp_volume(cusp, 2)

    def test_total_volume_additivity(self):
        assert total_volume(circle_model()) == pytest.approx(TWO_PI)
        assert total_volume(circle_model(core_volume=1.0)) == pytest.approx(TWO_PI + 1.0)
        assert total_volume(circle_model(cusps=2)) == pytest.approx(2.0 * TWO_PI)

    def test_volume_strictly_decreasing_in_a(self):
        previous = math.inf
        for a in [0.5, 0.8, 1.0, 1.5, 2.0, 4.0]:
            cusp = CuspEnd(TorusCrossSection((TWO_PI,), (0.0,)), a=a, delta=1.0)
            value = cusp_volume(cusp, 2)
            assert value < previous
            previous = value


class TestSpectralFloor:
    def test_branch_values(self):
        assert spectral_floor(circle_model(delta=1.0)) == 0.25
        assert spectral_floor(circle_model(delta=0.8)) == 0.0
        model5 = ManifoldModel(
            n=5,
            core=CompactCoreSurrogate(),
            cusps=(CuspEnd(TorusCrossSection((1.0,) * 4, (0.0,) * 4), 1.0, 1.0),),
        )
        assert spectral_floor(model5) == 4.0

    def test_depends_only_on_min_delta(self):
        c1 = CuspEnd(TorusCrossSection((TWO_PI,), (0.0,)), a=1.0, delta=1.0)
        c2 = CuspEnd(TorusCrossSection((3.0,), (0.0,)), a=2.0, delta=0.9)
        m12 = ManifoldModel(2, CompactCoreSurrogate(), (c1, c2))
        m21 = ManifoldModel(2, CompactCoreSurrogate(), (c2, c1))
        assert spectral_floor(m12) == spectral_floor(m21) == 0.0


class TestModelFile:
    def test_roundtrip(self, tmp_path, ref_model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(ref_model)))
        assert load_model(path) == ref_model

    def test_unknown_top_field_rejected(self):
        data = model_to_dict(circle_model())
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown model fields"):
            model_from_dict(data)

    def test_unknown_cusp_field_rejected(self):
        data = model_to_dict(circle_model())
        data["cusps"][0]["spin"] = 2
        with pytest.raises(ValueError, match="unknown fields"):
            model_from_dict(data)

    def test_missing_field_rejected(self):
        data = model_to_dict(circle_model())
        del data["cusps"][0]["delta"]
        with pytest.raises(ValueError, match="missing"):
            model_from_dict(data)


class TestWronglyTypedFields:
    # (path into the model dict, value, words the message must hold)
    CASES = [
        (("core",), 5, "core must be an object"),
        (("cusps",), 5, "cusps must be a list"),
        (("cusps", 0), 5, "cusp 0 must be an object"),
        (("cusps", 0, "lengths"), 6.28, "cusp 0: lengths must be a list of numbers"),
        (("cusps", 0, "magnetic"), [None], "cusp 0: magnetic must be a number"),
        (("cusps", 0, "a"), [1.0], "cusp 0: a must be a number"),
        (("cusps", 0, "delta"), {}, "cusp 0: delta must be a number"),
        (("core", "volume"), [1], "core volume must be a number"),
        (("core", "remainder_coeff"), None, "core remainder_coeff must be a number"),
    ]

    @pytest.mark.parametrize("path,value,message", CASES)
    def test_raises_value_error_naming_the_field(self, path, value, message):
        data = model_to_dict(circle_model())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match="^" + message):
            model_from_dict(data)

    def test_numeric_strings_still_parse(self):
        data = model_to_dict(circle_model())
        data["cusps"][0]["a"] = "1.5"
        assert model_from_dict(data).cusps[0].a == 1.5


class TestDrawnModelFiles:
    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=model_dicts())
    def test_parse_raises_only_value_error_and_validate_never_raises(self, data):
        try:
            model = model_from_dict(data)
        except ValueError:
            return
        assert all(isinstance(v, str) for v in validate_model(model))

    @pytest.mark.parametrize("field", ["a", "volume"])
    def test_huge_int_field_is_a_value_error(self, field):
        data = model_to_dict(circle_model())
        target = data["cusps"][0] if field == "a" else data["core"]
        target[field] = 10**400
        with pytest.raises(ValueError, match="too large for a float"):
            model_from_dict(data)

    def test_huge_dimension_is_a_violation(self):
        data = model_to_dict(circle_model())
        data["dimension"] = 10**400
        violations = validate_model(model_from_dict(data))
        assert violations[0].endswith("is too large for a float")

    @pytest.mark.parametrize("n", [10**5000, -(10**5000)], ids=["huge", "negative"])
    def test_dimension_beyond_the_int_to_str_limit(self, n):
        # str(n) would raise past Python's 4300-digit limit
        model = dataclasses.replace(circle_model(), n=n)
        violations = validate_model(model)
        assert violations[0].startswith("dimension n = a ")
        assert "16610-bit integer" in violations[0]
        assert any("expected n-1 = " in v for v in violations)

    def test_flux_beyond_float_range_is_a_violation(self):
        # omega * L overflows to inf; no fractional part of it is left
        assert "integer flux" in validate_model(circle_model(omega=1e308))[0]
