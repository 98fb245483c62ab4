import argparse
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import hypothesis
import pytest
from hypothesis import given, strategies as st

from cuspspec import cli, fiber, weyl
from cuspspec import fiber_eigenvalues, FiberPotential, load_model, model_to_dict
from cuspspec.cli import main
from conftest import circle_model, model_dicts


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(model_to_dict(circle_model())))
    return str(path)


@pytest.fixture
def bad_flux_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model_to_dict(circle_model(omega=1.0))))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateVerb:
    def test_valid_model(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "validate", model_path)
        assert code == 0
        assert out.splitlines()[0] == "violation"

    def test_integer_flux_fails(self, capsys, bad_flux_path):
        code, out, _ = run_cli(capsys, "validate", bad_flux_path)
        assert code == 1
        assert "integer flux" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "model-load"

    def test_unknown_field(self, capsys, tmp_path):
        path = tmp_path / "weird.json"
        data = model_to_dict(circle_model())
        data["comment"] = "hi"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "unknown model fields" in json.loads(err)["error"]["message"]


class TestDrawnModelFiles:
    # exit 0, 1 or 2 on any model file; a non-zero exit always says why: a
    # JSON error object on stderr, or validate's table of violations
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=model_dicts(), verb=st.sampled_from([["validate"], ["count", "--lambda", "1"]]))
    def test_exit_code_and_error_object(self, data, verb):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(json.dumps(data))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([verb[0], str(path), *verb[1:]])
        assert code in (0, 1, 2)
        if code == 0:
            return
        if verb == ["validate"] and not err.getvalue():
            assert code == 1 and len(out.getvalue().splitlines()) > 1
        else:
            assert set(json.loads(err.getvalue())["error"]) == {"type", "message"}

    @pytest.mark.parametrize("verb", [["validate"], ["count", "--lambda", "1"]])
    @pytest.mark.parametrize("field", ["a", "dimension"])
    def test_huge_int_exits_1(self, capsys, tmp_path, verb, field):
        data = model_to_dict(circle_model())
        (data["cusps"][0] if field == "a" else data)[field] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, verb[0], str(path), *verb[1:])
        assert code == 1
        if verb == ["validate"] and field == "dimension":
            assert "dimension n = 1" in out
        else:
            assert json.loads(err)["error"]["type"] in ("model-load", "validation")


class TestCountAndSweep:
    def test_count_row(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "count", model_path, "--lambda", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "lambda,count_low,count_high,leading,residual_low,residual_high,"
            "theta_sum,r_model"
        )
        cells = lines[1].split(",")
        assert cells[0] == "100.0"
        assert int(cells[1]) <= int(cells[2])
        assert float(cells[3]) == pytest.approx(50.0)

    @pytest.mark.parametrize("lam,low,high", [("20", 6, 10), ("60", 26, 32)])
    def test_count_delta_near_one(self, capsys, tmp_path, lam, low, high):
        # alpha ~ 1/(1 - delta) = 1e7; the counts are those of delta = 1
        path = tmp_path / "near_one.json"
        path.write_text(json.dumps(model_to_dict(circle_model(delta=0.9999999))))
        code, out, _ = run_cli(capsys, "count", str(path), "--lambda", lam, "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert (row["count_low"], row["count_high"]) == (low, high)

    @pytest.mark.parametrize("lam,low,high", [("20", 6, 10), ("60", 26, 32)])
    def test_count_delta_nearer_one_phase_integral(self, capsys, tmp_path, lam, low, high):
        # alpha ~ 1e9: rounding t to a double moves the growth term by up to
        # power * 2^-53 ~ 2e-7 relative, which the phase integral must not see
        # (no quadrature warning) and which theta_sum must not carry
        import mpmath

        model = circle_model(delta=1.0 - 1e-9)
        path = tmp_path / "nearer_one.json"
        path.write_text(json.dumps(model_to_dict(model)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "count", str(path), "--lambda", lam, "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert (row["count_low"], row["count_high"]) == (low, high)

        mpmath.mp.dps = 40
        cusp = model.cusps[0]
        level = mpmath.mpf(lam)
        reference = mpmath.mpf(0)
        for mu, mult in zip(*weyl.cusp_modes(model, 0, float(lam))):
            f = FiberPotential.from_cusp(2, cusp.delta, cusp.a, mu)
            sc = 1 - mpmath.mpf(f.delta)
            # the cusp's own boundary a^(2(1 - delta))/(1 - delta), not the
            # rounded f.alpha, whose rounding the power p ~ 2e9 would magnify
            power, alpha = 2 * mpmath.mpf(f.delta) / sc, mpmath.mpf(cusp.a) ** (2 * sc) / sc

            def gap(x):
                t = alpha + x
                return level - mu * (sc * t) ** power - mpmath.mpf(f.const_coeff) / t**2

            if gap(0) <= 0:
                continue
            right = mpmath.mpf(1)
            while gap(right) > 0:
                right *= 2
            end = mpmath.findroot(gap, (0, right), solver="anderson")
            reference += mult * mpmath.quad(lambda x: mpmath.sqrt(max(gap(x), 0)), [0, end])
        reference /= mpmath.pi
        assert row["theta_sum"] == pytest.approx(float(reference), rel=1e-8)

    def test_count_rejects_invalid_model(self, capsys, bad_flux_path):
        code, _, err = run_cli(capsys, "count", bad_flux_path, "--lambda", "10")
        assert code == 1
        assert "integer flux" in json.loads(err)["error"]["message"]

    def test_sweep_determinism(self, tmp_path, capsys, model_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", model_path, "--lambda-min", "2", "--lambda-max", "40",
                "--points", "8"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sweep_fit_footer(self, capsys, model_path):
        code, out, _ = run_cli(
            capsys, "sweep", model_path, "--lambda-min", "2", "--lambda-max", "40",
            "--points", "8",
        )
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("# fit")

    def test_sweep_json_meta(self, capsys, model_path):
        code, out, _ = run_cli(
            capsys, "sweep", model_path, "--lambda-min", "2", "--lambda-max", "40",
            "--points", "8", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 8
        assert "model_sha256" in payload["meta"]
        assert "fit" in payload["meta"]
        assert payload["meta"]["tolerances"]["rel_tol"] == 1e-10

    def test_sweep_json_is_strict_on_a_degenerate_fit(self, capsys, tmp_path):
        # a = 100 leaves no eigenvalue below lambda = 40, so the fit is
        # degenerate and its slope NaN, which JSON writes as null
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "core": {"volume": 0.0, "remainder_coeff": 0.0},
            "cusps": [{"a": 100.0, "delta": 1.0, "lengths": [2.0 * math.pi],
                       "magnetic": [0.5]}],
        }))
        code, out, _ = run_cli(
            capsys, "sweep", str(path), "--lambda-min", "2", "--lambda-max", "40",
            "--points", "8", "--format", "json",
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        fit = json.loads(out, parse_constant=reject)["meta"]["fit"]
        assert fit["degenerate"] is True and fit["slope"] is None

    def test_bad_grid_is_computation_error(self, capsys, model_path):
        code, _, err = run_cli(
            capsys, "sweep", model_path, "--lambda-min", "40", "--lambda-max", "2",
            "--points", "8",
        )
        assert code == 2
        assert "strictly below" in json.loads(err)["error"]["message"]


class TestNonFiniteLevels:
    ARGS = {
        "count": lambda v: ["count", "--lambda=" + v],
        "fiber": lambda v: ["fiber", "--lambda=" + v, "--ell", "1"],
        "sweep-min": lambda v: ["sweep", "--lambda-min=" + v, "--lambda-max", "40",
                                "--points", "8", "--linear"],
        "sweep-max": lambda v: ["sweep", "--lambda-min", "2", "--lambda-max=" + v,
                                "--points", "8"],
        "phase-max": lambda v: ["phase", "--lambda-min", "10", "--lambda-max=" + v,
                                "--points", "4", "--ell", "1"],
        "embedded": lambda v: ["embedded", "--lambda=" + v],
    }
    FLAGS = {"count": "--lambda", "fiber": "--lambda", "sweep-min": "--lambda-min",
             "sweep-max": "--lambda-max", "phase-max": "--lambda-max", "embedded": "--lambda"}

    @pytest.mark.parametrize("case", sorted(ARGS))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejected_before_enumeration(self, capsys, model_path, case, value):
        argv = self.ARGS[case](value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv[0], model_path, *argv[1:])
        assert code == 2
        assert out == ""
        assert caught == []
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == f"{self.FLAGS[case]} must be finite, got {float(value)}"


class TestLevelZeroAndBelow:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_count_at_zero(self, capsys, model_path, fmt):
        code, out, err = run_cli(capsys, "count", model_path, "--lambda", "0",
                                 "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "csv":
            row = out.splitlines()[1].split(",")
        else:
            row = [str(v) for v in json.loads(out)["rows"][0].values()]
        assert row == ["0.0", "0", "0", "0.0", "0.0", "0.0", "0.0", "0.0"]

    def test_linear_sweep_from_zero(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "sweep", model_path, "--lambda-min", "0",
                               "--lambda-max", "4", "--points", "3", "--linear")
        assert code == 0
        assert [line.split(",")[7] for line in out.splitlines()[1:4]] == [
            "0.0", repr(math.sqrt(2.0) * math.log(2.0)), repr(2.0 * math.log(4.0))
        ]

    @pytest.mark.parametrize("argv,flag", [
        (["count", "--lambda", "-1"], "--lambda"),
        (["sweep", "--lambda-min", "-1", "--lambda-max", "4", "--points", "3", "--linear"],
         "--lambda-min"),
    ])
    def test_negative_level_rejected(self, capsys, model_path, argv, flag):
        assert_value_error(capsys, [argv[0], model_path, *argv[1:]],
                           f"{flag} must be >= 0, got -1.0")


class TestModelErrors:
    @pytest.mark.parametrize("field,value,named", [
        ("core", 5, "core"), ("lengths", 6.28, "lengths"), ("cusps", 5, "cusps"),
        ("cusps", [5], "cusp 0"), ("volume", [1], "core volume"),
    ])
    def test_wrongly_typed_field_is_a_model_error(self, capsys, tmp_path, field, value,
                                                  named):
        data = model_to_dict(circle_model())
        if field in data:
            data[field] = value
        elif field in data["core"]:
            data["core"][field] = value
        else:
            data["cusps"][0][field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(data))
        for verb in (["validate"], ["count", "--lambda", "10"]):
            code, out, err = run_cli(capsys, verb[0], str(path), *verb[1:])
            assert (code, out) == (1, "")
            error = json.loads(err)["error"]
            assert error["type"] == "model-load"
            assert named in error["message"]

    def test_nan_field_is_a_violation(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(model_to_dict(circle_model(omega=math.nan))))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "magnetic coefficients must be finite" in out
        assert err == ""

    def test_fractional_dimension_is_a_model_error(self, capsys, tmp_path):
        path = tmp_path / "dim.json"
        data = model_to_dict(circle_model())
        data["dimension"] = 2.7
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "count", str(path), "--lambda", "10")
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "model-load"
        assert "dimension 2.7 must be an integer" in error["message"]


def assert_value_error(capsys, argv, message):
    """Exit 2, nothing on stdout, no warning, only the JSON error on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out, caught) == (2, "", [])
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


class TestIndexAndPerturbFlags:
    CUSP_VERBS = {
        "fiber": ["fiber", "--lambda", "30"],
        "phase": ["phase", "--lambda", "30"],
        "perturb": ["perturb", "--tau-max", "0.1"],
        "rj-identity": ["rj-identity", "--lambda", "30"],
    }

    @pytest.mark.parametrize("verb", sorted(CUSP_VERBS))
    @pytest.mark.parametrize("cusp", ["-1", "1", "3"])
    def test_cusp_out_of_range(self, capsys, model_path, verb, cusp):
        argv = self.CUSP_VERBS[verb]
        assert_value_error(
            capsys, [argv[0], model_path, *argv[1:], "--cusp", cusp],
            f"--cusp must be in [0, 1) for this model, got {cusp}",
        )

    @pytest.mark.parametrize("verb", ["fiber", "phase"])
    def test_negative_ell(self, capsys, model_path, verb):
        argv = self.CUSP_VERBS[verb]
        assert_value_error(
            capsys, [argv[0], model_path, *argv[1:], "--ell", "-1"],
            "--ell must be >= 0, got -1",
        )

    @pytest.mark.parametrize("tau_max", ["nan", "inf", "-inf", "0", "-0.1"])
    def test_tau_max_finite_positive(self, capsys, model_path, tau_max):
        assert_value_error(
            capsys, ["perturb", model_path, "--tau-max=" + tau_max],
            f"--tau-max must be finite and > 0, got {float(tau_max)}",
        )

    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    def test_perturb_needs_two_points(self, capsys, model_path, points):
        assert_value_error(
            capsys, ["perturb", model_path, "--tau-max", "0.1", "--points=" + points],
            "--points must be >= 2",
        )

    def test_second_cusp_is_reachable(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps(model_to_dict(circle_model(cusps=2))))
        code, out, _ = run_cli(capsys, "perturb", str(path), "--tau-max", "0.1",
                               "--points", "2", "--cusp", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestOtherVerbs:
    def test_perturb_quadratic_column(self, capsys, model_path):
        code, out, _ = run_cli(
            capsys, "perturb", model_path, "--cusp", "0", "--tau-max", "0.01",
            "--points", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,mu0,mu0_over_tau2"
        assert len(lines) == 11
        for line in lines[1:]:
            assert float(line.split(",")[2]) == pytest.approx(0.25, abs=1e-12)

    def test_fiber_matches_library(self, capsys, model_path):
        code, out, _ = run_cli(
            capsys, "fiber", model_path, "--lambda", "50", "--ell", "0",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in rows]
        f = FiberPotential.from_cusp(2, 1.0, 1.0, 0.25)
        assert values == pytest.approx(fiber_eigenvalues(f, 50.0))

    def test_phase_rows(self, capsys, model_path):
        code, out, _ = run_cli(
            capsys, "phase", model_path, "--lambda-min", "10", "--lambda-max", "100",
            "--points", "4", "--ell", "0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,w,count,gap"
        assert len(lines) == 5

    def test_phase_free_channel_robin_at_zero(self, capsys, tmp_path):
        # the ell = 0 mode of a zero-field delta < 1 cusp has its default
        # Robin eigenvalue at exactly 0, so the strict count at 0 is 0
        path = tmp_path / "free075.json"
        path.write_text(json.dumps(model_to_dict(circle_model(omega=0.0, delta=0.75))))
        code, out, _ = run_cli(
            capsys, "phase", str(path), "--lambda", "0", "--ell", "0", "--boundary", "robin",
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == "0"

    def test_rj_identity_residual(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "rj-identity", model_path, "--lambda", "100")
        assert code == 0
        residual = float(out.strip().splitlines()[1].split(",")[2])
        assert residual <= 1e-10

    def test_rj_identity_enumerates_once_per_level(self, capsys, model_path, monkeypatch):
        calls = []
        real = weyl.mu_spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(weyl, "mu_spectrum", counted)
        code, out, _ = run_cli(
            capsys, "rj-identity", model_path, "--lambda-min", "10", "--lambda-max", "1000",
            "--points", "3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert len(calls) == 3

    def test_fiber_mode_is_a_python_float(self, model_path):
        model = load_model(model_path)
        f = cli._fiber_for(model, argparse.Namespace(cusp=0, ell=3))
        assert type(f.mu) is float
        assert f.mu == 2.25

    def test_phase_picks_its_fiber_once(self, capsys, monkeypatch):
        sizes = []
        real = cli.mu_spectrum

        def counted(*args, **kwargs):
            spec = real(*args, **kwargs)
            sizes.append(len(spec))
            return spec

        monkeypatch.setattr(cli, "mu_spectrum", counted)
        torus3 = str(Path(__file__).parent / "golden" / "models" / "torus3.json")
        code, out, _ = run_cli(
            capsys, "phase", torus3, "--lambda-min", "50", "--lambda-max", "800",
            "--points", "12",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 13
        assert sizes == [4]

    def test_embedded_row(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "embedded", model_path, "--lambda", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("lambda,rho,tau,c_a,shifted_lambda,n_ess,bound")
        cells = lines[1].split(",")
        assert float(cells[2]) == pytest.approx(0.1)
        assert int(cells[5]) <= int(cells[6])

    def test_embedded_zero_field_is_computation_error(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(model_to_dict(circle_model(omega=0.0))))
        code, _, err = run_cli(capsys, "embedded", str(path), "--lambda", "100")
        assert code == 2
        assert "magnetic" in json.loads(err)["error"]["message"]

    def test_out_file(self, tmp_path, model_path):
        out = tmp_path / "table.csv"
        assert main(["count", model_path, "--lambda", "10", "--out", str(out)]) == 0
        assert out.read_text().startswith("lambda,")


GOLDEN_MODELS = sorted((Path(__file__).parent / "golden" / "models").glob("*.json"))


# count either succeeds or fails as a computation, with nothing on stdout
# and one JSON error object on stderr
@hypothesis.settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@given(
    model=st.sampled_from(GOLDEN_MODELS),
    lam=st.one_of(st.floats(-10.0, 1e3), st.sampled_from([math.nan, math.inf])),
)
def test_count_exit_codes_on_golden_models(capsys, model, lam):
    code, out, err = run_cli(capsys, "count", str(model), f"--lambda={lam!r}")
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        [line] = err.splitlines()
        assert set(json.loads(line)["error"]) == {"type", "message"}


def test_count_over_the_mesh_budget_exits_2(capsys):
    # the shoots of the delta = 0.75 circle at lambda = 1e11 would plan
    # about 3.4e12 Magnus mesh steps; the count stops before the first one
    model = Path(__file__).parent / "golden" / "models" / "circle_delta075.json"
    code, out, err = run_cli(capsys, "count", str(model), "--lambda", "1e11")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "MeshBudgetError"
    assert error["message"].endswith("budget is 10000000000")


def assert_over_the_mesh_budget(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "MeshBudgetError"
    assert error["message"].endswith("budget is 10000000000")


def test_delta1_count_over_the_mesh_budget_exits_2(capsys, tmp_path):
    # with a = 1e7 only 126 modes lie below lambda = 1e32, but the one
    # backward shoot past all of them would plan 6.9e10 mesh steps
    path = tmp_path / "far.json"
    path.write_text(json.dumps(model_to_dict(circle_model(a=1e7))))
    assert_over_the_mesh_budget(capsys, "count", str(path), "--lambda", "1e32")


def test_fiber_listing_over_the_mesh_budget_exits_2(capsys):
    # the bottom fiber of the delta = 1 circle has 108,187 eigenvalues below
    # 1e9, each up to 6 backward shoots of a mesh of 8.9e4 steps
    model = Path(__file__).parent / "golden" / "models" / "circle_delta1.json"
    assert_over_the_mesh_budget(capsys, "fiber", str(model), "--lambda", "1e9")


def test_parser_is_built_once_per_process(capsys, model_path):
    # main parses every call with the one parser the process built, and a
    # reused parser gives the same output call after call
    assert cli.build_parser() is cli.build_parser()
    first = run_cli(capsys, "count", model_path, "--lambda", "40")
    with pytest.raises(SystemExit):
        main(["count", model_path])
    capsys.readouterr()
    assert run_cli(capsys, "count", model_path, "--lambda", "40") == first
    assert first[0] == 0


def test_every_shoot_runs_from_its_span_down_to_the_boundary(capsys, monkeypatch):
    # the stops of every production shoot are descending offsets in
    # [0, span) that end at the boundary 0, which _back_blocks and
    # _back_angles rely on: count (a delta = 1 and a delta = 0.75 cusp),
    # fiber (one listing) and phase (fiber_count's lone shoots)
    models = Path(__file__).parent / "golden" / "models"
    two_cusp, circle = str(models / "two_cusp.json"), str(models / "circle_delta075.json")
    shoots = []
    real = fiber._back_blocks

    def back_blocks(f, lam, span, stops):
        shoots.append((f.delta, span, list(stops)))
        return real(f, lam, span, stops)

    monkeypatch.setattr(fiber, "_back_blocks", back_blocks)
    for argv in (
        ["count", two_cusp, "--lambda", "30"],
        ["fiber", circle, "--lambda", "30", "--ell", "1"],
        ["phase", circle, "--lambda-min", "10", "--lambda-max", "40", "--points", "3",
         "--ell", "1", "--boundary", "robin"],
    ):
        before = len(shoots)
        assert run_cli(capsys, *argv)[0] == 0
        assert len(shoots) > before
    assert {delta for delta, _, _ in shoots} == {1.0, 0.75}
    assert any(len(stops) > 1 for _, _, stops in shoots)
    for _, span, stops in shoots:
        assert stops[-1] == 0.0 and stops[0] < span
        assert all(hi > lo for hi, lo in zip(stops, stops[1:]))
