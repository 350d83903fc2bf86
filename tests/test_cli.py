"""End-to-end checks of the command-line entry point: exit codes, error
payloads and reproducible output files."""

import copy
import json
import os
import subprocess
import sys

import pytest

import roughforms
from roughforms.cli import main, run_command

TRIANGLE_LOOP = {
    "form": {"catalog": "x_dy"},
    "geometry": {"simplex": [[0, 0], [1, 0], [0, 1]], "boundary": True},
    "tol": 1e-8,
    "expect": {"value": 0.5, "tol": 1e-7},
}

GAUSSIAN_SEGMENT = {
    "form": {
        "gaussian": {"spec": {"d": 2, "theta": 1.5, "N": 8, "seed": 3}, "k": 1}
    },
    "geometry": {"simplex": [[0.2, 0.3], [0.6, 0.1]]},
}


def run(tmp_path, command, config, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), *flags])


def error_of(capsys):
    return json.loads(capsys.readouterr().err)["error"]


def test_out_files_are_reproducible(tmp_path):
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert run(tmp_path, "integrate", TRIANGLE_LOOP, "--out", str(out)) == 0
    first, second = ((out / "result.json").read_bytes() for out in outs)
    assert first == second
    assert json.loads(first)["passed"] is True
    assert all((out / "meta.json").is_file() for out in outs)


def test_unknown_key_names_its_field(tmp_path, capsys):
    assert run(tmp_path, "integrate", {**TRIANGLE_LOOP, "bogus": 1}) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == "bogus"


def test_unknown_scheme_names_its_field(tmp_path, capsys):
    assert run(tmp_path, "subdiv-stats", {"scheme": "dyadic", "k": 2}) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == "scheme"


@pytest.mark.parametrize("corner", ["lo", "hi"])
def test_region_corner_of_the_wrong_dimension_names_its_field(
    tmp_path, capsys, corner
):
    region = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    region[corner] = [0.0, 0.0, 1.0]
    config = {"form": {"catalog": "x_dy"}, "region": region}
    assert run(tmp_path, "norms", config) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == f"region.{corner}"


def test_boundary_of_a_point_names_its_field(tmp_path, capsys):
    config = {
        "form": {"catalog": "x_dy"},
        "geometry": {"simplex": [[0.5, 0.5]], "boundary": True},
    }
    assert run(tmp_path, "integrate", config) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == "geometry.boundary"


def test_odd_moment_order_names_its_field(tmp_path, capsys):
    config = {"spec": {"d": 2, "theta": 4.0, "N": 16}, "k": 1, "q": 3}
    assert run(tmp_path, "kolmogorov-fit", config) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == "q"


EMBED_PI = {
    "mode": "pi",
    "form": {"catalog": "x_dy"},
    "J": [2],
    "nodes": 16,
    "expect": {"value": 0.05609987149107822, "tol": 1e-8},
}

EMBED_SCALING = {
    "mode": "scaling",
    "form": {"catalog": "dx"},
    "J": [1],
    "x": [0.5, 0.5],
    "nodes": 12,
}

EMBED_IOTA = {
    "mode": "iota",
    "F": {"expression": "x1 + x2"},
    "d": 2,
    "simplex": [[0, 0], [1, 0], [0, 1]],
    "n_max": 6,
    "nodes": 6,
}

WEIERSTRASS = {"weierstrass": {"gamma": 0.9}}


def _without(config, key):
    return {k: v for k, v in config.items() if k != key}


@pytest.mark.parametrize(
    "command, config, field",
    [
        (
            "embed",
            {**EMBED_PI, "expect": {"min_slope": 100}},
            "expect.min_slope",
        ),
        ("embed", {**EMBED_SCALING, "tol": 1e-8}, "tol"),
        ("embed", {**EMBED_SCALING, "n_max": 6}, "n_max"),
        ("embed", {**EMBED_SCALING, "simplex": [[0, 0], [1, 0]]}, "simplex"),
        ("embed", {**EMBED_SCALING, "expect": {"value": 0.0}}, "expect.value"),
        ("embed", {**EMBED_IOTA, "tol": 1e-8}, "tol"),
        ("embed", {**EMBED_IOTA, "form": {"catalog": "x_dy"}}, "form"),
        (
            "embed",
            {**EMBED_IOTA, "F": {**WEIERSTRASS, "gamma": 0.1}},
            "F.gamma",
        ),
        (
            "product",
            {
                "form": {"catalog": "dy"},
                "f": {**WEIERSTRASS, "constant": 99},
                "geometry": {"simplex": [[0, 0], [0.1, 0.1]]},
                "tol": 1e-2,
            },
            "f.constant",
        ),
        ("embed", _without(EMBED_PI, "J"), "J"),
        ("embed", _without(EMBED_SCALING, "x"), "x"),
        ("embed", _without(EMBED_IOTA, "simplex"), "simplex"),
    ],
    ids=[
        "pi_min_slope",
        "scaling_tol",
        "scaling_n_max",
        "scaling_simplex",
        "scaling_value",
        "iota_tol",
        "iota_form",
        "weierstrass_gamma",
        "weierstrass_constant",
        "pi_without_J",
        "scaling_without_x",
        "iota_without_simplex",
    ],
)
def test_a_field_out_of_place_names_itself(
    tmp_path, capsys, command, config, field
):
    assert run(tmp_path, command, config, "--assert") == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == field


@pytest.mark.parametrize(
    "geometry, field",
    [
        ({"simplex": [[0, 0], [1, 0], [0, 1]], "bogus": 1}, "bogus"),
        ({"simplex": [[0, 0], [1, "x"], [0, 1]]}, "simplex.1.1"),
        ({"cube": {"base": [0, 0], "frame": [[1, 0]], "side": 0}}, "cube.side"),
    ],
    ids=["unknown_key", "bad_coordinate", "zero_side"],
)
def test_bad_geometry_file_is_a_validation_error(
    tmp_path, capsys, geometry, field
):
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    config = {**TRIANGLE_LOOP, "geometry": {"file": "geometry.json"}}
    assert run(tmp_path, "integrate", config) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == field


def test_import_leaves_jsonschema_to_the_first_validation():
    src = os.path.dirname(os.path.dirname(roughforms.__file__))
    code = (
        "import sys, roughforms\n"
        "print('jsonschema' in sys.modules)\n"
        "roughforms.cli.validate_config('integrate', {'form': {}})\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.stdout == "False\n"
    assert "ConfigError" in done.stderr  # the schema check ran


def test_geometry_outside_the_form_dimension_is_a_config_error(
    tmp_path, capsys
):
    config = {**TRIANGLE_LOOP, "geometry": {"simplex": [[0, 0, 0], [1, 0, 0]]}}
    assert run(tmp_path, "integrate", config) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == "geometry"


def test_fractional_chain_coefficient_names_its_field(tmp_path, capsys):
    config = {
        "form": {"catalog": "dx"},
        "geometry": {
            "chain": [
                {"coeff": 0.5, "simplex": [[0, 0], [1, 0]]},
                {"coeff": 2.5, "simplex": [[0, 0], [0, 1]]},
            ]
        },
    }
    assert run(tmp_path, "integrate", config) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == "geometry.chain.0.coeff"
    # an integral float is an integer
    config["geometry"]["chain"] = [{"coeff": 2.0, "simplex": [[0, 0], [1, 0]]}]
    assert run_command("integrate", config)[0]["value"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "command, config, kind",
    [
        (
            "subdiv-stats",
            {"scheme": "edgewise", "k": 4},
            "UnsupportedDimensionError",
        ),
        ("expr-check", {"expression": "1/x1", "points": [[0]]}, "EvalDomainError"),
    ],
)
def test_domain_errors_exit_2_with_their_type(
    tmp_path, capsys, command, config, kind
):
    assert run(tmp_path, command, config) == 2
    assert error_of(capsys)["type"] == kind


def test_unreachable_tolerance_exits_3(tmp_path, capsys):
    assert run(tmp_path, "integrate", {**GAUSSIAN_SEGMENT, "tol": 1e-17}) == 3
    assert error_of(capsys)["type"] == "BudgetExceededError"


def test_sampler_that_rejects_every_draw_exits_3(tmp_path, capsys):
    # no simplex has an eccentricity under 1/2
    config = {
        "form": {"catalog": "x_dy"},
        "region": {"lo": [0, 0], "hi": [1, 1]},
        "sampler": {"ecc_cap": 0.5, "max_attempts": 50},
    }
    assert run(tmp_path, "norms", config) == 3
    assert error_of(capsys)["type"] == "BudgetExceededError"


def test_package_runs_as_a_module_with_runtime_warnings_as_errors(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TRIANGLE_LOOP))
    src = os.path.dirname(os.path.dirname(roughforms.__file__))
    python = [sys.executable, "-W", "error::RuntimeWarning"]
    done = subprocess.run(
        [*python, "-m", "roughforms", "integrate", "--config", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["passed"] is True


@pytest.mark.parametrize(
    "command, config, seeded",
    [
        (
            "norms",
            {
                "form": {"catalog": "x_dy"},
                "region": {"lo": [0, 0], "hi": [1, 1]},
                "sampler": {"samples_per_band": 3, "n_bands": 2},
            },
            ("sampler",),
        ),
        (
            "gaussian-sample",
            {"spec": {"d": 2, "theta": 1.5, "N": 8, "seed": 0}, "k": 1},
            ("spec",),
        ),
        ("integrate", GAUSSIAN_SEGMENT, ("form", "gaussian", "spec")),
    ],
    ids=["norms", "gaussian-sample", "gaussian_form"],
)
def test_seed_flag_equals_the_seed_written_in_the_config(
    tmp_path, capsys, command, config, seeded
):
    def stdout_of(config, *flags):
        assert run(tmp_path, command, config, *flags) == 0
        return capsys.readouterr().out

    written = copy.deepcopy(config)
    holder = written
    for key in seeded:
        holder = holder[key]
    holder["seed"] = 7
    flagged = stdout_of(config, "--seed", "7")
    assert flagged == stdout_of(written)
    assert flagged != stdout_of(config)


def test_failed_expectation_exits_4_under_assert(tmp_path, capsys):
    config = {**TRIANGLE_LOOP, "expect": {"value": 0.25, "tol": 1e-7}}
    assert run(tmp_path, "integrate", config) == 0
    capsys.readouterr()
    assert run(tmp_path, "integrate", config, "--assert") == 4
    assert error_of(capsys)["type"] == "assertion"


def test_tight_pullback_of_a_smooth_form_is_one_third():
    # dx1^dx3 through F = (x1, x2, x1^2 + x2^2) is 2 x2 du1^du2, whose
    # integral over the unit triangle is 1/3
    config = {
        "form": {"components": {"1,3": 1.0}, "d": 3},
        "map": {"F": ["x1", "x2", "x1^2 + x2^2"]},
        "geometry": {"simplex": [[0, 0], [1, 0], [0, 1]]},
        "tol": 1e-4,
    }
    result, _, _ = run_command("pullback", config)
    assert result["tail_bound"] <= 1e-4
    assert abs(result["value"] - 1 / 3) <= result["tail_bound"] + 1e-15


@pytest.mark.parametrize(
    "config",
    [
        {
            "spec": {"d": 2, "theta": 4.0, "N": 16, "seed": 2},
            "k": 1,
            "scales": [2.0**-e for e in range(4, 8)],
            "n_samples": 60,
            "tolerance": 0.3,
        },
        {
            "spec": {"d": 3, "theta": 3.0, "N": 8, "seed": 0},
            "k": 2,
            "scales": [2.0**-e for e in range(4, 8)],
            "n_samples": 120,
            "tolerance": 0.3,
            "dtype": "float64",
        },
    ],
)
def test_kolmogorov_fit_writes_passing_moments(tmp_path, capsys, config):
    out = tmp_path / "out"
    assert run(tmp_path, "kolmogorov-fit", config, "--out", str(out)) == 0
    assert json.loads((out / "result.json").read_text())["passed"] is True
    for name in ("moments_cube.csv", "moments_boundary.csv"):
        rows = (out / name).read_text().splitlines()
        assert len(rows) == 1 + len(config["scales"])


@pytest.mark.parametrize(
    "command, config, keys",
    [
        (
            "product",
            {
                "form": {"catalog": "dy"},
                "f": {"expression": "x1", "gamma": 1.0, "constant": 1.0},
                "geometry": {"simplex": [[0, 0], [1, 1]]},
                "tol": 1e-6,
                "expect": {"value": 0.5, "tol": 1e-5},
            },
            {"command", "value", "tail_bound", "tol", "rule", "alpha", "beta",
             "gamma", "passed"},
        ),
        (
            "stokes",
            {
                "form": {"catalog": "x_dy"},
                "geometry": {"simplex": [[0, 0], [0.8, 0.1], [0.3, 0.9]]},
                "tol": 1e-6,
                "max_residual": 1e-5,
            },
            {"command", "residual", "tol", "k", "d", "max_residual", "passed"},
        ),
        (
            "subdiv-stats",
            {
                "scheme": "edgewise",
                "k": 2,
                "levels": 3,
                "expect": {"c": 0.5, "cardinality": 4, "tol": 1e-9},
            },
            {"command", "scheme", "k", "c", "cardinality", "norm", "levels",
             "records", "ecc_ratio_by_level", "vol_ratio_growth",
             "vol_ratio_fitted_order", "passed"},
        ),
        (
            "norms",
            {
                "form": {"catalog": "x_dy"},
                "region": {"lo": [0, 0], "hi": [1, 1]},
                "sampler": {
                    "samples_per_band": 3,
                    "n_bands": 2,
                    "diam_max": 0.4,
                    "n_splits": 1,
                },
                "tol": 1e-6,
                "expect": {"alpha_norm_max": 10.0, "beta_norm_max": 10.0},
            },
            {"command", "alpha", "beta", "alpha_norm", "alpha_norm_diam",
             "beta_norm", "ratio", "n_samples", "ecc_cap", "per_band",
             "passed"},
        ),
        (
            "flatnorm",
            {
                "s1": [[0, 0], [1, 0]],
                "s2": [[0, 0.1], [1, 0.1]],
                "alpha": 1.0,
                "beta": 1.0,
                "expect": {"max": 1.0},
            },
            {"command", "upper_bound", "alpha", "beta", "passed"},
        ),
        (
            "embed",
            {
                "mode": "pi",
                "form": {"catalog": "x_dy"},
                "J": [2],
                "nodes": 16,
                "tol": 1e-8,
                "expect": {"value": 0.05609987149107822, "tol": 1e-8},
            },
            {"command", "mode", "value", "J", "nodes", "passed"},
        ),
        (
            "embed",
            {
                "mode": "scaling",
                "form": {"catalog": "dx"},
                "J": [1],
                "x": [0.5, 0.5],
                "lambdas": [0.5, 0.25, 0.125],
                "nodes": 12,
                "expect": {"min_slope": -0.15},
            },
            {"command", "mode", "J", "slope", "records", "passed"},
        ),
        (
            "embed",
            {
                "mode": "iota",
                "F": {"expression": "x1 + x2"},
                "d": 2,
                "simplex": [[0, 0], [1, 0], [0, 1]],
                "n_max": 6,
                "nodes": 6,
                "expect": {"value": 1 / 3, "tol": 0.05},
            },
            {"command", "mode", "d", "value", "tail_bound", "covered_volume",
             "n_cubes", "passed"},
        ),
        (
            "gaussian-sample",
            {"spec": {"d": 2, "theta": 1.5, "N": 8, "seed": 0}, "k": 1},
            {"command", "spec", "k", "components", "spectral_point_variance",
             "files", "grid_stats", "passed"},
        ),
        (
            "expr-check",
            {
                "expression": "x1^2 + sin(x2)",
                "points": [[1, 0], [2, 0]],
                "derivative": "x1",
                "expect": {"values": [1.0, 4.0], "tol": 1e-12},
            },
            {"command", "source", "normalized", "dimension", "round_trip",
             "values", "derivative", "passed"},
        ),
    ],
)
def test_subcommand_runs_end_to_end(tmp_path, command, config, keys):
    out = tmp_path / "out"
    assert run(tmp_path, command, config, "--out", str(out), "--assert") == 0
    assert set(json.loads((out / "result.json").read_text())) == keys
