"""End-to-end checks of the command-line entry point: exit codes, error
payloads and reproducible output files."""

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


def test_geometry_outside_the_form_dimension_is_a_config_error(
    tmp_path, capsys
):
    config = {**TRIANGLE_LOOP, "geometry": {"simplex": [[0, 0, 0], [1, 0, 0]]}}
    assert run(tmp_path, "integrate", config) == 2
    err = error_of(capsys)
    assert err["type"] == "validation"
    assert err["field"] == "geometry"


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
