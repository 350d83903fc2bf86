"""Batch front end: JSON experiment configs in, JSON/CSV reports out.

Run it as ``python -m roughforms <subcommand> --config FILE`` or as the
``roughforms`` script. Subcommands: integrate, product, pullback, stokes,
subdiv-stats, norms, flatnorm, embed, gaussian-sample, kolmogorov-fit,
expr-check. Every command reads a schema-validated JSON config (unknown
fields rejected; jsonschema is imported at the first validation, not
with the package), prints a result JSON object to stdout, and with
``--out DIR`` also writes ``result.json``, optional CSVs, and
``meta.json`` (version and timing live there so result.json is
byte-identical across reruns).

This module is the package's only JSON reader and writer. Geometry is
read here alone, from a config's ``simplex``, ``chain``, ``cube`` or
``file`` object; library objects have no JSON readers. Results are
written from the ``to_json`` reports of the objects a command builds
(and, for ``gaussian-sample --out``, ``FieldSample.export``); an object
that no command reports has no serializer.

Exit codes: 0 success, 2 validation error, 3 convergence/budget
failure, 4 failed expectation under ``--assert``. Errors are emitted as
one machine-readable JSON object on stderr. ``--seed`` overrides the
sampler/spec seeds in the config. Set ROUGHFORMS_LOG=debug|info|...
for stderr logging.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .embedding import TestFunction, iota, pi_J, scaling_probe
from .errors import (
    BudgetExceededError,
    ExprSyntaxError,
    InsufficientSamplesError,
    NoConvergenceError,
    NotDifferentiableError,
    QuadratureBudgetError,
    RoughFormsError,
    TruncationTailError,
)
from .exprlang import (
    differentiate,
    evaluate,
    expr_dimension,
    parse as parse_expr,
    to_source,
)
from .forms import (
    HolderFunction,
    SmoothMap,
    WeierstrassFunction,
    catalog_form,
    catalog_names,
    flat_norm_upper,
    norm_estimate,
    product,
    pullback,
    smooth_form,
    stokes_residual,
)
from .gaussian import (
    SpectralFieldSpec,
    component_indices,
    kolmogorov_fit,
    sample_field,
    sample_form,
    spectral_point_variance,
)
from .geometry import Chain, Cube, Simplex, boundary
from .sampling import Box, SamplerSpec
from .subdivision import SCHEMES, stats

log = logging.getLogger("roughforms.cli")

class ConfigError(ValueError):
    """A config that passes the schema but fails a semantic check."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# config schemas

_POINT = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_SIMPLEX = {"type": "array", "items": _POINT, "minItems": 1}

_GEOMETRY = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "simplex": _SIMPLEX,
        "boundary": {"type": "boolean"},
        "chain": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["simplex"],
                "properties": {
                    "coeff": {"type": "integer"},
                    "simplex": _SIMPLEX,
                },
            },
        },
        "cube": {
            "type": "object",
            "additionalProperties": False,
            "required": ["base", "frame", "side"],
            "properties": {
                "base": _POINT,
                "frame": _SIMPLEX,
                "side": {"type": "number", "exclusiveMinimum": 0},
                "sign": {"enum": [-1, 1]},
            },
        },
        "file": {"type": "string"},
    },
}

_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "required": ["d", "theta", "N"],
    "properties": {
        "d": {"type": "integer", "minimum": 1, "maximum": 3},
        "theta": {"type": "number", "minimum": 0},
        "N": {"type": "integer", "minimum": 4},
        "L": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_FORM = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "catalog": {"type": "string"},
        "components": {
            "type": "object",
            "minProperties": 1,
            "patternProperties": {
                r"^[1-9][0-9]*(,[1-9][0-9]*)*$": {"type": ["string", "number"]}
            },
            "additionalProperties": False,
        },
        "d": {"type": "integer", "minimum": 1},
        "gaussian": {
            "type": "object",
            "additionalProperties": False,
            "required": ["spec", "k"],
            "properties": {
                "spec": _SPEC,
                "k": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_FUNCTION = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "expression": {"type": "string"},
        "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "constant": {"type": "number", "minimum": 0},
        "weierstrass": {
            "type": "object",
            "additionalProperties": False,
            "required": ["gamma"],
            "properties": {
                "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}

_MAP = {
    "type": "object",
    "additionalProperties": False,
    "required": ["F"],
    "properties": {
        "F": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "m": {"type": "integer", "minimum": 1},
        "eta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    },
}

_TEST_FUNCTION = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "center": _POINT,
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "m": {"type": "integer", "minimum": 1},
    },
}

_EXPECT_VALUE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["value"],
    "properties": {
        "value": {"type": "number"},
        "tol": {"type": "number", "exclusiveMinimum": 0},
    },
}

_TOL = {"type": "number", "exclusiveMinimum": 0}

_SAMPLER = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "samples_per_band": {"type": "integer", "minimum": 1},
        "n_bands": {"type": "integer", "minimum": 1},
        "diam_max": {"type": "number", "exclusiveMinimum": 0},
        "ecc_cap": {"type": "number", "exclusiveMinimum": 0},
        "n_splits": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "max_attempts": {"type": "integer", "minimum": 1},
    },
}

SCHEMAS = {
    "integrate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["geometry", "form"],
        "properties": {
            "geometry": _GEOMETRY,
            "form": _FORM,
            "tol": _TOL,
            "best_effort": {"type": "boolean"},
            "expect": _EXPECT_VALUE,
        },
    },
    "product": {
        "type": "object",
        "additionalProperties": False,
        "required": ["geometry", "form", "f"],
        "properties": {
            "geometry": _GEOMETRY,
            "form": _FORM,
            "f": _FUNCTION,
            "rule": {"enum": ["vertex_average", "barycenter"]},
            "tol": _TOL,
            "expect": _EXPECT_VALUE,
        },
    },
    "pullback": {
        "type": "object",
        "additionalProperties": False,
        "required": ["geometry", "form", "map"],
        "properties": {
            "geometry": _GEOMETRY,
            "form": _FORM,
            "map": _MAP,
            "tol": _TOL,
            "expect": _EXPECT_VALUE,
        },
    },
    "stokes": {
        "type": "object",
        "additionalProperties": False,
        "required": ["geometry", "form"],
        "properties": {
            "geometry": _GEOMETRY,
            "form": _FORM,
            "tol": _TOL,
            "max_residual": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "subdiv-stats": {
        "type": "object",
        "additionalProperties": False,
        "required": ["scheme", "k"],
        "properties": {
            "scheme": {"enum": sorted(SCHEMES)},
            "k": {"type": "integer", "minimum": 1},
            "levels": {"type": "integer", "minimum": 1},
            "simplex": _SIMPLEX,
            "expect": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "c": {"type": "number"},
                    "cardinality": {"type": "integer"},
                    "tol": _TOL,
                },
            },
        },
    },
    "norms": {
        "type": "object",
        "additionalProperties": False,
        "required": ["form", "region"],
        "properties": {
            "form": _FORM,
            "alpha": {"type": "number", "exclusiveMinimum": 0},
            "beta": {"type": "number", "exclusiveMinimum": 0},
            "region": {
                "type": "object",
                "additionalProperties": False,
                "required": ["lo", "hi"],
                "properties": {"lo": _POINT, "hi": _POINT},
            },
            "sampler": _SAMPLER,
            "tol": _TOL,
            "expect": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "alpha_norm_max": {"type": "number"},
                    "beta_norm_max": {"type": "number"},
                    "ratio_max": {"type": "number"},
                },
            },
        },
    },
    "flatnorm": {
        "type": "object",
        "additionalProperties": False,
        "required": ["s1", "s2"],
        "properties": {
            "s1": _SIMPLEX,
            "s2": _SIMPLEX,
            "alpha": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "beta": {"type": "number", "exclusiveMinimum": 0},
            "expect": {
                "type": "object",
                "additionalProperties": False,
                "required": ["max"],
                "properties": {"max": {"type": "number"}},
            },
        },
    },
    "embed": {
        "type": "object",
        "additionalProperties": False,
        "required": ["mode"],
        "properties": {
            "mode": {"enum": ["pi", "scaling", "iota"]},
            "form": _FORM,
            "J": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
            },
            "test": _TEST_FUNCTION,
            "nodes": {"type": "integer", "minimum": 2},
            "tol": _TOL,
            "x": _POINT,
            "lambdas": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 2,
            },
            "F": _FUNCTION,
            "d": {"type": "integer", "minimum": 1},
            "simplex": _SIMPLEX,
            "n_max": {"type": "integer", "minimum": 1},
            "expect": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "value": {"type": "number"},
                    "tol": _TOL,
                    "min_slope": {"type": "number"},
                },
            },
        },
    },
    "gaussian-sample": {
        "type": "object",
        "additionalProperties": False,
        "required": ["spec", "k"],
        "properties": {
            "spec": _SPEC,
            "k": {"type": "integer", "minimum": 1},
            "grid_stats": {"type": "boolean"},
        },
    },
    "kolmogorov-fit": {
        "type": "object",
        "additionalProperties": False,
        "required": ["spec", "k"],
        "properties": {
            "spec": _SPEC,
            "k": {"type": "integer", "minimum": 1},
            "q": {"type": "integer", "minimum": 2, "multipleOf": 2},
            "scales": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 3,
            },
            "n_samples": {"type": "integer", "minimum": 2},
            "mode": {"enum": ["fresh", "fixed"]},
            "dtype": {"enum": ["float32", "float64"]},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "expr-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["expression"],
        "properties": {
            "expression": {"type": "string"},
            "d": {"type": "integer", "minimum": 1},
            "points": {"type": "array", "items": _POINT},
            "derivative": {"type": "string"},
            "expect": {
                "type": "object",
                "additionalProperties": False,
                "required": ["values"],
                "properties": {
                    "values": {"type": "array", "items": {"type": "number"}},
                    "tol": _TOL,
                },
            },
        },
    },
}


def _schema_check(schema, instance):
    """Raise ConfigError for the first schema error of instance by JSON path.

    The error's field is the dotted path to it; an unknown key is named
    itself. jsonschema is imported here, at the first validation, so
    ``import roughforms`` does not load it.
    """

    import jsonschema

    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(instance), key=lambda e: e.json_path)
    if not errors:
        return
    exc = errors[0]
    parts = [str(part) for part in exc.absolute_path]
    if exc.validator == "additionalProperties":
        allowed = set(exc.schema.get("properties", {}))
        patterns = list(exc.schema.get("patternProperties", {}))
        extras = sorted(
            key
            for key in exc.instance
            if key not in allowed
            and not any(re.match(p, key) for p in patterns)
        )
        parts.extend(extras[:1])
    raise ConfigError(exc.message, field=".".join(parts) or None) from exc


def validate_config(command, config):
    """Schema-check a config; raises ConfigError naming the failing field.

    jsonschema loads at the first call (see ``_schema_check``).
    """

    _schema_check(SCHEMAS[command], config)


# ---------------------------------------------------------------------------
# config loaders


def _exactly_one(obj, keys, field):
    present = [key for key in keys if key in obj]
    if len(present) != 1:
        raise ConfigError(
            f"exactly one of {', '.join(keys)} is required", field=field
        )
    return present[0]


def _load_geometry(obj, base_dir, depth=0):
    """Simplex, Chain, or Cube from an inline object or a JSON file."""

    kind = _exactly_one(obj, ("simplex", "chain", "cube", "file"), "geometry")
    if kind == "file":
        if depth > 0:
            raise ConfigError(
                "geometry files may not reference further files",
                field="geometry.file",
            )
        path = os.path.join(base_dir, obj["file"])
        with open(path, "r", encoding="utf-8") as handle:
            inner = json.load(handle)
        _schema_check(_GEOMETRY, inner)
        return _load_geometry(inner, base_dir, depth=depth + 1)
    if "boundary" in obj and kind != "simplex":
        raise ConfigError(
            "the boundary flag applies to simplex geometry only",
            field="geometry.boundary",
        )
    if kind == "simplex":
        simplex = Simplex(obj["simplex"])
        if not obj.get("boundary"):
            return simplex
        if simplex.k == 0:
            raise ConfigError(
                "a point has no boundary", field="geometry.boundary"
            )
        return boundary(simplex)
    if kind == "chain":
        terms = []
        for term in obj["chain"]:
            terms.append((term.get("coeff", 1.0), Simplex(term["simplex"])))
        return Chain(terms)
    cube = obj["cube"]
    return Cube(
        cube["base"], cube["frame"], cube["side"], cube.get("sign", 1)
    )


def _target_dims(target):
    if isinstance(target, (Simplex, Cube)):
        return target.k, target.d
    terms = list(target)
    if not terms:
        raise ConfigError("the chain is empty", field="geometry.chain")
    simplex = terms[0][1]
    return simplex.k, simplex.d


def _compiled_scalar(text, d):
    tree = parse_expr(text, d=d)

    def fn(x, _tree=tree):
        return evaluate(_tree, x)

    return fn


def _load_form(obj):
    kind = _exactly_one(obj, ("catalog", "components", "gaussian"), "form")
    if kind == "catalog":
        name = obj["catalog"]
        try:
            return catalog_form(name)
        except KeyError:
            raise ConfigError(
                f"unknown catalog form {name!r}; available: "
                f"{', '.join(catalog_names())}",
                field="form.catalog",
            ) from None
    if kind == "components":
        if "d" not in obj:
            raise ConfigError(
                "component forms need the ambient dimension d",
                field="form.d",
            )
        d = obj["d"]
        comps = {}
        for key, value in obj["components"].items():
            index = tuple(int(part) for part in key.split(","))
            if isinstance(value, str):
                comps[index] = _compiled_scalar(value, d)
            else:
                comps[index] = float(value)
        return smooth_form(comps, d)
    inner = obj["gaussian"]
    spec = SpectralFieldSpec(**inner["spec"])
    return sample_form(spec, inner["k"])


def _load_function(obj, d, field):
    kind = _exactly_one(obj, ("expression", "weierstrass"), field)
    if kind == "weierstrass":
        for key in ("gamma", "constant"):
            if key in obj:
                raise ConfigError(
                    f"a weierstrass function reads no {key!r} beside its head",
                    field=f"{field}.{key}",
                )
        head = obj["weierstrass"]
        return WeierstrassFunction(head["gamma"], d, seed=head.get("seed", 0))
    fn = _compiled_scalar(obj["expression"], d)
    gamma = obj.get("gamma", 1.0)
    constant = obj.get("constant", 1.0)
    return HolderFunction(fn, gamma, constant, d=d)


def _load_map(obj):
    trees = [parse_expr(text) for text in obj["F"]]
    d = len(trees)
    used = max([expr_dimension(tree) for tree in trees] + [1])
    m = obj.get("m", used)
    if used > m:
        raise ConfigError(
            f"map components use x{used} but m = {m}", field="map.m"
        )

    def fn(x, _trees=trees):
        return np.stack([evaluate(t, x) for t in _trees], axis=-1)

    jac = None
    try:
        grads = [
            [differentiate(tree, j + 1) for j in range(m)] for tree in trees
        ]

        def jac(x, _grads=grads):
            rows = [
                np.stack([evaluate(g, x) for g in row], axis=-1)
                for row in _grads
            ]
            return np.stack(rows, axis=-2)

    except NotDifferentiableError:
        jac = None  # without a Jacobian, pullbacks by the map are sewn

    return SmoothMap(fn, m, d, jacobian=jac, eta=obj.get("eta", 1.0))


def _load_test_function(obj, d):
    obj = obj or {}
    center = obj.get("center", [0.5] * d)
    if len(center) != d:
        raise ConfigError(
            f"test center has dimension {len(center)}, expected {d}",
            field="test.center",
        )
    return TestFunction(
        d, center=center, radius=obj.get("radius", 0.5), m=obj.get("m", 6)
    )


def _check_dims(a, target):
    k, d = _target_dims(target)
    if d != a.d:
        raise ConfigError(
            f"geometry lives in R^{d} but the form expects R^{a.d}",
            field="geometry",
        )
    if k != a.k:
        raise ConfigError(
            f"geometry has degree {k} but the form has degree {a.k}",
            field="geometry",
        )


def _value_check(value, expect):
    if not expect or "value" not in expect:
        return None
    return abs(value - expect["value"]) <= expect.get("tol", 1e-6)


# ---------------------------------------------------------------------------
# command handlers: config -> (result dict, passed, {csv name: (header, rows)})


def _integral(command, a, config, base_dir, **extra):
    """Evaluate a built cochain on the configured geometry.

    The result holds command, value, tail_bound and tol, then `extra`;
    the value is checked against the config's expect block. Only the
    integrate schema admits best_effort.
    """
    target = _load_geometry(config["geometry"], base_dir)
    _check_dims(a, target)
    tol = config.get("tol", 1e-6)
    value, tail = a.eval_with_tail(
        target, tol, best_effort=config.get("best_effort", False)
    )
    result = {
        "command": command,
        "value": value,
        "tail_bound": tail,
        "tol": tol,
        **extra,
    }
    return result, _value_check(value, config.get("expect")), {}


def _cmd_integrate(config, base_dir):
    a = _load_form(config["form"])
    return _integral(
        "integrate", a, config, base_dir, k=a.k, d=a.d, provenance=a.provenance
    )


def _cmd_product(config, base_dir):
    a = _load_form(config["form"])
    f = _load_function(config["f"], a.d, "f")
    rule = config.get("rule", "vertex_average")
    fa = product(f, a, rule=rule)
    return _integral(
        "product",
        fa,
        config,
        base_dir,
        rule=rule,
        alpha=fa.alpha,
        beta=fa.beta,
        gamma=f.gamma,
    )


def _cmd_pullback(config, base_dir):
    a = _load_form(config["form"])
    f_map = _load_map(config["map"])
    if f_map.d != a.d:
        raise ConfigError(
            f"map has {f_map.d} components but the form lives in R^{a.d}",
            field="map.F",
        )
    fa = pullback(f_map, a)
    return _integral(
        "pullback",
        fa,
        config,
        base_dir,
        m=f_map.m,
        d=a.d,
        alpha=fa.alpha,
        beta=fa.beta,
    )


def _cmd_stokes(config, base_dir):
    a = _load_form(config["form"])
    omega = _load_geometry(config["geometry"], base_dir)
    if not isinstance(omega, Simplex):
        raise ConfigError(
            "stokes needs a single simplex omega", field="geometry"
        )
    if omega.d != a.d or omega.k != a.k + 1:
        raise ConfigError(
            f"omega must be a {a.k + 1}-simplex in R^{a.d}, got k={omega.k}, "
            f"d={omega.d}",
            field="geometry.simplex",
        )
    tol = config.get("tol", 1e-6)
    residual = stokes_residual(a, omega, tol=tol)
    passed = None
    if "max_residual" in config:
        passed = residual <= config["max_residual"]
    result = {
        "command": "stokes",
        "residual": residual,
        "tol": tol,
        "k": a.k,
        "d": a.d,
    }
    if "max_residual" in config:
        result["max_residual"] = config["max_residual"]
    return result, passed, {}


def _cmd_subdiv_stats(config, base_dir):
    scheme = SCHEMES[config["scheme"]]
    k = config["k"]
    if "simplex" in config:
        simplex = Simplex(config["simplex"])
        if simplex.k != k:
            raise ConfigError(
                f"simplex has degree {simplex.k}, expected k={k}",
                field="simplex",
            )
    else:
        vertices = np.zeros((k + 1, k))
        vertices[1:] = np.eye(k)
        simplex = Simplex(vertices)
    report = stats(scheme, simplex, config.get("levels", 3))
    result = {"command": "subdiv-stats"}
    result.update(report.to_json())
    passed = None
    expect = config.get("expect")
    if expect:
        passed = True
        tol = expect.get("tol", 1e-9)
        if "c" in expect:
            passed = passed and abs(report.c_m - expect["c"]) <= tol
        if "cardinality" in expect:
            passed = passed and report.cardinality == expect["cardinality"]
    rows = [
        (rec["level"], rec["card"], rec["c"], rec["ecc_ratio"], rec["vol_ratio"])
        for rec in result["records"]
    ]
    header = ("level", "card", "c", "ecc_ratio", "vol_ratio")
    return result, passed, {"levels.csv": (header, rows)}


def _cmd_norms(config, base_dir):
    a = _load_form(config["form"])
    for corner in ("lo", "hi"):
        if len(config["region"][corner]) != a.d:
            raise ConfigError(
                f"region dimension {len(config['region'][corner])} does not "
                f"match the form dimension {a.d}",
                field=f"region.{corner}",
            )
    region = Box(config["region"]["lo"], config["region"]["hi"])
    sampler = SamplerSpec(**config.get("sampler", {}))
    alpha = config.get("alpha", a.alpha)
    beta = config.get("beta", a.beta)
    report = norm_estimate(
        a, alpha, beta, region, sampler, tol=config.get("tol", 1e-7)
    )
    result = {"command": "norms"}
    result.update(report.to_json())
    passed = None
    expect = config.get("expect")
    if expect:
        passed = True
        if "alpha_norm_max" in expect:
            passed = passed and report.alpha_norm <= expect["alpha_norm_max"]
        if "beta_norm_max" in expect:
            passed = passed and report.beta_norm <= expect["beta_norm_max"]
        if "ratio_max" in expect:
            passed = passed and report.ratio <= expect["ratio_max"]
    rows = [
        (
            band["band"][0],
            band["band"][1],
            band["count"],
            band["sup_mass"],
            band["sup_diam"],
            band["sup_boundary"],
        )
        for band in result["per_band"]
    ]
    header = ("band_lo", "band_hi", "count", "sup_mass", "sup_diam", "sup_boundary")
    return result, passed, {"bands.csv": (header, rows)}


def _cmd_flatnorm(config, base_dir):
    s1 = Simplex(config["s1"])
    s2 = Simplex(config["s2"])
    alpha = config.get("alpha", 1.0)
    beta = config.get("beta", 1.0)
    upper = flat_norm_upper(s1, s2, alpha, beta)
    passed = None
    expect = config.get("expect")
    if expect:
        passed = upper <= expect["max"]
    result = {
        "command": "flatnorm",
        "upper_bound": upper,
        "alpha": alpha,
        "beta": beta,
    }
    return result, passed, {}


# embed mode -> (required fields, other fields it reads); the keys of the
# expect block are named expect.<key>
_EMBED_FIELDS = {
    "iota": (
        ("F", "simplex", "d"),
        ("n_max", "nodes", "expect.value", "expect.tol"),
    ),
    "pi": (
        ("form", "J"),
        ("test", "nodes", "tol", "expect.value", "expect.tol"),
    ),
    "scaling": (
        ("form", "J", "x"),
        ("test", "nodes", "lambdas", "expect.min_slope"),
    ),
}


def _check_embed_fields(config, mode):
    """ConfigError naming the first field the mode needs but is missing, or
    is given but the mode never reads."""
    required, optional = _EMBED_FIELDS[mode]
    for key in required:
        if key not in config:
            raise ConfigError(
                f"embed mode {mode!r} requires the {key!r} field", field=key
            )
    given = [key for key in config if key not in ("mode", "expect")]
    given += [f"expect.{key}" for key in config.get("expect", {})]
    for key in given:
        if key not in required + optional:
            raise ConfigError(
                f"embed mode {mode!r} does not read the {key!r} field",
                field=key,
            )


def _cmd_embed(config, base_dir):
    mode = config["mode"]
    _check_embed_fields(config, mode)
    expect = config.get("expect")
    if mode == "iota":
        d = config["d"]
        F = _load_function(config["F"], d, "F")
        simplex = Simplex(config["simplex"])
        if simplex.d != d or simplex.k != d:
            raise ConfigError(
                "iota needs a top-dimensional simplex (k = d)",
                field="simplex",
            )
        report = iota(
            F,
            simplex,
            n_max=config.get("n_max", 8),
            nodes=config.get("nodes", 12),
        )
        result = {"command": "embed", "mode": "iota", "d": d}
        result.update(report.to_json())
        return result, _value_check(report.value, expect), {}

    a = _load_form(config["form"])
    J = tuple(config["J"])
    if len(J) != a.k or any(not 1 <= j <= a.d for j in J) or list(J) != sorted(set(J)):
        raise ConfigError(
            f"J must be a strictly increasing k-tuple of axes in 1..{a.d}",
            field="J",
        )
    psi = _load_test_function(config.get("test"), a.d)
    nodes = config.get("nodes", 24)
    if mode == "pi":
        value = pi_J(a, psi, J, nodes=nodes, tol=config.get("tol", 1e-8))
        result = {
            "command": "embed",
            "mode": "pi",
            "value": value,
            "J": list(J),
            "nodes": nodes,
        }
        return result, _value_check(value, expect), {}

    x = np.asarray(config["x"], dtype=float)
    if x.shape != (a.d,):
        raise ConfigError(f"x must be a point in R^{a.d}", field="x")
    lambdas = config.get("lambdas")
    probe = scaling_probe(a, psi, J, x, lambdas=lambdas, nodes=nodes)
    result = {"command": "embed", "mode": "scaling", "J": list(J)}
    result.update(probe.to_json())
    passed = None
    if expect and "min_slope" in expect:
        passed = probe.slope >= expect["min_slope"]
    rows = [(rec.lam, rec.value) for rec in probe.records]
    return result, passed, {"scalings.csv": (("lambda", "value"), rows)}


def _cmd_gaussian_sample(config, base_dir, out_dir=None):
    spec = SpectralFieldSpec(**config["spec"])
    k = config["k"]
    if k > spec.d:
        raise ConfigError(
            f"a {k}-form needs k <= d = {spec.d}", field="k"
        )
    components = component_indices(spec.d, k)
    result = {
        "command": "gaussian-sample",
        "spec": {
            "d": spec.d,
            "theta": spec.theta,
            "N": spec.N,
            "L": spec.L,
            "seed": spec.seed,
        },
        "k": k,
        "components": [list(c) for c in components],
        "spectral_point_variance": spectral_point_variance(spec),
        "files": [],
    }
    stats_out = {}
    for component in components:
        field = sample_field(spec, component=component)
        name = "".join(str(i) for i in component)
        if config.get("grid_stats", True):
            grid = field.grid
            stats_out[name] = {
                "mean": float(grid.mean()),
                "std": float(grid.std()),
                "min": float(grid.min()),
                "max": float(grid.max()),
            }
        if out_dir is not None:
            prefix = os.path.join(out_dir, f"field_{name}")
            field.export(prefix)
            result["files"].extend(
                [f"field_{name}.bin", f"field_{name}.json"]
            )
    if stats_out:
        result["grid_stats"] = stats_out
    return result, None, {}


def _cmd_kolmogorov_fit(config, base_dir):
    spec = SpectralFieldSpec(**config["spec"])
    dtype = np.float32 if config.get("dtype", "float32") == "float32" else np.float64
    cube_fit, boundary_fit = kolmogorov_fit(
        spec,
        config["k"],
        q=config.get("q", 2),
        scales=config.get("scales"),
        n_samples=config.get("n_samples", 200),
        mode=config.get("mode", "fresh"),
        dtype=dtype,
        tolerance=config.get("tolerance", 0.15),
    )
    flags = [cube_fit.passed, boundary_fit.passed]
    if False in flags:
        passed = False
    elif None in flags:
        passed = None
    else:
        passed = True
    result = {
        "command": "kolmogorov-fit",
        "spec": config["spec"],
        "k": config["k"],
        "cube": cube_fit.to_json(),
        "boundary": boundary_fit.to_json(),
    }
    cube_rows = cube_fit.to_csv_rows()
    boundary_rows = boundary_fit.to_csv_rows()
    csvs = {
        "moments_cube.csv": (cube_rows[0], cube_rows[1:]),
        "moments_boundary.csv": (boundary_rows[0], boundary_rows[1:]),
    }
    return result, passed, csvs


def _cmd_expr_check(config, base_dir):
    tree = parse_expr(config["expression"], d=config.get("d"))
    source = to_source(tree)
    round_trip = parse_expr(source) == tree
    result = {
        "command": "expr-check",
        "source": config["expression"],
        "normalized": source,
        "dimension": expr_dimension(tree),
        "round_trip": round_trip,
    }
    passed = None
    if "points" in config:
        points = [
            float(evaluate(tree, np.asarray(p, dtype=float)))
            for p in config["points"]
        ]
        result["values"] = points
        expect = config.get("expect")
        if expect:
            tol = expect.get("tol", 1e-9)
            targets = expect["values"]
            if len(targets) != len(points):
                raise ConfigError(
                    "expect.values must match the number of points",
                    field="expect.values",
                )
            passed = all(
                abs(v - t) <= tol for v, t in zip(points, targets)
            )
    if "derivative" in config:
        derivative = differentiate(tree, config["derivative"])
        result["derivative"] = {
            "variable": config["derivative"],
            "source": to_source(derivative),
        }
    if not round_trip:  # pragma: no cover - printer invariant
        passed = False
    return result, passed, {}


_HANDLERS = {
    "integrate": _cmd_integrate,
    "product": _cmd_product,
    "pullback": _cmd_pullback,
    "stokes": _cmd_stokes,
    "subdiv-stats": _cmd_subdiv_stats,
    "norms": _cmd_norms,
    "flatnorm": _cmd_flatnorm,
    "embed": _cmd_embed,
    "kolmogorov-fit": _cmd_kolmogorov_fit,
    "expr-check": _cmd_expr_check,
}


# ---------------------------------------------------------------------------
# serialization


def _jsonable(obj):
    """Recursively convert to JSON-safe types with deterministic floats."""

    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(item) for item in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return repr(value)
        return value
    return obj


def dump_result(result):
    """Canonical result serialization (sorted keys, trailing newline)."""

    return json.dumps(_jsonable(result), sort_keys=True, indent=2) + "\n"


def _csv_bytes(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_jsonable(cell) for cell in row])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# runner


def _apply_seed_override(command, config, seed):
    if seed is None:
        return
    if command in ("gaussian-sample", "kolmogorov-fit"):
        config["spec"]["seed"] = seed
    elif command == "norms":
        config.setdefault("sampler", {})["seed"] = seed
    elif "form" in config and isinstance(config["form"], dict):
        gaussian = config["form"].get("gaussian")
        if isinstance(gaussian, dict) and "spec" in gaussian:
            gaussian["spec"]["seed"] = seed


def run_command(command, config, base_dir=".", seed=None, out_dir=None):
    """Validate and execute one subcommand.

    Returns (result dict, passed flag, csv map); raises on failure. The
    caller decides the exit code from `passed` and the raised type.
    """

    validate_config(command, config)
    _apply_seed_override(command, config, seed)
    log.info("running %s", command)
    if command == "gaussian-sample":
        return _cmd_gaussian_sample(config, base_dir, out_dir=out_dir)
    return _HANDLERS[command](config, base_dir)


def _configure_logging():
    level_name = os.environ.get("ROUGHFORMS_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _emit_error(code, kind, message, field=None):
    payload = {"error": {"code": code, "type": kind, "message": message}}
    if field:
        payload["error"]["field"] = field
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="roughforms",
        description="Rough differential forms: batch experiments from "
        "JSON configs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in SCHEMAS:
        sub = subparsers.add_parser(command)
        sub.add_argument(
            "--config", required=True, help="path to the JSON config"
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override the sampler/spec seeds in the config",
        )
        sub.add_argument(
            "--out", default=None, help="directory for result.json/CSV/meta"
        )
        sub.add_argument(
            "--assert",
            dest="assert_mode",
            action="store_true",
            help="exit 4 when a configured expectation fails",
        )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _configure_logging()
    started = time.perf_counter()
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ConfigError("the config must be a JSON object")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        result, passed, csvs = run_command(
            args.command,
            config,
            base_dir=os.path.dirname(os.path.abspath(args.config)),
            seed=args.seed,
            out_dir=args.out,
        )
    except ConfigError as exc:
        return _emit_error(2, "validation", str(exc), field=exc.field)
    except ExprSyntaxError as exc:
        return _emit_error(
            2,
            "expression",
            str(exc),
            field=f"line {exc.line}, column {exc.column}",
        )
    except (
        NoConvergenceError,
        BudgetExceededError,
        QuadratureBudgetError,
        TruncationTailError,
        InsufficientSamplesError,
    ) as exc:
        return _emit_error(3, type(exc).__name__, str(exc))
    except (ValueError, TypeError, KeyError, OSError, RoughFormsError) as exc:
        return _emit_error(2, type(exc).__name__, str(exc))

    result["passed"] = passed
    payload = dump_result(result)
    sys.stdout.write(payload)
    if args.out:
        with open(
            os.path.join(args.out, "result.json"), "w", encoding="utf-8"
        ) as handle:
            handle.write(payload)
        for name, (header, rows) in csvs.items():
            with open(
                os.path.join(args.out, name), "w", encoding="utf-8"
            ) as handle:
                handle.write(_csv_bytes(header, rows))
        meta = {
            "version": __version__,
            "command": args.command,
            "elapsed_seconds": round(time.perf_counter() - started, 6),
            "written_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
        }
        with open(
            os.path.join(args.out, "meta.json"), "w", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    if args.assert_mode and passed is False:
        return _emit_error(4, "assertion", "a configured expectation failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
