"""Strict JSON configuration for the command-line front end.

The schema is versioned and closed: a top-level ``"schema": 1`` is required
and unknown keys anywhere are rejected, because a silently ignored typo in
an experiment file is the main reproducibility hazard.  Overrides
(``key.path=value``) are merged into the raw document before validation.
Every parse passes ``_finite_number`` as its constant and float hook, so the
NaN and Infinity that Python's parser accepts, and 1e999, are refused.
"""

from __future__ import annotations

import json
import math

from .dist import make_distribution
from .errors import AsymlabError, ConfigInvalid
from .instances import (
    GmmInstance,
    Instance,
    IvInstance,
    _is_number,
    _numbers,
    instance_by_name,
    linear_iv_moment_model,
    overidentified_mean_model,
    resolve_score,
)
from .mc import ExperimentConfig
from .models import IVModel
from .scores import ScoreFunction

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema",
    "instance",
    "score",
    "n",
    "reps",
    "alpha",
    "seed",
    "estimators",
    "tests",
}
_RUN_KEYS = ("n", "reps", "alpha", "seed", "estimators", "tests")
_NUMBER_KEYS = {"n": int, "reps": int, "seed": int, "alpha": (int, float)}


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigInvalid(f"{text} is not a finite number: config numbers must be finite")
    return value


def load_raw(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_finite_number, parse_float=_finite_number)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    return raw


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Merge ``dotted.path=value`` pairs into the raw document.

    Values parse as JSON when possible (numbers, lists, booleans), else as
    strings.  Happens before validation, so a bad override is caught by the
    same checks as a bad file.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigInvalid(f"override {item!r} is not of the form key=value")
        dotted, text = item.split("=", 1)
        try:
            value = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return raw


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown fields {sorted(unknown)} in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigInvalid(f"missing field {key!r} in {where}")
    return obj[key]


def validate_raw(raw: dict) -> dict:
    _check_keys(raw, _TOP_KEYS, "config")
    if _require(raw, "schema", "config") != SCHEMA_VERSION:
        raise ConfigInvalid(f"unsupported schema {raw.get('schema')!r}; expected {SCHEMA_VERSION}")
    _require(raw, "instance", "config")
    _require(raw, "score", "config")
    for key, kinds in _NUMBER_KEYS.items():
        if key in raw and not _is_number(raw[key], kinds):
            kind = "integer" if kinds is int else "number"
            raise ConfigInvalid(f"{key} must be a JSON {kind}, got {raw[key]!r}")
    return raw


def build_instance(spec) -> Instance:
    if isinstance(spec, str):
        return instance_by_name(spec)
    if not isinstance(spec, dict):
        raise ConfigInvalid("instance must be a name or an object")
    kind = _require(spec, "kind", "instance")
    if kind == "gmm":
        _check_keys(spec, {"kind", "distribution", "model", "theta0"}, "instance")
        dist = _build_distribution(_require(spec, "distribution", "instance"))
        model = _build_moment_model(_require(spec, "model", "instance"))
        theta0 = _numbers(spec, "theta0", "instance")
        if theta0.shape != (model.p,):
            raise ConfigInvalid(
                f"instance field 'theta0' must hold p = {model.p} numbers, got {theta0.shape[0]}"
            )
        return GmmInstance(name="custom", dist=dist, model=model, theta0=theta0)
    if kind == "iv":
        _check_keys(spec, {"kind", "distribution", "model"}, "instance")
        dist = _build_distribution(_require(spec, "distribution", "instance"))
        model_spec = _require(spec, "model", "instance")
        if not isinstance(model_spec, dict):
            raise ConfigInvalid("model must be an object")
        _check_keys(model_spec, {"beta0", "sigma0_sq", "dims"}, "instance.model")
        try:
            model = IVModel(
                beta0=_numbers(model_spec, "beta0", "instance.model"),
                sigma0_sq=_number(model_spec, "sigma0_sq", "instance.model"),
                dims=_dims(model_spec, "instance.model"),
            )
        except ValueError as exc:  # sigma0_sq not positive
            raise ConfigInvalid(f"bad instance.model: {exc}") from None
        return IvInstance(name="custom", dist=dist, model=model)
    raise ConfigInvalid(f"unknown instance kind {kind!r}")


def _number(spec: dict, key: str, where: str) -> float:
    value = _require(spec, key, where)
    if not _is_number(value):
        raise ConfigInvalid(f"{where} field {key!r} must be a JSON number, got {value!r}")
    return float(value)


def _dims(spec: dict, where: str) -> tuple[int, int, int]:
    """The model's block sizes (k1, k2, q), which must be three JSON integers."""
    dims = _require(spec, "dims", where)
    if not (isinstance(dims, list) and len(dims) == 3 and all(_is_number(d, int) for d in dims)):
        raise ConfigInvalid(f"{where} field 'dims' must be three JSON integers, got {dims!r}")
    return tuple(dims)


def _support_rows(spec: dict) -> list[list]:
    """The support as rows: it must be an array of numbers (one coordinate
    each) or of arrays of numbers, all of one length."""
    support = _require(spec, "support", "distribution")
    if isinstance(support, list):
        rows = [row if isinstance(row, list) else [row] for row in support]
        if len({len(row) for row in rows}) <= 1 and all(_is_number(v) for row in rows for v in row):
            return rows
    raise ConfigInvalid(
        "distribution field 'support' must be an array of numbers or of arrays of numbers"
        " of one length"
    )


def _build_distribution(spec):
    if not isinstance(spec, dict):
        raise ConfigInvalid("distribution must be an object")
    _check_keys(spec, {"support", "probs"}, "distribution")
    rows, probs = _support_rows(spec), _numbers(spec, "probs", "distribution")
    try:
        return make_distribution(rows, probs)
    except (AsymlabError, ValueError) as exc:
        raise ConfigInvalid(f"bad distribution: {exc}") from None


def _build_moment_model(spec):
    if not isinstance(spec, dict):
        raise ConfigInvalid("model must be an object")
    name = _require(spec, "name", "instance.model")
    if name == "overidentified_mean":
        _check_keys(spec, {"name", "v"}, "instance.model")
        return overidentified_mean_model(_number(spec, "v", "instance.model"))
    if name == "linear_iv_moments":
        _check_keys(spec, {"name", "dims"}, "instance.model")
        return linear_iv_moment_model(_dims(spec, "instance.model"))
    raise ConfigInvalid(f"unknown model {name!r}; catalog: overidentified_mean, linear_iv_moments")


def build_instance_and_score(raw: dict) -> tuple[Instance, ScoreFunction]:
    raw = validate_raw(raw)
    instance = build_instance(raw["instance"])
    score = resolve_score(instance, raw["score"])
    return instance, score


def build_experiment(raw: dict) -> ExperimentConfig:
    instance, score = build_instance_and_score(raw)
    for key in _RUN_KEYS:
        _require(raw, key, "config")
    estimators, tests, alpha = prediction_fields(raw)
    return ExperimentConfig(
        instance=instance,
        score=score,
        n=raw["n"],
        reps=raw["reps"],
        alpha=alpha,
        master_seed=raw["seed"],
        estimators=tuple(estimators),
        tests=tuple(tests),
    )


def prediction_fields(raw: dict) -> tuple[list[str], list[str], float]:
    """(estimators, tests, alpha) for the prediction and run commands: arrays
    of distinct names, and 0 < alpha < 1."""
    for key in ("alpha", "estimators", "tests"):
        _require(raw, key, "config")
    for key in ("estimators", "tests"):
        names = raw[key]
        strings = isinstance(names, list) and all(isinstance(name, str) for name in names)
        if not strings or len(set(names)) < len(names):
            raise ConfigInvalid(f"{key} must be an array of distinct names, got {names!r}")
    alpha = float(raw["alpha"])
    if not 0.0 < alpha < 1.0:
        raise ConfigInvalid(f"need 0 < alpha < 1, got {alpha}")
    return list(raw["estimators"]), list(raw["tests"]), alpha
