"""Experiment configuration: a fail-closed JSON schema and problem assembly.

Configs are single JSON objects.  Unknown fields are rejected everywhere (a
typo in a math-heavy config should be an error, not a silent default), and
algorithm-specific required fields are checked before any computation runs.
Every object is read by `_parse`: a missing field, a value its coercer refuses
or one its constructor rejects raises ConfigInvalid naming the field.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .descent import mirror_descent_problem, mirror_prox_problem, newton_problem
from .domains import MEMBERSHIP_TOL, AffineSlice, Box, EuclideanBall, FullSpace, Simplex
from .errors import SurroError
from .latent import (
    GaussianLatentModel, TwoComponentMixture, alpha_em_problem, draw_data, em_population_problem
)
from .mirror_maps import BallMap, NegEntropyMap, QuadraticMap
from .objectives import Quartic1D, QuadraticForm, ShiftedQuadratic, SmoothLogSumExp
from .rates import REFERENCE_TOL
from .rng import CounterRNG
from .surrogate import StopRule, SurrogateProblem


class ConfigInvalid(Exception):
    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _check(accept: Callable, what: str, convert: Callable | None = None) -> Callable:
    """Coercer returning the value (or convert(value)) when accept(value) holds."""
    def coerce(value):
        if accept(value):
            return value if convert is None else convert(value)
        raise ValueError(f"must be {what}")
    return coerce


_is_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
_is_number = lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v)
_int_list = lambda v, least: isinstance(v, list) and bool(v) and all(
    _is_int(k) and k >= least for k in v)
_int = _check(_is_int, "an integer")
_count = _check(lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_seed = _check(lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_float = _check(_is_number, "a finite number", float)
_positive = _check(lambda v: _is_number(v) and v > 0, "a positive number", float)
_ks = _check(lambda v: _int_list(v, 1) and v == sorted(v),
             "ascending integers >= 1 in a nonempty list")
_seeds = _check(lambda v: _int_list(v, 0), "a nonempty list of integers >= 0")


def _array(ndim: int, what: str) -> Callable:
    def coerce(value) -> np.ndarray:
        try:
            a = np.asarray(value)
            # object dtype holds integers beyond int64 as well as non-numbers
            a = a.astype(float) if a.dtype.kind in "iufO" else None
        except (TypeError, ValueError, OverflowError):
            a = None
        if a is None or a.ndim != ndim or a.size == 0 or not np.all(np.isfinite(a)):
            raise ValueError(f"must be a nonempty finite numeric {what}")
        return a
    return coerce


_vector, _matrix = _array(1, "vector"), _array(2, "matrix")


class _Schema(NamedTuple):
    make: Callable
    fields: dict[str, Callable]  # field -> coercer
    required: tuple[str, ...] = ()


# ConfigInvalid stays outside: a nested field's rejection must keep its own name
_REJECTED = (ValueError, ArithmeticError, SurroError)


def _require_keys(obj: dict, allowed: set[str], context: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigInvalid(f"unknown field {unknown[0]!r} in {context}", field=unknown[0])


def _field(spec: dict, key: str, coerce: Callable, context: str, default=...):
    """Coerce spec[key], or the JSON default when key is absent; errors name key."""
    if key not in spec and default is ...:
        raise ConfigInvalid(f"{context} requires field {key}", field=key)
    try:
        return coerce(spec.get(key, default))
    except (ValueError, ArithmeticError) as exc:
        raise ConfigInvalid(f"{context}.{key} {exc}", field=key) from exc


def _call(make: Callable, field: str, *args, **kwargs):
    """Run a constructor; its rejection of the values raises ConfigInvalid naming field."""
    try:
        return make(*args, **kwargs)
    except _REJECTED as exc:
        raise ConfigInvalid(f"invalid {field}: {exc}", field=field) from exc


def _parse(spec, schema: _Schema, context: str, *args):
    """Check spec against schema, coerce its fields, then call make(*args, **fields)."""
    if not isinstance(spec, dict):
        raise ConfigInvalid(f"{context} must be a JSON object", field=context)
    _require_keys(spec, set(schema.fields), context)
    values = {key: _field(spec, key, coerce, context) for key, coerce in schema.fields.items()
              if key in spec or key in schema.required}
    return _call(schema.make, context, *args, **values)


def _build(spec, table: dict[str, _Schema], context: str, *args):
    """Construct the member of a typed kind that spec's 'type' selects."""
    if not isinstance(spec, dict) or not isinstance(spec.get("type"), str):
        raise ConfigInvalid(f"{context} must be an object with a 'type' field", field=context)
    if spec["type"] not in table:
        raise ConfigInvalid(f"unknown {context} type {spec['type']!r}", field="type")
    rest = {key: value for key, value in spec.items() if key != "type"}
    return _parse(rest, table[spec["type"]], context, *args)


_OBJECTIVES = {
    "quadratic_form": _Schema(QuadraticForm, {"h": _matrix, "c": _vector}, ("h",)),
    "shifted_quadratic": _Schema(ShiftedQuadratic, {"target": _vector}, ("target",)),
    "log_sum_exp": _Schema(SmoothLogSumExp, {"q": _count, "scale": _float}, ("q",)),
    "quartic_1d": _Schema(Quartic1D, {}),
}
_MIRROR_MAPS = {  # constructed with the objective's dimension first
    "quadratic": _Schema(QuadraticMap, {}),
    "neg_entropy": _Schema(NegEntropyMap, {}),
    "ball": _Schema(BallMap, {"r2": _float}, ("r2",)),
}
_DOMAINS = {
    "full_space": _Schema(FullSpace, {"q": _count}, ("q",)),
    "box": _Schema(Box, {"lower": _vector, "upper": _vector}, ("lower", "upper")),
    "ball": _Schema(EuclideanBall, {"center": _vector, "radius": _float}, ("center", "radius")),
    "simplex": _Schema(Simplex, {"q": _count, "face_eps": _float}, ("q",)),
    "affine_slice": _Schema(lambda c, b, lower, upper: AffineSlice(c, b, Box(lower, upper)),
                            dict(c=_matrix, b=_vector, lower=_vector, upper=_vector),
                            ("c", "b", "lower", "upper")),
}
_GAUSSIAN = ("sigma_x2", "sigma_y2", "theta_star")
_LATENT_MODELS = {
    "gaussian_latent": _Schema(GaussianLatentModel, dict.fromkeys(_GAUSSIAN, _float), _GAUSSIAN),
    "mixture": _Schema(TwoComponentMixture, {"theta_star": _float}, ("theta_star",)),
}
_STOP = _Schema(StopRule, {"max_iters": _int, "residual_tol": _float})
_DATA = _Schema(draw_data, {"k": _count, "seed": _seed}, ("k",))
_QUADRATIC_MAP = {"type": "quadratic"}  # gradient descent's mirror map


def build_latent_model(spec, context="latent_model"):
    return _build(spec, _LATENT_MODELS, context)


def _data(spec) -> Callable:
    """Coercer for data (a vector, or {"k", "seed"} to draw): model -> observations."""
    if isinstance(spec, dict):
        return lambda model: _parse(spec, _DATA, "data", model)
    observations = _vector(spec)
    return lambda model: observations


def _require_gaussian(model, algo: str) -> GaussianLatentModel:
    if not isinstance(model, GaussianLatentModel):
        raise ConfigInvalid(f"{algo} requires a gaussian_latent model", field="latent_model")
    return model


def _descent(make_problem, objective, eta, mirror_map=_QUADRATIC_MAP, domain=None):
    phi = _build(mirror_map, _MIRROR_MAPS, "mirror_map", objective.q)
    return _call(make_problem, "domain", objective, phi, eta, domain or FullSpace(objective.q))


_newton = lambda objective, domain=None: _call(newton_problem, "domain", objective, domain)
_em_population = lambda latent_model: _call(
    em_population_problem, "latent_model", _require_gaussian(latent_model, "em_population"))
_em_sample = lambda latent_model, data: _call(latent_model.sample_problem, "data",
                                              data(latent_model))


def _alpha_em(latent_model, alpha, data=None) -> SurrogateProblem:
    model = _require_gaussian(latent_model, "alpha_em")
    return _call(alpha_em_problem, "alpha", model, alpha, data if data is None else data(model))


# the coercer of each algorithm-specific field; a mirror map is built by the
# problem builder, once the objective's dimension is known
_ALGO_COERCERS = {
    "objective": lambda spec: _build(spec, _OBJECTIVES, "objective"),
    "mirror_map": lambda spec: spec,
    "domain": lambda spec: _build(spec, _DOMAINS, "domain"),
    "eta": _positive,
    "latent_model": build_latent_model,
    "data": _data,
    "alpha": _float,
}


_algorithm = lambda make, required, optional=(): _Schema(
    make, {key: _ALGO_COERCERS[key] for key in required + optional}, required)
_DESCENT = ("objective", "mirror_map", "eta", "domain")
_COMMON_FIELDS = {"name", "algorithm", "theta0", "theta_star", "stop"}
# algorithm -> schema of its own fields, whose constructor builds the problem
_ALGO_FIELDS = {
    "gradient_descent": _algorithm(partial(_descent, mirror_descent_problem),
                                   ("objective", "eta"), ("domain",)),
    "mirror_descent": _algorithm(partial(_descent, mirror_descent_problem), _DESCENT),
    "mirror_prox": _algorithm(partial(_descent, mirror_prox_problem), _DESCENT),
    "em_population": _algorithm(_em_population, ("latent_model",)),
    "em_sample": _algorithm(_em_sample, ("latent_model", "data")),
    "alpha_em": _algorithm(_alpha_em, ("latent_model", "alpha"), ("data",)),
    "newton": _algorithm(_newton, ("objective",), ("domain",)),
}
CONFIG_DIR = Path(__file__).resolve().parent / "configs"  # the bundled configs


@dataclass
class Assembled:
    name: str
    algorithm: str
    problem: SurrogateProblem
    theta0: np.ndarray
    theta_star: np.ndarray | None  # None means locate automatically
    stop: StopRule


def validate(cfg: dict) -> None:
    """Schema-check a config dict; raises ConfigInvalid naming the bad field."""
    _validated_stop(cfg)


def _validated_stop(cfg: dict) -> StopRule:
    """validate's checks, returning the config's stop rule."""
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object", field="config")
    for key in ("name", "algorithm"):
        if key not in cfg:
            raise ConfigInvalid(f"config requires field {key}", field=key)
    algo = cfg["algorithm"]
    if not isinstance(algo, str) or algo not in _ALGO_FIELDS:
        raise ConfigInvalid(f"unknown algorithm {algo!r}", field="algorithm")
    schema = _ALGO_FIELDS[algo]
    _require_keys(cfg, _COMMON_FIELDS | set(schema.fields), "config")
    for key in sorted(schema.required):
        if key not in cfg:
            raise ConfigInvalid(f"{algo} requires field {key}", field=key)
    return _parse(cfg.get("stop", {}), _STOP, "stop")


def _point(problem: SurrogateProblem, tol: float, random: bool = False) -> Callable:
    """Coercer for a vector of the problem's dimension in its domain (membership slack tol);
    with random, 'random(<seed>)' stands for a sample of the domain ('random': seed 0)."""
    def coerce(value) -> np.ndarray:
        match = random and isinstance(value, str) and re.fullmatch(r"random(?:\((\d+)\))?", value)
        v = problem.domain.sample(CounterRNG(int(match[1] or 0))) if match else _vector(value)
        if v.shape != (problem.q,) or not problem.domain.contains(v, tol=tol):
            raise ValueError(f"must be a point of the {problem.q}-dimensional domain, got {v}")
        return v
    return coerce


def assemble(cfg: dict) -> Assembled:
    """Turn a validated config into a runnable problem and its run parameters.

    Floating-point overflow raises while the problem is built, so such a config is rejected."""
    stop = _validated_stop(cfg)
    schema = _ALGO_FIELDS[cfg["algorithm"]]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        problem = _parse({k: cfg[k] for k in schema.fields if k in cfg}, schema, "config")
        theta0 = _field(cfg, "theta0", _point(problem, MEMBERSHIP_TOL, random=True), "config",
                        "random")
        near = _point(problem, REFERENCE_TOL)
        theta_star = _field(cfg, "theta_star", lambda v: None if v == "auto" else near(v), "config",
                            "auto")
    return Assembled(str(cfg["name"]), cfg["algorithm"], problem, theta0, theta_star, stop)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigInvalid(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc


_SWEEP_FIELDS = {"name": str, "model": lambda spec: build_latent_model(spec, "model"),
                 "ks": _ks, "seeds": _seeds}
_SWEEP = _Schema(lambda **fields: tuple(fields.values()), _SWEEP_FIELDS, tuple(_SWEEP_FIELDS))


def assemble_sweep(cfg: dict) -> tuple[str, object, list[int], list[int]]:
    """Check a sweep config; return its name, latent model, sample sizes and data seeds."""
    return _parse(cfg, _SWEEP, "sweep")


def validate_sweep(cfg: dict) -> None:
    """Schema-check a sweep config (bench/workloads.py calls it by this name)."""
    assemble_sweep(cfg)
