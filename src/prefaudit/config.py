"""Experiment configuration: JSON file format, validation, defaults.

The config file is JSON. Every unspecified field is filled from the
documented defaults and echoed back into the run manifest, so a run
carries no hidden state. Validation errors name the offending field
path; parse errors carry the line number from the JSON decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .annotation import (
    EACH_PAIR_RANDOM_VOTER,
    PARTITION_BY_VOTER,
    ProxyLabels,
    RoundRobin,
    TrueRewardLabels,
    UniformRandomPairs,
)
from .axioms import ConsistencyScheme
from .distortion import SearchSpec
from .errors import ConfigError
from .population import (
    DiagonalGaussian,
    ExplicitSlate,
    GaussianSpace,
    Mixture,
    PointMass,
    UniformBox,
    population_dim,
    validate_alternative_space,
    validate_population,
    alternative_space_dim,
)

__all__ = ["ExperimentConfig", "load_config", "config_defaults"]

DEFAULTS = {
    "num_voters": 50,
    "num_alternatives": 20,
    "estimation": {"lambda": 1e-3, "grad_tol": 1e-8, "max_iters": 10000},
    "audit": {
        "epsilons": [0.0, 0.1, 0.5],
        "consistency": {"blocks": 2, "min_fraction": 0.4, "partitions": 10},
    },
    "distortion": {
        "enabled": True,
        "delta": 0.5,
        "grid_resolution": 21,
        "bound": 2.0,
        "w_mode": "ones",
        "w_lo": 0.0,
        "w_hi": 2.0,
        "random_samples": 20000,
    },
    "annotation": {
        "pairs": {"kind": "round-robin", "repeats": 1},
        "assignment": EACH_PAIR_RANDOM_VOTER,
        "labels": {"kind": "true-reward"},
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    dimension: int
    seed: int
    population: object
    alternatives: object
    num_voters: int
    num_alternatives: int
    pair_scheme: object
    assignment: str
    label_scheme: object
    lam: float
    grad_tol: float
    max_iters: int
    epsilons: tuple
    consistency: ConsistencyScheme
    distortion_enabled: bool
    delta: float
    search: SearchSpec
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    def echo(self) -> dict:
        """Full config with all defaults applied, for the run manifest."""
        return self.raw


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _population_from_dict(d: dict, dim: int, path: str):
    kind = _require(d, "kind", path)
    try:
        if kind == "point-mass":
            spec = PointMass(theta=_require(d, "theta", path))
        elif kind == "gaussian":
            spec = DiagonalGaussian(
                mean=_require(d, "mean", path),
                var=_require(d, "var", path),
            )
        elif kind == "mixture":
            comps = _require(d, "components", path)
            spec = Mixture(
                components=tuple(
                    (c["weight"], c["mean"], c["var"]) for c in comps
                )
            )
        else:
            raise ConfigError(f"{path}.kind: unknown population kind {kind!r}")
        validate_population(spec)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    if population_dim(spec) != dim:
        raise ConfigError(f"{path}: dimension {population_dim(spec)} != experiment dimension {dim}")
    return spec


def _alternatives_from_dict(d: dict, dim: int, path: str):
    kind = _require(d, "kind", path)
    try:
        if kind == "uniform-box":
            lo, hi = _require(d, "lo", path), _require(d, "hi", path)
            if np.isscalar(lo):
                lo = [lo] * dim
            if np.isscalar(hi):
                hi = [hi] * dim
            spec = UniformBox(lo=lo, hi=hi)
        elif kind == "gaussian":
            spec = GaussianSpace(mean=_require(d, "mean", path), var=_require(d, "var", path))
        elif kind == "explicit-slate":
            spec = ExplicitSlate(points=tuple(_require(d, "points", path)))
        else:
            raise ConfigError(f"{path}.kind: unknown alternative space kind {kind!r}")
        validate_alternative_space(spec)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    if alternative_space_dim(spec) != dim:
        raise ConfigError(
            f"{path}: dimension {alternative_space_dim(spec)} != experiment dimension {dim}"
        )
    return spec


# Fields each kind of pair and label scheme takes, with their defaults.
REQUIRED = object()
PAIR_FIELDS = {"round-robin": {"repeats": 1}, "uniform-random": {"count": REQUIRED}}
LABEL_FIELDS = {"true-reward": {}, "proxy": {"w": REQUIRED}}


def _kind_fields(d, fields_by_kind: dict, path: str, what: str) -> dict:
    """A kind-tagged object with its kind's defaults applied.

    A key the chosen kind does not take is a typo and raises ConfigError
    naming its path; the result holds the kind's fields only.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    kind = _require(d, "kind", path)
    if not isinstance(kind, str) or kind not in fields_by_kind:
        raise ConfigError(f"{path}.kind: unknown {what} {kind!r}")
    fields = fields_by_kind[kind]
    for key in d:
        if key != "kind" and key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field for {what} {kind!r}")
    out = {"kind": kind}
    for key, default in fields.items():
        out[key] = _require(d, key, path) if default is REQUIRED else d.get(key, default)
    return out


def _pair_scheme_from_dict(d, path: str):
    """(scheme, checked fields) for an annotation.pairs object."""
    d = _kind_fields(d, PAIR_FIELDS, path, "pair scheme")
    if d["kind"] == "round-robin":
        return RoundRobin(repeats=int(d["repeats"])), d
    return UniformRandomPairs(count=int(d["count"])), d


def _label_scheme_from_dict(d, path: str):
    """(scheme, checked fields) for an annotation.labels object."""
    d = _kind_fields(d, LABEL_FIELDS, path, "label scheme")
    if d["kind"] == "true-reward":
        return TrueRewardLabels(), d
    return ProxyLabels(w=d["w"]), d


def _merged(defaults: dict, given, path: str) -> dict:
    """Fill ``given`` from ``defaults``, recursing into nested sections.

    A key the defaults do not define is a typo and raises ConfigError
    naming its path. A kind-tagged default (a pair or label scheme) is
    replaced whole, since its fields depend on its kind; they are checked
    by kind when the scheme is built.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    out = {}
    for key, val in defaults.items():
        if isinstance(val, dict) and "kind" not in val:
            out[key] = _merged(val, given.get(key, {}) or {}, f"{path}.{key}")
        else:
            out[key] = given.get(key, val)
    for key in given:
        if key not in out:
            raise ConfigError(f"{path}.{key}: unknown field")
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    dim = int(_require(raw, "dimension", "config"))
    if dim < 1:
        raise ConfigError("config.dimension: must be >= 1")
    if "seed" not in raw:
        raise ConfigError("config.seed: missing required field (no implicit entropy)")
    seed = int(raw["seed"])

    full = dict(raw)
    full["num_voters"] = int(raw.get("num_voters", DEFAULTS["num_voters"]))
    full["num_alternatives"] = int(raw.get("num_alternatives", DEFAULTS["num_alternatives"]))
    for section in ("estimation", "audit", "distortion", "annotation"):
        full[section] = _merged(DEFAULTS[section], raw.get(section, {}), f"config.{section}")

    population = _population_from_dict(_require(raw, "population", "config"), dim, "config.population")
    alternatives = _alternatives_from_dict(
        _require(raw, "alternatives", "config"), dim, "config.alternatives"
    )
    ann = full["annotation"]
    pair_scheme, ann["pairs"] = _pair_scheme_from_dict(ann["pairs"], "config.annotation.pairs")
    assignment = ann["assignment"]
    if assignment not in (EACH_PAIR_RANDOM_VOTER, PARTITION_BY_VOTER):
        raise ConfigError(f"config.annotation.assignment: unknown scheme {assignment!r}")
    label_scheme, ann["labels"] = _label_scheme_from_dict(ann["labels"], "config.annotation.labels")

    est = full["estimation"]
    if est["lambda"] < 0:
        raise ConfigError("config.estimation.lambda: must be >= 0")
    aud = full["audit"]
    if any(e < 0 for e in aud["epsilons"]):
        raise ConfigError("config.audit.epsilons: entries must be >= 0")
    cons = aud["consistency"]
    dist = full["distortion"]
    if dist["delta"] < 0:
        raise ConfigError("config.distortion.delta: must be >= 0")

    return ExperimentConfig(
        dimension=dim,
        seed=seed,
        population=population,
        alternatives=alternatives,
        num_voters=full["num_voters"],
        num_alternatives=full["num_alternatives"],
        pair_scheme=pair_scheme,
        assignment=assignment,
        label_scheme=label_scheme,
        lam=float(est["lambda"]),
        grad_tol=float(est["grad_tol"]),
        max_iters=int(est["max_iters"]),
        epsilons=tuple(float(e) for e in aud["epsilons"]),
        consistency=ConsistencyScheme(
            num_blocks=int(cons["blocks"]),
            min_fraction=float(cons["min_fraction"]),
            num_partitions=int(cons["partitions"]),
        ),
        distortion_enabled=bool(dist["enabled"]),
        delta=float(dist["delta"]),
        search=SearchSpec(
            grid_resolution=int(dist["grid_resolution"]),
            bound=float(dist["bound"]),
            w_mode=str(dist["w_mode"]),
            w_lo=float(dist["w_lo"]),
            w_hi=float(dist["w_hi"]),
            random_samples=int(dist["random_samples"]),
        ),
        raw=full,
    )


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config from disk."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: {e.msg}") from None
    return config_from_dict(raw)


def config_defaults() -> dict:
    return json.loads(json.dumps(DEFAULTS))
