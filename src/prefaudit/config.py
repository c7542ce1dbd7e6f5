"""Experiment configuration: JSON file format, validation, defaults.

The config file is JSON. Every unspecified field is filled from the
documented defaults and echoed back into the run manifest, so a run
carries no hidden state. Every object is checked against the fields it
takes (a kind-tagged one against the fields of its kind), so an unknown
key or a value of the wrong JSON type is an error, not a silently
ignored setting. Validation errors name the offending field path; parse
errors carry the line number from the JSON decoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
from .errors import ConfigError, InputError
from .population import (
    DiagonalGaussian,
    ExplicitSlate,
    GaussianSpace,
    Mixture,
    PointMass,
    UniformBox,
)

__all__ = ["ExperimentConfig", "load_config"]

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


class NoDefault:
    """A field without a default: its value must have the JSON type of one
    of ``examples``. An optional one is left out of the echo when absent."""

    def __init__(self, *examples, required=True):
        self.examples = examples
        self.required = required


# Stands for a kind-tagged object: its fields depend on its kind, and
# are checked when it is built.
KIND_TAGGED = {"kind": ""}
VECTOR = NoDefault([0.0])
BOUND = NoDefault(0.0, [0.0])  # a vector, or one number for every coordinate

# Every top-level field: the DEFAULTS sections and the fields without one.
FIELDS = {
    "dimension": NoDefault(1),
    "seed": NoDefault(1),
    "population": NoDefault(KIND_TAGGED),
    "alternatives": NoDefault(KIND_TAGGED),
    "output_dir": NoDefault("", required=False),
    **DEFAULTS,
}


def _mixture(components) -> Mixture:
    return Mixture(tuple((c["weight"], c["mean"], c["var"]) for c in components))


# One table per kind-tagged section: kind -> (the fields it takes, the
# constructor they are passed to).
POPULATION_KINDS = {
    "point-mass": ({"theta": VECTOR}, PointMass),
    "gaussian": ({"mean": VECTOR, "var": VECTOR}, DiagonalGaussian),
    "mixture": (
        {"components": NoDefault([{"weight": NoDefault(0.0), "mean": VECTOR, "var": VECTOR}])},
        _mixture,
    ),
}
ALTERNATIVE_KINDS = {
    "uniform-box": ({"lo": BOUND, "hi": BOUND}, UniformBox),
    "gaussian": ({"mean": VECTOR, "var": VECTOR}, GaussianSpace),
    "explicit-slate": ({"points": NoDefault([[0.0]])}, ExplicitSlate),
}
PAIR_KINDS = {
    "round-robin": ({"repeats": 1}, RoundRobin),
    "uniform-random": ({"count": NoDefault(1)}, UniformRandomPairs),
}
LABEL_KINDS = {
    "true-reward": ({}, TrueRewardLabels),
    "proxy": ({"w": VECTOR}, ProxyLabels),
}

_TYPE_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object"}


def _type_name(example) -> str:
    if isinstance(example, list):
        return f"array of {_type_name(example[0])}"
    return _TYPE_NAMES[type(example)]


def _typed(value, example, path: str):
    """``value``, checked to have the JSON type of ``example``.

    An integer passes for a number; a list example types every item by its
    first item; a dict example is a field table, or KIND_TAGGED.
    """
    examples = example.examples if isinstance(example, NoDefault) else (example,)
    for ex in examples:
        if isinstance(ex, dict):
            return value if "kind" in ex else _fields(value, ex, path)
        if isinstance(ex, list) and isinstance(value, list):
            return [_typed(v, ex[0], f"{path}[{k}]") for k, v in enumerate(value)]
        if type(value) is type(ex) or (type(ex) is float and type(value) is int):
            return value
    expected = " or ".join(_type_name(ex) for ex in examples)
    raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _fields(given, fields: dict, path: str, what: str = "") -> dict:
    """The object ``given`` with its fields typed and its defaults filled in.

    ``fields`` maps each field the object takes to its default or to a
    NoDefault; a default that is itself a field table is filled in
    recursively. A key the object does not take is a typo and raises
    ConfigError naming its path.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    for key in given:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field{what}")
    out = {}
    for key, default in fields.items():
        if isinstance(default, NoDefault) and key not in given:
            if default.required:
                raise ConfigError(f"{path}.{key}: missing required field")
        else:  # a default passes its own check, which fills in nested tables
            out[key] = _typed(given.get(key, default), default, f"{path}.{key}")
    return out


def _make(path: str, make, **args):
    """``make(**args)``, with a validation error raised as a ConfigError naming
    ``path``, or ``path.<field>`` when the message starts with ``<field>: ``."""
    try:
        return make(**args)
    except (ConfigError, InputError) as e:
        field, sep, rest = str(e).partition(": ")
        if sep and field in args:
            raise ConfigError(f"{path}.{field}: {rest}") from None
        raise ConfigError(f"{path}: {e}") from None


def _build(given, kinds: dict, path: str, what: str, dim: int | None = None):
    """(spec, echo) for a kind-tagged object, built by the table ``kinds``.

    The echo holds the kind's fields only, defaults filled in. A number
    given for a BOUND field is repeated to the experiment dimension
    ``dim``; when ``dim`` is given, the spec's dimension must equal it.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    if "kind" not in given:
        raise ConfigError(f"{path}.kind: missing required field")
    kind = given["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind: unknown {what} {kind!r}")
    fields, make = kinds[kind]
    checked = _fields(given, {"kind": kind, **fields}, path, f" for {what} {kind!r}")
    args = {
        k: [v] * dim if fields[k] is BOUND and not isinstance(v, list) else v
        for k, v in checked.items()
        if k != "kind"
    }
    spec = _make(path, make, **args)
    if dim is not None and spec.dim != dim:
        raise ConfigError(f"{path}: dimension {spec.dim} != experiment dimension {dim}")
    return spec, checked


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "seed" not in raw:
        raise ConfigError("config.seed: missing required field (no implicit entropy)")
    full = _fields(raw, FIELDS, "config")
    dim = full["dimension"]
    for key, least in (("dimension", 1), ("num_voters", 1), ("num_alternatives", 2)):
        if full[key] < least:
            raise ConfigError(f"config.{key}: must be >= {least}, got {full[key]}")

    population, full["population"] = _build(
        full["population"], POPULATION_KINDS, "config.population", "population kind", dim
    )
    alternatives, full["alternatives"] = _build(
        full["alternatives"], ALTERNATIVE_KINDS, "config.alternatives", "alternative space kind", dim
    )
    ann = full["annotation"]
    pair_scheme, ann["pairs"] = _build(ann["pairs"], PAIR_KINDS, "config.annotation.pairs", "pair scheme")
    assignment = ann["assignment"]
    if assignment not in (EACH_PAIR_RANDOM_VOTER, PARTITION_BY_VOTER):
        raise ConfigError(f"config.annotation.assignment: unknown scheme {assignment!r}")
    label_scheme, ann["labels"] = _build(
        ann["labels"], LABEL_KINDS, "config.annotation.labels", "label scheme"
    )
    if label_scheme.w is not None and len(label_scheme.w) != dim:
        raise ConfigError(
            f"config.annotation.labels.w: length {len(label_scheme.w)} != experiment dimension {dim}"
        )

    est = full["estimation"]
    for key, ok, rule in (
        ("lambda", math.isfinite(est["lambda"]) and est["lambda"] >= 0, "finite and >= 0"),
        ("grad_tol", math.isfinite(est["grad_tol"]) and est["grad_tol"] > 0, "finite and > 0"),
        ("max_iters", est["max_iters"] >= 1, ">= 1"),
    ):
        if not ok:
            raise ConfigError(f"config.estimation.{key}: must be {rule}, got {est[key]!r}")
    aud = full["audit"]
    if not aud["epsilons"]:
        raise ConfigError("config.audit.epsilons: need at least one entry")
    if not all(math.isfinite(e) and e >= 0 for e in aud["epsilons"]):
        raise ConfigError("config.audit.epsilons: entries must be finite and >= 0")
    cons = aud["consistency"]
    consistency = _make(
        "config.audit.consistency", ConsistencyScheme, num_blocks=cons["blocks"],
        min_fraction=float(cons["min_fraction"]), num_partitions=cons["partitions"],
    )
    dist = full["distortion"]
    if not dist["delta"] >= 0:  # NaN too
        raise ConfigError(f"config.distortion.delta: must be >= 0, got {dist['delta']!r}")
    search = _make(
        "config.distortion", SearchSpec, grid_resolution=dist["grid_resolution"],
        bound=float(dist["bound"]), w_mode=dist["w_mode"], w_lo=float(dist["w_lo"]),
        w_hi=float(dist["w_hi"]), random_samples=dist["random_samples"],
    )

    return ExperimentConfig(
        dimension=dim,
        seed=full["seed"],
        population=population,
        alternatives=alternatives,
        num_voters=full["num_voters"],
        num_alternatives=full["num_alternatives"],
        pair_scheme=pair_scheme,
        assignment=assignment,
        label_scheme=label_scheme,
        lam=float(est["lambda"]),
        grad_tol=float(est["grad_tol"]),
        max_iters=est["max_iters"],
        epsilons=tuple(float(e) for e in aud["epsilons"]),
        consistency=consistency,
        distortion_enabled=dist["enabled"],
        delta=float(dist["delta"]),
        search=search,
        raw=full,
    )


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config from disk."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: {e.msg}") from None
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {e}") from None
    return config_from_dict(raw)
