"""Voter populations and alternative spaces: validation, sampling, gaps.

Population specs are point masses, diagonal Gaussians, or finite
mixtures of diagonal Gaussians. Sampling uses numpy's counter-based
Philox generator so identical (spec, n, seed) triples reproduce bitwise
identical draws.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .model import VoterParams, feature_vector

__all__ = [
    "PointMass",
    "DiagonalGaussian",
    "Mixture",
    "UniformBox",
    "GaussianSpace",
    "ExplicitSlate",
    "validate_population",
    "population_dim",
    "population_mean",
    "sample_voters",
    "seeded_rng",
    "validate_alternative_space",
    "alternative_space_dim",
    "sample_alternatives",
    "population_mean_gap",
    "empirical_unanimous_gap",
]

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PointMass:
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", feature_vector(self.theta))


@dataclass(frozen=True)
class DiagonalGaussian:
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", feature_vector(self.mean))
        object.__setattr__(self, "var", feature_vector(self.var))


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of diagonal Gaussians: ((weight, mean, var), ...)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(
            (float(w), feature_vector(mu), feature_vector(var))
            for (w, mu, var) in self.components
        )
        object.__setattr__(self, "components", comps)


def validate_population(spec) -> None:
    if isinstance(spec, PointMass):
        return
    if isinstance(spec, DiagonalGaussian):
        if spec.mean.shape != spec.var.shape:
            raise ConfigError("gaussian mean and variance dimensions differ")
        if np.any(spec.var < 0):
            raise ConfigError("gaussian variance entries must be >= 0")
        return
    if isinstance(spec, Mixture):
        if not spec.components:
            raise ConfigError("mixture needs at least one component")
        d = spec.components[0][1].shape[0]
        total = 0.0
        for w, mu, var in spec.components:
            if w <= 0:
                raise ConfigError("mixture weights must be positive")
            if mu.shape[0] != d or var.shape[0] != d:
                raise ConfigError("mixture component dimensions differ")
            if np.any(var < 0):
                raise ConfigError("mixture variance entries must be >= 0")
            total += w
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"mixture weights sum to {total}, expected 1")
        return
    raise ConfigError(f"unknown population spec {type(spec).__name__}")


def population_dim(spec) -> int:
    if isinstance(spec, PointMass):
        return spec.theta.shape[0]
    if isinstance(spec, DiagonalGaussian):
        return spec.mean.shape[0]
    if isinstance(spec, Mixture):
        return spec.components[0][1].shape[0]
    raise ConfigError(f"unknown population spec {type(spec).__name__}")


def population_mean(spec) -> np.ndarray:
    """Analytic E[theta] of the population (exact, not Monte-Carlo)."""
    validate_population(spec)
    if isinstance(spec, PointMass):
        return np.array(spec.theta)
    if isinstance(spec, DiagonalGaussian):
        return np.array(spec.mean)
    mean = np.zeros(population_dim(spec))
    for w, mu, _ in spec.components:
        mean += w * mu
    return mean


def seeded_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by seed, an integer in [0, 2**128)."""
    try:
        key = operator.index(seed)
    except TypeError:
        raise InputError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= key < 2**128:
        raise InputError(f"seed must be in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=key))


def sample_voters(spec, n: int, seed: int) -> list[VoterParams]:
    """Draw n i.i.d. voters from the population; voter ids are 0..n-1."""
    validate_population(spec)
    if n < 1:
        raise ConfigError("need at least one voter")
    rng = seeded_rng(seed)
    d = population_dim(spec)
    if isinstance(spec, PointMass):
        thetas = np.tile(spec.theta, (n, 1))
    elif isinstance(spec, DiagonalGaussian):
        thetas = spec.mean + np.sqrt(spec.var) * rng.standard_normal((n, d))
    else:
        weights = np.array([w for w, _, _ in spec.components])
        comp = rng.choice(len(spec.components), size=n, p=weights)
        noise = rng.standard_normal((n, d))
        means = np.stack([mu for _, mu, _ in spec.components])
        stds = np.sqrt(np.stack([var for _, _, var in spec.components]))
        thetas = means[comp] + stds[comp] * noise
    return [VoterParams(voter_id=i, theta=thetas[i]) for i in range(n)]


@dataclass(frozen=True)
class UniformBox:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", feature_vector(self.lo))
        object.__setattr__(self, "hi", feature_vector(self.hi))


@dataclass(frozen=True)
class GaussianSpace:
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", feature_vector(self.mean))
        object.__setattr__(self, "var", feature_vector(self.var))


@dataclass(frozen=True)
class ExplicitSlate:
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(feature_vector(p) for p in self.points))


def validate_alternative_space(spec) -> None:
    if isinstance(spec, UniformBox):
        if spec.lo.shape != spec.hi.shape:
            raise ConfigError("box lo and hi dimensions differ")
        if np.any(spec.lo > spec.hi):
            raise ConfigError("box requires lo <= hi coordinatewise")
        return
    if isinstance(spec, GaussianSpace):
        if spec.mean.shape != spec.var.shape:
            raise ConfigError("gaussian mean and variance dimensions differ")
        if np.any(spec.var < 0):
            raise ConfigError("gaussian variance entries must be >= 0")
        return
    if isinstance(spec, ExplicitSlate):
        if not spec.points:
            raise ConfigError("explicit slate must be non-empty")
        d = spec.points[0].shape[0]
        if any(p.shape[0] != d for p in spec.points):
            raise ConfigError("explicit slate has inconsistent dimensions")
        return
    raise ConfigError(f"unknown alternative space spec {type(spec).__name__}")


def alternative_space_dim(spec) -> int:
    if isinstance(spec, (UniformBox, GaussianSpace)):
        return spec.lo.shape[0] if isinstance(spec, UniformBox) else spec.mean.shape[0]
    if isinstance(spec, ExplicitSlate):
        return spec.points[0].shape[0]
    raise ConfigError(f"unknown alternative space spec {type(spec).__name__}")


def sample_alternatives(spec, m: int, seed: int) -> list[np.ndarray]:
    """Draw m alternatives from the space, deterministic given seed.

    Explicit slates are returned in order when m equals the slate size
    (sampling without replacement), and sampled with replacement
    otherwise.
    """
    validate_alternative_space(spec)
    if m < 1:
        raise ConfigError("need at least one alternative")
    rng = seeded_rng(seed)
    if isinstance(spec, ExplicitSlate):
        if m == len(spec.points):
            return [np.array(p) for p in spec.points]
        idx = rng.integers(0, len(spec.points), size=m)
        return [np.array(spec.points[i]) for i in idx]
    d = alternative_space_dim(spec)
    if isinstance(spec, UniformBox):
        pts = spec.lo + (spec.hi - spec.lo) * rng.random((m, d))
    else:
        pts = spec.mean + np.sqrt(spec.var) * rng.standard_normal((m, d))
    return [pts[i] for i in range(m)]


def population_mean_gap(spec, a: np.ndarray, a_prime: np.ndarray) -> float:
    """Analytic expected reward gap E_theta[<theta, a - a'>]."""
    a = np.asarray(a, dtype=np.float64)
    a_prime = np.asarray(a_prime, dtype=np.float64)
    if a.shape != a_prime.shape:
        raise InputError("alternatives have mismatched dimensions")
    mean = population_mean(spec)
    if mean.shape != a.shape:
        raise InputError("alternative dimension differs from population dimension")
    return float(mean @ (a - a_prime))


def empirical_unanimous_gap(voters, a: np.ndarray, a_prime: np.ndarray) -> float:
    """Minimum reward gap min_i <theta_i, a - a'> over the given voters."""
    if not voters:
        raise InputError("empirical unanimous gap needs at least one voter")
    a = np.asarray(a, dtype=np.float64)
    a_prime = np.asarray(a_prime, dtype=np.float64)
    if a.shape != a_prime.shape:
        raise InputError("alternatives have mismatched dimensions")
    delta = a - a_prime
    gaps = [float(v.theta @ delta) for v in voters]
    return min(gaps)
