"""Voter populations and alternative spaces: validation, sampling, gaps.

Population specs are point masses, diagonal Gaussians, or finite
mixtures of diagonal Gaussians; alternative spaces are uniform boxes,
diagonal Gaussians, or explicit slates. Each spec validates itself on
construction (raising ConfigError) and carries its dimension ``dim`` and
its sampler ``sample(rng, n)``, an (n, dim) array; population specs also
carry their analytic mean ``expected_theta()``. Sampling uses numpy's
counter-based Philox generator so identical (spec, n, seed) triples
reproduce bitwise identical draws.
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
    "sample_voters",
    "seeded_rng",
    "sample_alternatives",
    "population_mean_gap",
    "empirical_unanimous_gap",
]

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PointMass:
    """Every voter has the preference vector theta."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", feature_vector(self.theta))

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    def expected_theta(self) -> np.ndarray:
        return np.array(self.theta)

    def sample(self, rng, n: int) -> np.ndarray:
        return np.tile(self.theta, (n, 1))


@dataclass(frozen=True)
class _Gaussian:
    """Diagonal Gaussian N(mean, diag(var)); var may hold zeros."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", feature_vector(self.mean))
        object.__setattr__(self, "var", feature_vector(self.var))
        if self.mean.shape != self.var.shape:
            raise ConfigError("gaussian mean and variance dimensions differ")
        if np.any(self.var < 0):
            raise ConfigError("gaussian variance entries must be >= 0")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng, n: int) -> np.ndarray:
        return self.mean + np.sqrt(self.var) * rng.standard_normal((n, self.dim))


class DiagonalGaussian(_Gaussian):
    """Voter population N(mean, diag(var))."""

    def expected_theta(self) -> np.ndarray:
        return np.array(self.mean)


class GaussianSpace(_Gaussian):
    """Alternative space N(mean, diag(var))."""


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
        if not comps:
            raise ConfigError("mixture needs at least one component")
        total = 0.0
        for w, mu, var in comps:
            if w <= 0:
                raise ConfigError("mixture weights must be positive")
            if mu.shape[0] != self.dim or var.shape[0] != self.dim:
                raise ConfigError("mixture component dimensions differ")
            if np.any(var < 0):
                raise ConfigError("mixture variance entries must be >= 0")
            total += w
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"mixture weights sum to {total}, expected 1")

    @property
    def dim(self) -> int:
        return self.components[0][1].shape[0]

    def expected_theta(self) -> np.ndarray:
        mean = np.zeros(self.dim)
        for w, mu, _ in self.components:
            mean += w * mu
        return mean

    def sample(self, rng, n: int) -> np.ndarray:
        weights = np.array([w for w, _, _ in self.components])
        comp = rng.choice(len(self.components), size=n, p=weights)
        noise = rng.standard_normal((n, self.dim))
        means = np.stack([mu for _, mu, _ in self.components])
        stds = np.sqrt(np.stack([var for _, _, var in self.components]))
        return means[comp] + stds[comp] * noise


@dataclass(frozen=True)
class UniformBox:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", feature_vector(self.lo))
        object.__setattr__(self, "hi", feature_vector(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ConfigError("box lo and hi dimensions differ")
        if np.any(self.lo > self.hi):
            raise ConfigError("box requires lo <= hi coordinatewise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def sample(self, rng, n: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.random((n, self.dim))


@dataclass(frozen=True)
class ExplicitSlate:
    """A fixed slate: returned in order when n equals its size (sampling
    without replacement), sampled with replacement otherwise."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(feature_vector(p) for p in self.points))
        if not self.points:
            raise ConfigError("explicit slate must be non-empty")
        if any(p.shape[0] != self.dim for p in self.points):
            raise ConfigError("explicit slate has inconsistent dimensions")

    @property
    def dim(self) -> int:
        return self.points[0].shape[0]

    def sample(self, rng, n: int) -> np.ndarray:
        points = np.stack(self.points)
        if n == len(self.points):
            return points
        return points[rng.integers(0, len(self.points), size=n)]


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
    if n < 1:
        raise ConfigError("need at least one voter")
    thetas = spec.sample(seeded_rng(seed), n)
    return [VoterParams(voter_id=i, theta=thetas[i]) for i in range(n)]


def sample_alternatives(spec, m: int, seed: int) -> list[np.ndarray]:
    """Draw m alternatives from the space, deterministic given seed."""
    if m < 1:
        raise ConfigError("need at least one alternative")
    pts = spec.sample(seeded_rng(seed), m)
    return [pts[i] for i in range(m)]


def population_mean_gap(spec, a: np.ndarray, a_prime: np.ndarray) -> float:
    """Analytic expected reward gap E_theta[<theta, a - a'>]."""
    a = np.asarray(a, dtype=np.float64)
    a_prime = np.asarray(a_prime, dtype=np.float64)
    if a.shape != a_prime.shape:
        raise InputError("alternatives have mismatched dimensions")
    mean = spec.expected_theta()
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
