"""Voter populations and alternative spaces: validation and sampling.

A voter population is a diagonal Gaussian, or a finite mixture of them
whose components are each checked as one; a point mass is the
zero-variance diagonal Gaussian. Alternative spaces are uniform boxes,
diagonal Gaussians, or explicit slates. Each spec validates itself on
construction (raising ConfigError) and carries its dimension ``dim`` and
its sampler ``sample(rng, n)``, an (n, dim) array; population specs also
carry their analytic mean ``expected_theta()``. ``sample_voters`` wraps
one population draw in a ``Voters``. Sampling uses numpy's counter-based
Philox generator so identical (spec, n, seed) triples reproduce bitwise
identical draws.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .model import Voters, _points, feature_vector, slate_array

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
]

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DiagonalGaussian:
    """Voter population N(mean, diag(var)); a zero variance fixes that coordinate."""

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

    def expected_theta(self) -> np.ndarray:
        return np.array(self.mean)

    def sample(self, rng, n: int) -> np.ndarray:
        return self.mean + np.sqrt(self.var) * rng.standard_normal((n, self.dim))


def PointMass(theta) -> DiagonalGaussian:
    """Every voter has the preference vector theta: the zero-variance Gaussian at theta."""
    theta = feature_vector(theta)
    return DiagonalGaussian(theta, np.zeros_like(theta))


class GaussianSpace(DiagonalGaussian):
    """Alternative space N(mean, diag(var)), with var > 0 on some coordinate."""

    def __post_init__(self):
        super().__post_init__()
        if not np.any(self.var > 0):  # every alternative would be the mean, and every audit vacuous
            raise ConfigError("var: need a positive entry, got 0 on every coordinate")


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of diagonal Gaussians: ((weight, mean, var), ...), each
    component checked as a ``DiagonalGaussian``."""

    components: tuple

    def __post_init__(self):
        gaussians = [(float(w), DiagonalGaussian(mu, var)) for w, mu, var in self.components]
        comps = tuple((w, g.mean, g.var) for w, g in gaussians)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ConfigError("mixture needs at least one component")
        if any(g.dim != self.dim for _, g in gaussians):
            raise ConfigError("mixture component dimensions differ")
        if not all(w > 0 for w, _ in gaussians):
            raise ConfigError("mixture weights must be positive")
        total = sum(w for w, _ in gaussians)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ConfigError(f"mixture weights sum to {total}, expected 1")

    @property
    def dim(self) -> int:
        return self.components[0][1].shape[0]

    def expected_theta(self) -> np.ndarray:
        return sum(w * mu for w, mu, _ in self.components)

    def sample(self, rng, n: int) -> np.ndarray:
        # drawn even for one component, so a one-component mixture keeps its stream
        weights = np.array([w for w, _, _ in self.components])
        comp = rng.choice(len(self.components), size=n, p=weights)
        noise = rng.standard_normal((n, self.dim))
        means = np.stack([mu for _, mu, _ in self.components])
        stds = np.sqrt(np.stack([var for _, _, var in self.components]))
        return means[comp] + stds[comp] * noise


@dataclass(frozen=True)
class UniformBox:
    """Uniform on [lo, hi], with lo < hi on some coordinate."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", feature_vector(self.lo))
        object.__setattr__(self, "hi", feature_vector(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ConfigError("box lo and hi dimensions differ")
        if np.any(self.lo > self.hi):
            raise ConfigError("box requires lo <= hi coordinatewise")
        if np.all(self.lo == self.hi):  # every alternative would be the same, and every audit vacuous
            raise ConfigError("hi: need hi > lo on some coordinate, got hi == lo on every coordinate")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def sample(self, rng, n: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.random((n, self.dim))


@dataclass(frozen=True)
class ExplicitSlate:
    """A fixed slate of at least 2 distinct points: returned in order when n
    equals its size (sampling without replacement), sampled with
    replacement otherwise."""

    points: np.ndarray  # read-only (n, d)

    def __post_init__(self):
        object.__setattr__(self, "points", points := _points("slate", self.points, 1))
        # by value, so 0.0 equals -0.0; np.unique would import numpy.ma
        if (points == points[0]).all():  # every alternative would be the same, and every audit vacuous
            raise ConfigError("points: need at least 2 distinct points, got 1")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def sample(self, rng, n: int) -> np.ndarray:
        if n == len(self.points):
            return self.points
        return self.points[rng.integers(0, len(self.points), size=n)]


def seeded_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by seed, an integer in [0, 2**128)."""
    try:
        key = operator.index(seed)
    except TypeError:
        raise InputError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= key < 2**128:
        raise InputError(f"seed must be in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=key))


def sample_voters(spec, n: int, seed: int) -> Voters:
    """Draw n i.i.d. voters from the population, with ids 0..n-1."""
    if n < 1:
        raise ConfigError("need at least one voter")
    return Voters(np.arange(n), spec.sample(seeded_rng(seed), n))


def sample_alternatives(spec, m: int, seed: int) -> np.ndarray:
    """Draw m >= 2 alternatives from the space as a ``slate_array``, deterministic given seed."""
    return slate_array(spec.sample(seeded_rng(seed), m))
