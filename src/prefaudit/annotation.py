"""Pairwise annotation generation under the Bradley-Terry noise model.

Labels are drawn from btl_prob of the reward gap, where the generating
reward is either the voter's true reward or a per-feature-weighted proxy
reward modeling labeling bias. Pairs are unordered during generation and
slot order is randomized, so no position artifact enters the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError
from .model import (
    SCHEME_PROXY,
    SCHEME_TRUE,
    Dataset,
    VoterParams,
    btl_prob,
    feature_vector,
    proxy_reward,
)
from .model import reward as true_reward
from .population import seeded_rng

__all__ = [
    "TrueRewardLabels",
    "ProxyLabels",
    "UniformRandomPairs",
    "RoundRobin",
    "EACH_PAIR_RANDOM_VOTER",
    "PARTITION_BY_VOTER",
    "sample_label",
    "generate_dataset",
]

EACH_PAIR_RANDOM_VOTER = "each-pair-random-voter"
PARTITION_BY_VOTER = "partition-by-voter"


@dataclass(frozen=True)
class TrueRewardLabels:
    kind: str = SCHEME_TRUE
    w = None  # datasets of this scheme carry no weight vector

    def reward(self, theta, a) -> float:
        return true_reward(theta, a)


@dataclass(frozen=True)
class ProxyLabels:
    w: np.ndarray
    kind: str = SCHEME_PROXY

    def __post_init__(self):
        object.__setattr__(self, "w", feature_vector(self.w))

    def reward(self, theta, a) -> float:
        return proxy_reward(theta, self.w, a)


@dataclass(frozen=True)
class UniformRandomPairs:
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")

    def pairs(self, n_alts: int, rng) -> list[tuple[int, int]]:
        """count distinct-index pairs drawn uniformly, as (low, high)."""
        pairs = []
        for _ in range(self.count):
            i = int(rng.integers(0, n_alts))
            j = int(rng.integers(0, n_alts - 1))
            if j >= i:
                j += 1
            pairs.append((i, j) if i < j else (j, i))
        return pairs


@dataclass(frozen=True)
class RoundRobin:
    repeats: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")

    def pairs(self, n_alts: int, rng) -> list[tuple[int, int]]:
        """Every pair of the slate, repeats times; draws nothing."""
        return list(combinations(range(n_alts), 2)) * self.repeats


def sample_label(theta_voter: VoterParams, a0, a1, scheme, rng) -> int:
    """Draw one BTL label: 1 with probability btl_prob(r(a1), r(a0))."""
    theta = theta_voter.theta
    p1 = btl_prob(scheme.reward(theta, a1), scheme.reward(theta, a0))
    return int(rng.random() < p1)


def generate_dataset(
    voters: list[VoterParams],
    alts: list,
    pair_scheme,
    assignment: str,
    label_scheme,
    seed: int,
) -> Dataset:
    """Generate a pairwise-comparison dataset, deterministic given seed.

    Each record draws its slot order, its voter (unless assigned by
    position) and its label, in that order, one record at a time.
    """
    if len(alts) < 2:
        raise ConfigError("dataset generation needs at least 2 alternatives")
    if not voters:
        raise ConfigError("dataset generation needs at least 1 voter")
    if assignment not in (EACH_PAIR_RANDOM_VOTER, PARTITION_BY_VOTER):
        raise ConfigError(f"unknown assignment scheme {assignment!r}")
    rng = seeded_rng(seed)
    pairs = pair_scheme.pairs(len(alts), rng)
    rows = []
    for k, (i, j) in enumerate(pairs):
        if rng.random() < 0.5:
            i, j = j, i
        if assignment == EACH_PAIR_RANDOM_VOTER:
            voter = voters[int(rng.integers(0, len(voters)))]
        else:
            voter = voters[k % len(voters)]
        rows.append((i, j, voter.voter_id, sample_label(voter, alts[i], alts[j], label_scheme, rng)))
    first, second, voter_ids, labels = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    points = np.array(alts, dtype=np.float64)
    return Dataset(voter=voter_ids, label=labels, a0=points[first], a1=points[second],
                   scheme=label_scheme.kind, w=label_scheme.w)
