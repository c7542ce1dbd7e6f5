"""Pairwise annotation generation under the Bradley-Terry noise model.

A label scheme turns voters and a slate into one voters x slate reward
table: the voters' true rewards, or a per-feature-weighted proxy reward
modeling labeling bias. Each label is then drawn from btl_prob of the
gap between two entries of that table. Pairs are unordered during
generation and slot order is randomized, so no position artifact enters
the data. Every column is built as an array from the same stream a
record-at-a-time loop would draw: the each-pair-random-voter assignment,
whose stream puts an integer draw between each record's two doubles,
decodes all of them from one block of raw Philox words, and labels take
the sigmoid with np.exp, rechecking near-ties with btl_prob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .model import SCHEME_PROXY, SCHEME_TRUE, Dataset, VoterParams, btl_prob, feature_vector, slate_array
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

    def rewards(self, thetas: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(voters, m) table of true rewards <theta, a>."""
        return thetas @ points.T


@dataclass(frozen=True)
class ProxyLabels:
    w: np.ndarray
    kind: str = SCHEME_PROXY

    def __post_init__(self):
        object.__setattr__(self, "w", feature_vector(self.w))

    def rewards(self, thetas: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(voters, m) table of proxy rewards sum_j theta_j * w_j * a_j."""
        return (thetas * self.w) @ points.T


@dataclass(frozen=True)
class UniformRandomPairs:
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")

    def pairs(self, n_alts: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """count distinct-index pairs drawn uniformly, as (low, high) index arrays.

        One array-bounded draw makes the same draws as count scalar pairs
        of calls, i from [0, n_alts) then j from [0, n_alts - 1).
        """
        i, j = rng.integers(0, np.tile([n_alts, n_alts - 1], self.count)).reshape(-1, 2).T
        j = j + (j >= i)
        return np.minimum(i, j), np.maximum(i, j)


@dataclass(frozen=True)
class RoundRobin:
    repeats: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")

    def pairs(self, n_alts: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """Every pair of the slate in lexicographic order, repeats times; draws nothing."""
        low, high = np.triu_indices(n_alts, 1)
        return np.tile(low, self.repeats), np.tile(high, self.repeats)


def sample_label(r0: float, r1: float, rng) -> int:
    """Draw one BTL label: 1 (the second alternative wins) with probability btl_prob(r1, r0)."""
    return int(rng.random() < btl_prob(r1, r0))


def _random_voter_draws(rng, n: int, voters: int):
    """What n rounds of ``rng.random(), rng.integers(0, voters), rng.random()``
    return, as (swap doubles, voter rows, label doubles) arrays decoded from
    one ``random_raw`` block, leaving rng as those rounds would; or None, with
    rng untouched, when voters is outside [2, 2**32) or a draw would reject
    a word.

    This relies on numpy internals (numpy/random/src/distributions): a
    double is ``(word >> 11) * 2**-53`` of one 64-bit word, and an integer
    below 2**32 is 32-bit Lemire over the bit generator's next 32 bits,
    which are the high half it buffered (``has_uint32``/``uinteger`` in its
    state) if it holds one, else the low half of a fresh word, whose high
    half it then buffers. test_annotation checks the result against the
    loop bit for bit; a numpy that changes these internals fails there.
    """
    if not 2 <= voters < 2**32:
        return None
    state = rng.bit_generator.state
    held = state["has_uint32"]
    k = np.arange(n)
    start = 2 * k + (k + 1 - held) // 2  # round k's first word
    fresh = (k + held) % 2 == 0  # round k's integer reads a fresh word, else the buffered half
    words = rng.bit_generator.random_raw(2 * n + (n + 1 - held) // 2)
    ints = words[start[fresh] + 1]
    if held:
        ints = np.concatenate(([np.uint64(state["uinteger"]) << np.uint64(32)], ints))
    halves = np.stack((ints & 0xFFFFFFFF, ints >> 32), axis=1).ravel()
    scaled = halves[held:held + n] * np.uint64(voters)
    if np.any((scaled & 0xFFFFFFFF) < (2**32 - voters) % voters):  # Lemire would draw again
        rng.bit_generator.state = state
        return None
    if halves.size:
        after = rng.bit_generator.state
        after["has_uint32"], after["uinteger"] = halves.size - held - n, int(halves[-1])
        rng.bit_generator.state = after
    return (words[start] >> 11) * 2.0**-53, scaled >> 32, (words[start + 1 + fresh] >> 11) * 2.0**-53


def _labels(r0: np.ndarray, r1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each record's label ``u < btl_prob(r1, r0)``.

    The sigmoid is btl_prob's branch formulas with np.exp, which can differ
    from math.exp by a few ulps of a number <= 1; so only a record with
    ``|u - p| <= 1e-12`` can flip, and it takes btl_prob's own p.
    """
    if not (np.isfinite(r0).all() and np.isfinite(r1).all()):
        raise InputError("btl_prob requires finite rewards")
    with np.errstate(over="ignore"):
        gap = r1 - r0
    e = np.exp(-np.abs(gap))
    p = np.where(gap >= 0, 1.0, e) / (1.0 + e)
    near = np.flatnonzero(np.abs(u - p) <= 1e-12)
    p[near] = list(map(btl_prob, r1[near].tolist(), r0[near].tolist()))
    return (u < p).astype(np.int64)


def generate_dataset(
    voters: list[VoterParams],
    slate: np.ndarray,
    pair_scheme,
    assignment: str,
    label_scheme,
    seed: int,
) -> Dataset:
    """Generate a pairwise-comparison dataset over a slate, deterministic given seed.

    The label scheme's voters x slate reward table is built once. After
    the pairs, each record draws a double for its slot order, its voter
    (unless assigned by position) and a double for its label, in that
    order. Under partition-by-voter, or with one voter (whose integer draw
    takes no bits), these are one array of 2n doubles. Under
    each-pair-random-voter an integer draw sits between each record's two
    doubles, and _random_voter_draws decodes them all from one block of
    raw words; a record-at-a-time loop runs only if it declines. Each
    label compares its double with the sigmoid of the reward gap as
    btl_prob computes it (see _labels).
    """
    slate = slate_array(slate)
    if not voters:
        raise ConfigError("dataset generation needs at least 1 voter")
    if assignment not in (EACH_PAIR_RANDOM_VOTER, PARTITION_BY_VOTER):
        raise ConfigError(f"unknown assignment scheme {assignment!r}")
    shapes = {v.theta.shape for v in voters}
    if label_scheme.w is not None:
        shapes.add(label_scheme.w.shape)
    if shapes != {slate.shape[1:]}:
        raise InputError(f"dimension mismatch: slate points {slate.shape[1:]}, voters and weights {sorted(shapes)}")
    with np.errstate(over="ignore", invalid="ignore"):  # _labels checks the compared rewards
        table = label_scheme.rewards(np.stack([v.theta for v in voters]), slate)
    rng = seeded_rng(seed)
    low, high = pair_scheme.pairs(len(slate), rng)
    n = len(low)
    if assignment == PARTITION_BY_VOTER or len(voters) == 1:
        swap_u, label_u = rng.random((n, 2)).T
        voter_rows = np.arange(n) % len(voters)
    else:
        draws = _random_voter_draws(rng, n, len(voters))
        if draws is None:  # Lemire rejected a word: draw record by record
            draws = map(np.array, zip(*[(rng.random(), int(rng.integers(0, len(voters))), rng.random())
                                        for _ in range(n)]))
        swap_u, voter_rows, label_u = draws
    swap = swap_u < 0.5
    first, second = np.where(swap, high, low), np.where(swap, low, high)
    label = _labels(table[voter_rows, first], table[voter_rows, second], label_u)
    voter_ids = np.array([v.voter_id for v in voters], dtype=np.int64)
    return Dataset(voter=voter_ids[voter_rows], label=label, slate=slate,
                   i0=first, i1=second, scheme=label_scheme.kind, w=label_scheme.w)
