"""Core domain types and the Bradley-Terry choice probability.

A voter's preference weights are one read-only 1-D float64 array,
validated through :func:`feature_vector`, and a slate of alternatives is
one read-only (m, d) float64 array, validated through :func:`slate_array`.
A voter's reward for an alternative is the inner product of the
preference weights with the alternative's features (the label schemes in
``annotation`` compute it for every voter and alternative at once);
pairwise labels follow the Bradley-Terry noise model on reward
differences, :func:`btl_prob`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError

__all__ = [
    "feature_vector",
    "slate_array",
    "VoterParams",
    "Dataset",
    "RewardModel",
    "btl_prob",
    "SCHEME_TRUE",
    "SCHEME_PROXY",
]

SCHEME_TRUE = "true-reward"
SCHEME_PROXY = "proxy"


def feature_vector(coords) -> np.ndarray:
    """Validate and freeze a point in R^d (d >= 1, all finite).

    Returns a read-only float64 array; the same helper validates
    preference vectors and per-feature weight vectors, which live in the
    same space.
    """
    arr = np.array(coords, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InputError(f"feature vector must be 1-D with d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("feature vector has non-finite coordinates")
    arr.setflags(write=False)
    return arr


def slate_array(points) -> np.ndarray:
    """Validate and freeze a slate of m >= 2 finite points in one R^d, d >= 1,
    as a read-only, C-contiguous (m, d) float64 copy."""
    if len({np.shape(p) for p in points}) > 1:
        raise InputError("dimension mismatch: slate points differ in dimension")
    arr = np.array(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 1:
        raise InputError(f"a slate must be m >= 2 points of dimension d >= 1, got shape {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise InputError(f"slate point {np.argmin(finite)} has non-finite coordinates")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class VoterParams:
    """A voter's preference weights over features."""

    voter_id: int
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", feature_vector(self.theta))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Pairwise annotations as read-only columns, one row per record.

    ``voter`` (n,) holds voter ids and ``label`` (n,) holds 0 or 1, where
    1 means ``a1`` was preferred; ``a0`` and ``a1`` (n, d) hold the two
    alternatives. ``scheme`` records which reward generated every label:
    "true-reward", or "proxy" with the per-feature weight vector ``w``.
    The whole dataset is validated once, when it is built.
    """

    voter: np.ndarray
    label: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    scheme: str = SCHEME_TRUE
    w: np.ndarray | None = None

    _COLUMNS = ("voter", "label", "a0", "a1")

    def __post_init__(self):
        label = np.asarray(self.label)
        if label.size == 0:
            raise InputError("empty dataset")
        n = label.size
        voter = np.array(self.voter, dtype=np.int64)
        a0 = np.array(self.a0, dtype=np.float64)
        a1 = np.array(self.a1, dtype=np.float64)
        if label.shape != (n,) or voter.shape != (n,) or a0.ndim != 2 or a0.shape[0] != n or a0.shape[1] < 1:
            raise InputError(
                f"need labels and voter ids of shape ({n},) and a0 of shape ({n}, d), d >= 1; "
                f"got {label.shape}, {voter.shape} and {a0.shape}"
            )
        bad = np.flatnonzero((label != 0) & (label != 1))
        if bad.size:
            raise InputError(f"record {bad[0]}: label must be 0 or 1, got {label[bad[0]]}")
        if a1.shape != a0.shape:
            raise InputError(f"dimension mismatch: a0 has shape {a0.shape}, a1 {a1.shape}")
        bad = np.flatnonzero(~(np.all(np.isfinite(a0), axis=1) & np.all(np.isfinite(a1), axis=1)))
        if bad.size:
            raise InputError(f"record {bad[0]}: non-finite coordinates")
        if self.scheme not in (SCHEME_TRUE, SCHEME_PROXY):
            raise InputError(f"unknown annotation scheme {self.scheme!r}")
        if (self.scheme == SCHEME_PROXY) != (self.w is not None):
            raise InputError("the proxy scheme, and only it, requires a weight vector w")
        if self.w is not None:
            object.__setattr__(self, "w", feature_vector(self.w))
            if self.w.shape[0] != a0.shape[1]:
                raise InputError(f"dimension mismatch: {a0.shape[1]} vs {self.w.shape[0]}")
        for name, column in zip(self._COLUMNS, (voter, label.astype(np.int64), a0, a1)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.label.shape[0]

    @property
    def dim(self) -> int:
        return self.a0.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        # equal schemes give both datasets a w, or neither
        return (
            self.scheme == other.scheme
            and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in self._COLUMNS)
            and (self.w is None or np.array_equal(self.w, other.w))
        )

    def take(self, rows) -> "Dataset":
        """The records at the given row indices, in that order."""
        return replace(self, **{k: getattr(self, k)[rows] for k in self._COLUMNS})

    def winner_minus_loser(self) -> np.ndarray:
        """Winner-minus-loser feature differences, one row per record."""
        return np.where(self.label[:, None] == 1, self.a1 - self.a0, self.a0 - self.a1)


@dataclass(frozen=True)
class RewardModel:
    """Fitted preference-modeling voting rule f(a) = <theta_hat, a>."""

    theta_hat: np.ndarray
    lam: float
    final_nll: float
    converged: bool
    iterations: int
    diagnostic: str = ""
    nll_history: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", feature_vector(self.theta_hat))
        if self.lam < 0:
            raise InputError("regularization strength must be >= 0")


def btl_prob(r_a: float, r_b: float) -> float:
    """Probability that the alternative with reward r_a beats r_b.

    Computed as the logistic sigmoid of the reward difference; never via
    two raw exponentials, so it stays finite for |r| well beyond 700.
    """
    if not (math.isfinite(r_a) and math.isfinite(r_b)):
        raise InputError("btl_prob requires finite rewards")
    d = r_a - r_b
    if d >= 0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)
