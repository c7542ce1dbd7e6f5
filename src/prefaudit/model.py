"""Core domain types and the Bradley-Terry choice probability.

The voters are one read-only ``Voters``: distinct ids and (V, d)
preference weights. A slate of alternatives is one read-only (m, d)
float64 array, validated through :func:`slate_array`. A voter's reward
for an alternative is the inner product of the preference weights with
the alternative's features (the label schemes in ``annotation`` compute
it for every voter and alternative at once); pairwise labels follow the
Bradley-Terry noise model on reward differences, :func:`btl_prob`.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError

__all__ = [
    "feature_vector",
    "slate_array",
    "VoterParams",
    "Voters",
    "Dataset",
    "RewardModel",
    "btl_prob",
    "SCHEME_TRUE",
    "SCHEME_PROXY",
]

SCHEME_TRUE = "true-reward"
SCHEME_PROXY = "proxy"


def _array(what: str, values, dtype=None) -> np.ndarray:
    """``values`` as one array, or an InputError naming ``what``."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        raise InputError(f"{what}: need numbers of one shape, got {reprlib.repr(values)}") from None


def feature_vector(coords) -> np.ndarray:
    """Validate and freeze a point in R^d (d >= 1, all finite).

    Returns a read-only float64 array; the same helper validates
    preference vectors and per-feature weight vectors, which live in the
    same space.
    """
    arr = _array("feature vector", coords, np.float64).copy()
    if arr.ndim != 1 or arr.size < 1:
        raise InputError(f"feature vector must be 1-D with d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("feature vector has non-finite coordinates")
    arr.setflags(write=False)
    return arr


def _points(what: str, points, least: int) -> np.ndarray:
    """``points`` as ``slate_array`` checks a slate, with m >= ``least``; an
    InputError names ``what``."""
    try:  # an array cannot be ragged
        shapes = () if isinstance(points, np.ndarray) else {np.shape(p) for p in points}
    except ValueError:  # a ragged point: _array names the value
        shapes = ()
    if len(shapes) > 1:
        raise InputError(f"dimension mismatch: {what} points differ in dimension")
    arr = _array(what, points, np.float64).copy()
    if arr.ndim != 2 or arr.shape[0] < least or arr.shape[1] < 1:
        raise InputError(f"{what}: need m >= {least} points of dimension d >= 1, got shape {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise InputError(f"{what} point {np.argmin(finite)} has non-finite coordinates")
    arr.setflags(write=False)
    return arr


def slate_array(points) -> np.ndarray:
    """Validate and freeze a slate of m >= 2 finite points in one R^d, d >= 1,
    as a read-only, C-contiguous (m, d) float64 copy."""
    return _points("slate", points, 2)


def _ids(name: str, values) -> np.ndarray:
    """An int64 copy of ``values``, which must all be integers in the int64 range."""
    ids = _array(name, values)
    if ids.size and (ids.dtype.kind not in "iu" or ids.dtype.kind == "u" and ids.max() >= 2**63):
        raise InputError(f"{name}: need integers in the int64 range, got dtype {ids.dtype}")
    return ids.astype(np.int64)


@dataclass(frozen=True)
class VoterParams:
    """One voter's preference weights, the oracle's per-voter record."""

    voter_id: int
    theta: np.ndarray

    def __post_init__(self):
        if np.ndim(self.voter_id):
            raise InputError(f"voter_id must be one integer, got {self.voter_id!r}")
        object.__setattr__(self, "voter_id", int(_ids("voter_id", self.voter_id)))
        object.__setattr__(self, "theta", feature_vector(self.theta))


@dataclass(frozen=True, eq=False)
class Voters:
    """V voters: ``ids`` (V,) distinct int64 ids and ``thetas``, their (V, d)
    preference weights as ``_points``; read-only, validated once."""

    ids: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        ids, thetas = _ids("voter_id", self.ids), _points("theta", self.thetas, 1)
        if ids.shape != thetas.shape[:1]:
            raise InputError(f"voter_id: need shape ({len(thetas)},), one per voter, got {ids.shape}")
        order = np.argsort(ids, kind="stable")
        repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
        if repeats.size:
            raise InputError(f"voter_id {ids[repeats.min()]} repeats an earlier voter's")
        ids.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "thetas", thetas)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Pairwise annotations over a slate (see ``slate_array``), one row per record.

    ``voter`` (n,) holds voter ids, ``i0`` and ``i1`` (n,) the slate rows
    compared and ``label`` (n,) 0 or 1, where 1 means ``slate[i1]`` was
    preferred. ``scheme`` records which reward generated every label:
    "true-reward", or "proxy" with the per-feature weight vector ``w``.
    The whole dataset is validated once, when it is built.
    """

    voter: np.ndarray
    label: np.ndarray
    slate: np.ndarray
    i0: np.ndarray
    i1: np.ndarray
    scheme: str = SCHEME_TRUE
    w: np.ndarray | None = None

    def __post_init__(self):
        label = _array("label", self.label)
        if label.size == 0:
            raise InputError("empty dataset")
        n = label.size
        slate = slate_array(self.slate)
        voter, i0, i1 = map(_ids, ("voter", "i0", "i1"), (self.voter, self.i0, self.i1))
        if not label.shape == voter.shape == i0.shape == i1.shape == (n,):
            raise InputError(f"need labels, voter ids and slate indices of shape ({n},); "
                             f"got {label.shape}, {voter.shape}, {i0.shape} and {i1.shape}")
        bad = np.flatnonzero((label != 0) & (label != 1))
        if bad.size:
            raise InputError(f"record {bad[0]}: label must be 0 or 1, got {label[bad[0]]}")
        bad = np.flatnonzero((np.minimum(i0, i1) < 0) | (np.maximum(i0, i1) >= len(slate)))
        if bad.size:
            raise InputError(f"record {bad[0]}: slate indices {i0[bad[0]]}, {i1[bad[0]]} not in [0, {len(slate)})")
        if self.scheme not in (SCHEME_TRUE, SCHEME_PROXY):
            raise InputError(f"unknown annotation scheme {self.scheme!r}")
        if (self.scheme == SCHEME_PROXY) != (self.w is not None):
            raise InputError("the proxy scheme, and only it, requires a weight vector w")
        if self.w is not None:
            object.__setattr__(self, "w", feature_vector(self.w))
            if self.w.shape[0] != slate.shape[1]:
                raise InputError(f"dimension mismatch: {slate.shape[1]} vs {self.w.shape[0]}")
        object.__setattr__(self, "slate", slate)
        for name, column in zip(("voter", "label", "i0", "i1"), (voter, label.astype(np.int64), i0, i1)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.label.shape[0]

    @property
    def dim(self) -> int:
        return self.slate.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        # equal schemes give both datasets a w, or neither; records match on the points
        # they compare, whichever rows hold them, as a records file cannot tell rows apart
        return (
            self.scheme == other.scheme
            and (self.w is None or np.array_equal(self.w, other.w))
            and np.array_equal(self.voter, other.voter)
            and np.array_equal(self.label, other.label)
            and all(np.array_equal(self.slate[getattr(self, k)], other.slate[getattr(other, k)])
                    for k in ("i0", "i1"))
        )

    def winner_loser(self) -> tuple[np.ndarray, np.ndarray]:
        """The slate rows of each record's winner and loser."""
        won = self.label == 1
        return np.where(won, self.i1, self.i0), np.where(won, self.i0, self.i1)

    @cached_property
    def _first_rows(self) -> np.ndarray:
        """The first slate row holding each row's point bytes, the row a records
        file names (see serialize.read_records)."""
        first = {}
        return np.array([first.setdefault(p.tobytes(), k) for k, p in enumerate(self.slate)])

    def pair_table(self, groups=(slice(None),)) -> tuple[np.ndarray, np.ndarray]:
        """The winner-minus-loser rows (K, d) of the distinct (winner, loser)
        cells of the m x m pair table that any group of records holds, in
        row-major order with each point named by its first slate row, and each
        group's record counts (B, K), float64. Each group indexes record rows."""
        m = len(self.slate)
        cell, loser = self.winner_loser()
        cell = self._first_rows[cell]  # the rebinding frees the winners
        cell *= m
        cell += self._first_rows[loser]
        del loser
        table = np.stack([np.bincount(cell[g], minlength=m * m) for g in groups])
        del cell
        used = np.flatnonzero(table.any(axis=0))
        counts = table[:, used].astype(np.float64)
        del table
        return np.take(self.slate, used // m, axis=0) - np.take(self.slate, used % m, axis=0), counts


def _check_lambda(lam) -> None:
    """Raise InputError unless the regularization strength is finite and >= 0."""
    if not (math.isfinite(lam) and lam >= 0):
        raise InputError(f"lambda must be >= 0 and finite, got {lam!r}")


def _check_stopping(max_iters, grad_tol) -> None:
    if not (isinstance(max_iters, (int, np.integer)) and max_iters >= 0):
        raise InputError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    if not (math.isfinite(grad_tol) and grad_tol > 0):
        raise InputError(f"grad_tol must be > 0 and finite, got {grad_tol!r}")


@dataclass(frozen=True)
class RewardModel:
    """Fitted preference-modeling voting rule f(a) = <theta_hat, a>."""

    theta_hat: np.ndarray
    lam: float
    final_nll: float
    converged: bool
    iterations: int
    diagnostic: str = ""
    grad_norm: float | None = None  # max-abs NLL gradient at theta_hat
    nll_history: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", feature_vector(self.theta_hat))
        _check_lambda(self.lam)


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
