"""Brute-force reference implementations for cross-checking.

These stay deliberately naive (double loops, exhaustive grids) so they
can validate the estimation and audit modules on small instances. They
ship in the library, not just the test suite, so users can cross-check
their own configurations via the `verify` subcommand.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .axioms import AxiomReport
from .errors import InputError

__all__ = [
    "MLE_MAX_DIM",
    "AXIOM_MAX_SLATE",
    "record_nll",
    "brute_force_mle",
    "exhaustive_axiom_check",
    "population_mean_gap",
    "empirical_unanimous_gap",
]

MLE_MAX_DIM = 3  # brute_force_mle's grid has resolution^d points
AXIOM_MAX_SLATE = 50  # exhaustive_axiom_check visits every ordered pair


def _record_nll(theta, winner_minus_loser, lam: float) -> float:
    """Regularized NLL, one record at a time, written apart from estimation."""
    total = 0.0
    for delta in winner_minus_loser:
        gap = sum(t * x for t, x in zip(theta, delta))
        # -log sigma(gap), in the form that cannot overflow
        total += max(-gap, 0.0) + math.log1p(math.exp(-abs(gap)))
    return total + lam * sum(t * t for t in theta)


def _winner_minus_loser(data) -> list:
    """Each record's winner point minus its loser point, as lists of floats."""
    slate = data.slate.tolist()
    rows = []
    for label, i0, i1 in zip(data.label.tolist(), data.i0.tolist(), data.i1.tolist()):
        winner, loser = (slate[i1], slate[i0]) if label == 1 else (slate[i0], slate[i1])
        rows.append([w - l for w, l in zip(winner, loser)])
    return rows


def record_nll(theta, data, lam: float) -> float:
    """The regularized NLL of data at theta, summed one record at a time."""
    return _record_nll([float(t) for t in theta], _winner_minus_loser(data), lam)


def brute_force_mle(data, lam: float, resolution: int = 11, bound: float = 4.0) -> np.ndarray:
    """Grid point minimizing the regularized NLL (ties -> first visited).

    Only meant for cross-checks at d <= MLE_MAX_DIM; the grid has resolution^d
    points over [-bound, bound]^d. The NLL is its own per-record loop, so
    a fault in the fit's vectorized kernels cannot hide here.
    """
    d = data.dim
    if d > MLE_MAX_DIM:
        raise InputError(f"brute-force MLE is limited to d <= {MLE_MAX_DIM}")
    if resolution < 11:
        raise InputError("grid resolution must be >= 11 per axis")
    rows = _winner_minus_loser(data)
    axis = [float(x) for x in np.linspace(-bound, bound, resolution)]
    return np.array(min(product(axis, repeat=d), key=lambda point: _record_nll(point, rows, lam)))


def _difference(a, a_prime) -> np.ndarray:
    a, a_prime = np.asarray(a, dtype=np.float64), np.asarray(a_prime, dtype=np.float64)
    if a.shape != a_prime.shape:
        raise InputError("alternatives have mismatched dimensions")
    return a - a_prime


def population_mean_gap(spec, a: np.ndarray, a_prime: np.ndarray) -> float:
    """Analytic expected reward gap E_theta[<theta, a - a'>]."""
    delta, mean = _difference(a, a_prime), spec.expected_theta()
    if mean.shape != delta.shape:
        raise InputError("alternative dimension differs from population dimension")
    return float(mean @ delta)


def empirical_unanimous_gap(voters, a: np.ndarray, a_prime: np.ndarray) -> float:
    """Minimum reward gap min_i <theta_i, a - a'> over the given voters."""
    if not voters:
        raise InputError("empirical unanimous gap needs at least one voter")
    delta = _difference(a, a_prime)
    return min(float(v.theta @ delta) for v in voters)


def _score(model, a) -> float:
    """The model's reward for one alternative, <theta_hat, a>."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != model.theta_hat.shape:
        raise InputError("alternative dimension differs from model dimension")
    return float(model.theta_hat @ a)


def exhaustive_axiom_check(model, slate, voters_or_pop, epsilon: float, axiom: str) -> AxiomReport:
    """Naive per-pair re-derivation of the unanimity/condorcet audits.

    Produces an AxiomReport that must equal (``==``) the audit_* report for
    the same epsilon: the same dominated and violated masks, pass flag and
    minimum margin.
    """
    if axiom not in ("unanimity", "condorcet"):
        raise InputError(f"exhaustive check supports unanimity/condorcet, not {axiom!r}")
    if len(slate) < 2:
        raise InputError("slate must hold >= 2 alternatives")
    if len(slate) > AXIOM_MAX_SLATE:
        raise InputError(f"exhaustive check is limited to slates of <= {AXIOM_MAX_SLATE}")
    if not math.isfinite(epsilon) or epsilon < 0:
        raise InputError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    for i, a in enumerate(slate):
        if not all(math.isfinite(x) for x in a):
            raise InputError(f"slate point {i} has non-finite coordinates")
    pair_gap = empirical_unanimous_gap if axiom == "unanimity" else population_mean_gap
    dominated = np.zeros((len(slate), len(slate)), dtype=bool)
    violated = np.zeros_like(dominated)
    min_margin = None
    for i, a in enumerate(slate):
        for j, b in enumerate(slate):
            if i == j:
                continue
            gap = pair_gap(voters_or_pop, a, b)
            if gap > epsilon:
                dominated[i, j] = True
                score_gap = _score(model, a) - _score(model, b)
                margin = score_gap - epsilon
                if min_margin is None or margin < min_margin:
                    min_margin = margin
                if not score_gap > epsilon:
                    violated[i, j] = True
    return AxiomReport(
        axiom=axiom,
        epsilon=float(epsilon),
        dominated=dominated,
        violated=violated,
        passed=not violated.any(),
        min_margin=min_margin,
        metadata={"method": "exhaustive"},
    )
