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

from .axioms import AnchorResult, AxiomReport
from .errors import InputError
from .estimation import score
from .population import empirical_unanimous_gap, population_mean_gap

__all__ = ["brute_force_mle", "exhaustive_axiom_check"]


def _record_nll(theta, winner_minus_loser, lam: float) -> float:
    """Regularized NLL, one record at a time, written apart from estimation."""
    total = 0.0
    for delta in winner_minus_loser:
        gap = sum(t * x for t, x in zip(theta, delta))
        # -log sigma(gap), in the form that cannot overflow
        total += max(-gap, 0.0) + math.log1p(math.exp(-abs(gap)))
    return total + lam * sum(t * t for t in theta)


def brute_force_mle(data, lam: float, resolution: int = 11, bound: float = 4.0) -> np.ndarray:
    """Grid point minimizing the regularized NLL (ties -> first visited).

    Only meant for cross-checks at d <= 3; the grid has resolution^d
    points over [-bound, bound]^d. The NLL is its own per-record loop, so
    a fault in the fit's vectorized kernels cannot hide here.
    """
    d = data.dim
    if d > 3:
        raise InputError("brute-force MLE is limited to d <= 3")
    if resolution < 11:
        raise InputError("grid resolution must be >= 11 per axis")
    rows = []
    for label, a0, a1 in zip(data.label.tolist(), data.a0.tolist(), data.a1.tolist()):
        winner, loser = (a1, a0) if label == 1 else (a0, a1)
        rows.append([w - l for w, l in zip(winner, loser)])
    axis = [float(x) for x in np.linspace(-bound, bound, resolution)]
    best_val = math.inf
    best = None
    for point in product(axis, repeat=d):
        val = _record_nll(point, rows, lam)
        if val < best_val:
            best_val = val
            best = point
    return np.array(best)


def exhaustive_axiom_check(model, slate, voters_or_pop, epsilon: float, axiom: str) -> AxiomReport:
    """Naive per-pair re-derivation of the unanimity/condorcet audits.

    Produces an AxiomReport whose anchors, violations, pass flag, and
    margin must match the audit_* report for the same epsilon
    field-for-field.
    """
    if axiom not in ("unanimity", "condorcet"):
        raise InputError(f"exhaustive check supports unanimity/condorcet, not {axiom!r}")
    if len(slate) < 2:
        raise InputError("slate must hold >= 2 alternatives")
    if len(slate) > 50:
        raise InputError("exhaustive check is limited to slates of <= 50")
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    anchors = []
    min_margin = None
    for i, a in enumerate(slate):
        dominated = []
        violations = []
        for j, b in enumerate(slate):
            if i == j:
                continue
            if axiom == "unanimity":
                gap = empirical_unanimous_gap(voters_or_pop, a, b)
            else:
                gap = population_mean_gap(voters_or_pop, a, b)
            if gap > epsilon:
                dominated.append(j)
                score_gap = score(model, a) - score(model, b)
                margin = score_gap - epsilon
                if min_margin is None or margin < min_margin:
                    min_margin = margin
                if not score_gap > epsilon:
                    violations.append((i, j))
        anchors.append(
            AnchorResult(
                anchor=i,
                dominated=tuple(dominated),
                violations=tuple(violations),
                vacuous=not dominated,
            )
        )
    return AxiomReport(
        axiom=axiom,
        epsilon=float(epsilon),
        slate_size=len(slate),
        anchors=tuple(anchors),
        passed=all(not a.violations for a in anchors),
        min_margin=min_margin,
        metadata={"method": "exhaustive"},
    )
