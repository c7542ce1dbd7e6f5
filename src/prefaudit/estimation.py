"""Regularized Bradley-Terry maximum likelihood and empirical Borda scores.

The objective is sum over records of -log sigma(<theta, winner - loser>)
plus lambda * ||theta||^2, minimized by damped Newton steps (IRLS) with an
Armijo backtracking safeguard. d is small, so the Hessian
D^T diag(p (1 - p)) D + 2 lambda I over the winner-minus-loser matrix D
costs little, and a fit converges in a few steps. The log-sigmoid is
evaluated in its stable form.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError
from .model import Dataset, RewardModel

__all__ = ["nll", "nll_gradient", "fit_mle", "borda_scores", "score", "scores"]

DEFAULT_LAMBDA = 1e-3
DEFAULT_GRAD_TOL = 1e-8
DEFAULT_MAX_ITERS = 10000

ARMIJO_C = 1e-4
# Predicted decreases below this fraction of max(1, |loss|) are under the
# loss's rounding: the full Newton step is taken without a loss test.
ROUNDING_DECREASE = 1e-12
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 60


def _nll_from_deltas(theta: np.ndarray, deltas: np.ndarray, lam: float) -> float:
    z = deltas @ theta
    # -log sigma(z) = log(1 + exp(-z)), stable for both signs of z
    data_term = float(np.sum(np.logaddexp(0.0, -z)))
    return data_term + lam * float(theta @ theta)


def _lose_prob(z: np.ndarray) -> np.ndarray:
    """sigma(-z) = 1 - sigma(z), the modeled chance that the recorded loser wins."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, e / (1 + e), 1.0 / (1.0 + e))


def _checked(theta, data: Dataset, lam: float):
    """theta as a float array and the data's winner-minus-loser matrix."""
    if lam < 0:
        raise InputError("lambda must be >= 0")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (data.dim,):
        raise InputError(f"theta of shape {theta.shape} differs from data dimension {data.dim}")
    return theta, data.winner_minus_loser()


def nll(theta, data: Dataset, lam: float = 0.0) -> float:
    """Regularized negative log likelihood of the dataset at theta."""
    theta, deltas = _checked(theta, data, lam)
    return _nll_from_deltas(theta, deltas, lam)


def nll_gradient(theta, data: Dataset, lam: float = 0.0) -> np.ndarray:
    """Analytic gradient of nll; matches central finite differences."""
    theta, deltas = _checked(theta, data, lam)
    return -(_lose_prob(deltas @ theta) @ deltas) + 2.0 * lam * theta


def _newton_direction(deltas: np.ndarray, q: np.ndarray, grad: np.ndarray, lam: float):
    """Solve H d = -grad for the Hessian H = D^T diag(q (1 - q)) D + 2 lam I.

    Returns None when H is singular or d is not a descent direction; with
    lam > 0, H is positive definite and neither happens.
    """
    hess = (deltas.T * (q * (1.0 - q))) @ deltas + 2.0 * lam * np.eye(deltas.shape[1])
    try:
        direction = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(direction)) and grad @ direction < 0):
        return None
    return direction


def fit_mle(
    data: Dataset,
    lam: float = DEFAULT_LAMBDA,
    max_iters: int = DEFAULT_MAX_ITERS,
    grad_tol: float = DEFAULT_GRAD_TOL,
    init=None,
) -> RewardModel:
    """Fit theta_hat by damped Newton steps with an Armijo safeguard.

    Each iteration stops if the max-abs gradient is <= grad_tol, else
    backtracks along the Newton direction from the full step until the
    loss falls by the Armijo fraction of the predicted decrease. Near the
    optimum the predicted decrease drops below the rounding of the loss,
    which can then no longer rank steps; there the full Newton step is
    taken (the quadratic-convergence region) and the loss is carried
    over if its recomputation rises by rounding, so nll_history never
    increases.

    With lam=0 on separable data the MLE has no finite minimizer; that
    case is reported as converged=False with a diagnostic rather than
    silently returning a large theta.
    """
    if lam < 0:
        raise InputError("lambda must be >= 0")
    d = data.dim
    theta = np.zeros(d) if init is None else np.array(init, dtype=np.float64)
    if theta.shape != (d,):
        raise InputError(f"init of shape {theta.shape} differs from data dimension {d}")
    deltas = data.winner_minus_loser()

    loss = _nll_from_deltas(theta, deltas, lam)
    if not np.isfinite(loss):
        raise NumericError("non-finite loss at the initial point")
    history = [loss]
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        q = _lose_prob(deltas @ theta)
        grad = -(q @ deltas) + 2.0 * lam * theta
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient at iteration {iterations}")
        if float(np.max(np.abs(grad))) <= grad_tol:
            converged = True
            iterations -= 1
            break
        direction = _newton_direction(deltas, q, grad, lam)
        newton = direction is not None
        if not newton:
            direction = -grad
        decrease = -float(grad @ direction)
        if newton and decrease <= ROUNDING_DECREASE * max(1.0, abs(loss)):
            # quadratic-convergence region: the loss cannot rank this step
            theta = theta + direction
            loss = min(loss, _nll_from_deltas(theta, deltas, lam))
        else:
            t = 1.0
            accepted = False
            for _ in range(MAX_BACKTRACKS):
                cand = theta + t * direction
                cand_loss = _nll_from_deltas(cand, deltas, lam)
                if np.isfinite(cand_loss) and cand_loss <= loss - ARMIJO_C * t * decrease:
                    accepted = True
                    break
                t *= BACKTRACK_SHRINK
            if not accepted:
                # no further descent possible at float precision
                break
            theta, loss = cand, cand_loss
        history.append(loss)

    diagnostic = ""
    if converged and lam == 0.0:
        z = deltas @ theta
        if np.all(z > 0):
            converged = False
            diagnostic = (
                "data is separated by the fitted direction; with lambda=0 the "
                "NLL infimum is not attained and the MLE diverges"
            )
    if not converged and not diagnostic:
        diagnostic = f"gradient tolerance {grad_tol} not reached in {max_iters} iterations"
    return RewardModel(
        theta_hat=theta,
        lam=lam,
        final_nll=loss,
        converged=converged,
        iterations=iterations,
        diagnostic=diagnostic,
        nll_history=tuple(history),
    )


def borda_scores(data: Dataset) -> dict:
    """Empirical win-rate Borda score per row of the data's slate.

    score(a) = wins / comparisons involving a; alternatives that never
    appear in the data map to None (undefined), not zero. Each record
    counts for the two slate rows it names, also when the slate holds
    their point twice.
    """
    m = len(data.slate)
    winner, loser = data.winner_loser()
    wins = np.bincount(winner, minlength=m)
    appearances = wins + np.bincount(loser, minlength=m)
    return {i: (wins[i] / appearances[i] if appearances[i] > 0 else None) for i in range(m)}


def score(model: RewardModel, a) -> float:
    """The voting rule's output for an alternative: f(a) = <theta_hat, a>."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != model.theta_hat.shape:
        raise InputError("alternative dimension differs from model dimension")
    return float(model.theta_hat @ a)


def scores(model: RewardModel, slate: np.ndarray) -> np.ndarray:
    """f(a) for each row of an (m, d) slate, each a 1-D dot as in ``score``
    (a matrix product can round differently in the last bit)."""
    if slate.shape[1:] != model.theta_hat.shape:
        raise InputError("alternative dimension differs from model dimension")
    return np.array([float(model.theta_hat @ a) for a in slate])
