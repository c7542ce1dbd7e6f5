"""Regularized Bradley-Terry maximum likelihood and empirical Borda scores.

The objective, sum over records of -log sigma(<theta, winner - loser>)
plus lambda * ||theta||^2, is summed over the distinct winner-minus-loser
rows D of ``Dataset.pair_table`` weighted by their counts c, as
sum_k c_k (log1p(exp(-|z_k|)) - min(z_k, 0)), z = D theta. ``_fit_counts``
minimizes it for B count vectors at once by damped Newton steps with an
Armijo safeguard; ``fit_mle`` is its B = 1 case, and the consistency
audit fits its voter blocks through it.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError
from .model import Dataset, RewardModel, _check_lambda

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


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of a times b as one (1, d) item of a stacked product, so it
    rounds as for B = 1 (a 2-D product rounds differently and reads in more
    of the BLAS library)."""
    return np.matmul(a[:, None], b)[:, 0]


def _nll_rows(thetas, deltas, counts, lam) -> np.ndarray:
    """The NLL of each row of thetas (B, d) over D with counts (B, K) or (K,)."""
    z = _rowwise(thetas, deltas.T)
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.minimum(z, 0.0, out=z)
    t -= z
    del z  # numpy's buffer for a broadcast count row can reuse its memory
    t *= counts
    return np.add.reduce(t, axis=1) + lam * np.add.reduce(thetas * thetas, axis=1)


def _gradient(thetas, deltas, counts, lam):
    """Each row's NLL gradient, and its Hessian weights c q (1 - q), where
    q = sigma(-z) = max(lost, e) / (1 + e), lost = 1.0 where z < 0, else 0.0,
    e = exp(-|z|) <= 1: e / (1 + e) for z >= 0 and 1 / (1 + e) below."""
    z = _rowwise(thetas, deltas.T)
    q = np.less(z, 0.0, out=np.empty_like(z))
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.maximum(q, z, out=q)
    z += 1.0
    q /= z
    del z
    cq = q * counts
    grad = 2.0 * lam * thetas - _rowwise(cq, deltas)
    np.subtract(1.0, q, out=q)
    q *= cq
    return grad, q


def _checked(theta, data: Dataset, lam: float):
    _check_lambda(lam)
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (data.dim,):
        raise InputError(f"theta of shape {theta.shape} differs from data dimension {data.dim}")
    return (theta[None], *data.pair_table(), lam)


def nll(theta, data: Dataset, lam: float = 0.0) -> float:
    """Regularized negative log likelihood of the dataset at theta."""
    return float(_nll_rows(*_checked(theta, data, lam))[0])


def nll_gradient(theta, data: Dataset, lam: float = 0.0) -> np.ndarray:
    """Analytic gradient of nll; matches central finite differences."""
    return _gradient(*_checked(theta, data, lam))[0][0]


def _newton_directions(upper, products, weights, grad, lam):
    """Solve H_b x = -grad_b with H_b = D^T diag(weights_b) D + 2 lam I, whose
    ``upper`` triangle is weights_b @ products. A row whose H_b is singular
    or whose x does not descend gets NaNs; with lam > 0 neither happens."""
    batch, d = grad.shape
    hess = np.empty((batch, d, d))
    hess[:, upper[0], upper[1]] = hess[:, upper[1], upper[0]] = _rowwise(weights, products)
    hess.reshape(batch, d * d)[:, ::d + 1] += 2.0 * lam
    rhs = -grad[:, :, None]
    try:
        x = np.linalg.solve(hess, rhs)[:, :, 0]
    except np.linalg.LinAlgError:  # one singular H_b fails the whole stack
        x = np.full_like(grad, np.nan)
        for b in range(batch):
            try:
                x[b] = np.linalg.solve(hess[b], rhs[b])[:, 0]
            except np.linalg.LinAlgError:
                pass
    slope = np.add.reduce(grad * x, axis=1)  # finite only when x is
    x[~((slope < 0) & np.isfinite(slope))] = np.nan
    return x


# Each pass first stops, at this one site, every fit whose max-abs gradient
# is <= grad_tol (converged), whose last line search found no descent
# (stalled), or that has had max_iters passes (out of iterations, also if the
# last one stalled), so grad_norm and iterations tell how it stopped. Each
# other fit backtracks along its Newton direction (its negative gradient if
# the Hessian is singular or the direction does not descend) from the full
# step until the loss falls by the Armijo fraction of the predicted decrease,
# in at most MAX_BACKTRACKS halvings. Where that decrease is under the loss's
# rounding, a full Newton step with a finite loss is taken and the loss
# carried over if it rises by rounding, so nll_history never increases. With
# lam=0 on data the fit separates (z > 0 on every row of positive count) the
# MLE diverges: that fit is reported as converged=False with a diagnostic.
def _fit_counts(deltas, counts, lam, max_iters, grad_tol, init) -> list[RewardModel]:
    """B damped-Newton fits in lockstep, one per row of counts (B, K) over the
    rows deltas (K, d), each from its row of init (B, d) with its own state."""
    theta = np.array(init, dtype=np.float64)
    loss = _nll_rows(theta, deltas, counts, lam)
    if not np.all(np.isfinite(loss)):
        raise NumericError("non-finite loss at the initial point")
    batch = len(theta)
    history = [[x] for x in loss.tolist()]
    iterations = np.zeros(batch, dtype=np.int64)
    grad_norm = np.zeros(batch)
    upper = np.nonzero(np.tri(deltas.shape[1], dtype=bool).T)
    # F order, as deltas[:, upper[0]] * deltas[:, upper[1]]: the Hessian rounds by layout
    products = np.empty((len(deltas), len(upper[0])), order="F")
    for k, (a, b) in enumerate(zip(*upper)):
        np.multiply(deltas[:, a], deltas[:, b], out=products[:, k])
    # the fits still iterating: their rows, theta, loss and counts, and (search)
    # those whose last line search found no descent
    active, th, cur, c, search = np.arange(batch), theta.copy(), loss.copy(), counts, np.arange(0)
    for it in range(max_iters + 1):
        grad, weights = _gradient(th, deltas, c, lam)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient after {it} iterations")
        gmax = np.max(np.abs(grad), axis=1)
        done = (gmax <= grad_tol) | (it == max_iters)
        done[search] = True
        if done.any():
            rows = active[done]
            theta[rows], loss[rows], grad_norm[rows], iterations[rows] = th[done], cur[done], gmax[done], it
            active, th, cur, c, grad, weights = (a[~done] for a in (active, th, cur, c, grad, weights))
            if not active.size:
                break
        step = _newton_directions(upper, products, weights, grad, lam)
        del weights  # the loss evaluations below reuse its memory
        newton = np.isfinite(step[:, 0])
        step[~newton] = -grad[~newton]
        decrease = -np.add.reduce(grad * step, axis=1)
        # quadratic-convergence region: the loss cannot rank these steps
        full = newton & (decrease <= ROUNDING_DECREASE * np.maximum(1.0, np.abs(cur)))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trial loss is refused
            if full.any():
                stepped = _nll_rows(th[full] + step[full], deltas, c[full], lam)
                full[full] = finite = np.isfinite(stepped)
                th[full] += step[full]
                cur[full] = np.minimum(cur[full], stepped[finite])
            search = np.flatnonzero(~full)
            t = np.ones(search.size)
            for _ in range(MAX_BACKTRACKS):
                if not search.size:
                    break
                cand = th[search] + t[:, None] * step[search]
                cand_loss = _nll_rows(cand, deltas, c if search.size == len(c) else c[search], lam)
                ok = np.isfinite(cand_loss) & (cand_loss <= cur[search] - ARMIJO_C * t * decrease[search])
                th[search[ok]], cur[search[ok]] = cand[ok], cand_loss[ok]
                search, t = search[~ok], t[~ok] * BACKTRACK_SHRINK
        for row, value in zip(active.tolist(), cur.tolist()):
            history[row].append(value)

    models = []
    for b in range(batch):
        converged, diagnostic = bool(grad_norm[b] <= grad_tol), ""
        if converged and lam == 0.0 and np.all((deltas @ theta[b])[counts[b] > 0] > 0):
            converged, diagnostic = False, (
                "data is separated by the fitted direction; with lambda=0 the "
                "NLL infimum is not attained and the MLE diverges"
            )
        elif not converged and iterations[b] < max_iters:
            diagnostic = (f"gradient tolerance {grad_tol} not reached: the line search found no "
                          f"descent in iteration {iterations[b]}")
        elif not converged:
            diagnostic = f"gradient tolerance {grad_tol} not reached in {max_iters} iterations"
        models.append(RewardModel(
            theta_hat=theta[b], lam=lam, final_nll=float(loss[b]), converged=converged,
            iterations=int(iterations[b]), diagnostic=diagnostic, grad_norm=float(grad_norm[b]),
            nll_history=tuple(history[b]),
        ))
    return models


def fit_mle(
    data: Dataset,
    lam: float = DEFAULT_LAMBDA,
    max_iters: int = DEFAULT_MAX_ITERS,
    grad_tol: float = DEFAULT_GRAD_TOL,
    init=None,
) -> RewardModel:
    """Fit theta_hat by damped Newton steps with an Armijo safeguard over the
    data's distinct pairs (``_fit_counts`` gives the steps and stopping rules)."""
    theta, deltas, counts, lam = _checked(np.zeros(data.dim) if init is None else init, data, lam)
    return _fit_counts(deltas, counts, lam, max_iters, grad_tol, theta)[0]


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
    """f(a) for each row of an (m, d) slate, each entry a 1-D dot as in
    ``score`` (a matrix product can round differently in the last bit)."""
    if slate.shape[1:] != model.theta_hat.shape:
        raise InputError("alternative dimension differs from model dimension")
    return np.dot(slate[:, None], model.theta_hat)[:, 0]
