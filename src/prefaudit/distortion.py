"""Worst-case welfare regret over vote-consistent hidden hypotheses.

An annotation-generating hypothesis is a pair (theta, w): labels follow
the proxy reward sum_j theta_j w_j a_j, but true welfare depends on
theta alone. A hypothesis is consistent with the observed votes when the
NLL of its effective parameter theta * w sits within ``delta`` of the
best NLL found. Regret of the learned rule's winner is then maximized
over the consistent hypotheses on an exhaustive grid (random sampling
above d=3, where the grid explodes).

The search scores the hypotheses in two passes. A screen scores every
hypothesis approximately, in blocks, with a rigorous error margin, and
drops only those that cannot be consistent; the few that are left are
rescored with the exact per-row kernel the fit uses, and only those
exact values decide the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import InputError
# nll is unused here but stays importable: the benchmark's tracer wraps
# prefaudit.distortion.nll, and a test patches it to prove that the search
# never calls it per hypothesis
from .estimation import _nll_from_deltas, nll, scores
from .model import RewardModel
from .population import seeded_rng

__all__ = ["SearchSpec", "DistortionReport", "worst_case_regret"]

GRID_DIM_LIMIT = 3
# The screen scores about this many (hypothesis, record) terms per block,
# in place in one reused buffer, so it adds little to a run's memory.
SCREEN_BLOCK = 4096


@dataclass(frozen=True)
class SearchSpec:
    """Hypothesis-search controls for the regret grid.

    theta ranges over [-bound, bound]^d with grid_resolution points per
    coordinate. w is fixed to all-ones by default (w_mode="ones"); with
    w_mode="grid" it ranges over [w_lo, w_hi]^d at the same resolution,
    which is the hook for constraining the theta-w relationship.
    """

    grid_resolution: int = 21
    bound: float = 2.0
    w_mode: str = "ones"
    w_lo: float = 0.0
    w_hi: float = 2.0
    seed: int = 0
    random_samples: int = 20000  # fallback sample count for d > GRID_DIM_LIMIT

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise InputError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if not (np.isfinite(self.bound) and self.bound > 0):
            raise InputError(f"bound must be finite and positive, got {self.bound}")
        if self.w_mode not in ("ones", "grid"):
            raise InputError(f"unknown w_mode {self.w_mode!r}")
        if not (np.isfinite(self.w_lo) and np.isfinite(self.w_hi) and self.w_lo <= self.w_hi):
            raise InputError(f"need finite w_lo <= w_hi, got {self.w_lo} and {self.w_hi}")
        if self.random_samples < 1:
            raise InputError(f"random_samples must be >= 1, got {self.random_samples}")


@dataclass(frozen=True)
class DistortionReport:
    slate_size: int
    learned_winner: int
    regret: float | None  # None when the consistent set is empty
    worst_theta: np.ndarray | None
    worst_w: np.ndarray | None
    delta: float
    metadata: dict = field(default_factory=dict, compare=False)


def _hypotheses(d: int, search: SearchSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (thetas, ws) table, one row per hypothesis in search order.

    The grid runs in ``product`` order, theta outer and w inner; above
    GRID_DIM_LIMIT each sample draws theta, then w, from search.seed.
    With w_mode="ones", ws is one all-ones row broadcast to every theta.
    """
    g = search.grid_resolution
    grid_w = search.w_mode == "grid"
    if d <= GRID_DIM_LIMIT:
        thetas = np.array(list(product(np.linspace(-search.bound, search.bound, g), repeat=d)))
        if grid_w:
            w_rows = np.array(list(product(np.linspace(search.w_lo, search.w_hi, g), repeat=d)))
            return np.repeat(thetas, len(w_rows), axis=0), np.tile(w_rows, (len(thetas), 1))
    else:
        rng = seeded_rng(search.seed)
        n = search.random_samples
        if grid_w:  # bit for bit the n per-sample draws of theta, then w
            lo, hi = [[-search.bound], [search.w_lo]], [[search.bound], [search.w_hi]]
            draws = rng.uniform(lo, hi, size=(n, 2, d))
            return draws[:, 0], draws[:, 1]
        thetas = rng.uniform(-search.bound, search.bound, size=(n, d))
    return thetas, np.broadcast_to(np.ones(d), thetas.shape)


def _screen(thetas: np.ndarray, ws: np.ndarray, deltas: np.ndarray, lam: float, delta: float) -> np.ndarray:
    """Search-order indices of every hypothesis whose exact NLL may lie within delta of the best.

    Each phi = theta * w gets an approximate NLL s: over blocks of the
    table, z = phi @ D.T for the n x d matrix D, then the sum over records
    of softplus(-z_i) = log1p(exp(-|z_i|)) + (|z_i| - z_i) / 2, plus
    lam |phi|^2. Its margin is m = 4 (n + d + 64) eps B, where
    B = sum_j |phi_j| sum_i |D_ij| + n + lam |phi|^2 bounds
    sum_i (|z_i| + 1) + lam |phi|^2, since |z_i| <= sum_j |D_ij| |phi_j|.
    A hypothesis is kept unless s - m > min_k s_k + max_k m_k + delta, a
    cutoff no lower than min_k(s_k + m_k) + delta.

    Why no consistent hypothesis is dropped. Assume exp, log1p and logaddexp
    are each within 4 ULP (numpy's SIMD and scalar loops are) and nothing
    overflows. Then the screen and the exact kernel
    ``_nll_from_deltas(phi, D, lam)`` are each within (n + d + 16) eps B of
    the real-number NLL, up to O(eps^2): d eps for rounding z and |phi|^2
    (each on its own part of B; softplus is 1-Lipschitz), 10 eps per term
    for the transcendentals, n eps for summing n terms in any order, and a
    few eps for the penalty and the last adds. So |s - v| <= m / 2 for the
    exact value v, and the other half of m absorbs the rounding of s - m
    and of the cutoff: fl(s_h - m_h) <= v_h, and the cutoff is at least
    fl(v* + delta), where v* is the exact minimum (v* <= v_k <= s_k + m_k
    for every k). An exactly consistent h has v_h <= fl(v* + delta), so
    fl(s_h - m_h) <= v_h <= fl(v* + delta) <= cutoff: h is kept, and so is
    the exact argmin. The values that decide the outputs are then the same
    floats as when every row is scored exactly. A NaN s or m makes every
    comparison false, and so does an infinite cutoff: then every row is kept.
    """
    n, d = deltas.shape
    rows = max(1, SCREEN_BLOCK // n)
    buf = np.empty((rows, n))
    score, margin = np.empty(len(thetas)), np.empty(len(thetas))
    # sum_i |D_ij| per column, taken in the buffer rather than in a copy of D
    col_abs = np.array([np.abs(col, out=buf[0]).sum() for col in deltas.T])
    row_sum = np.add.reduce  # ndarray.sum's Python wrapper is a real cost on blocks this small
    for start in range(0, len(thetas), rows):
        block = slice(start, start + rows)
        phi = thetas[block] * ws[block]
        z = buf[:len(phi)]
        np.matmul(phi, deltas.T, out=z)
        z_sum = row_sum(z, axis=1)
        np.abs(z, out=z)
        hinge = (row_sum(z, axis=1) - z_sum) / 2  # sum_i max(-z_i, 0)
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.log1p(z, out=z)
        penalty = lam * row_sum(phi * phi, axis=1)
        score[block] = row_sum(z, axis=1) + hinge + penalty
        margin[block] = np.abs(phi) @ col_abs + (n + penalty)  # B until scaled below
    margin *= 4 * (n + d + 64) * np.finfo(np.float64).eps
    # at least min_k(s_k + m_k) + delta, with no temporary the size of the table
    cutoff = np.min(score) + np.max(margin) + delta
    score -= margin
    return np.flatnonzero(~(score > cutoff))


def worst_case_regret(
    model: RewardModel,
    data,
    delta: float,
    search: SearchSpec = SearchSpec(),
) -> DistortionReport:
    """Worst-case welfare regret of the learned winner over the grid.

    The slate is the data's own, ``data.slate``. The learned winner a*
    maximizes the fitted score (ties break to the lowest index). For
    each consistent hypothesis (theta, w), regret is max_a <theta, a> -
    <theta, a*>: true utility ignores w. The maximum over the consistent
    set is reported with its attaining hypothesis; an empty consistent
    set yields regret None with a diagnostic, never a silent zero. The
    NLL threshold is the best NLL achieved on the grid plus delta, so
    delta=0 keeps exactly the grid's own optimum; the continuous fit's
    NLL is reported alongside for reference.
    """
    if not delta >= 0:  # NaN too
        raise InputError(f"delta must be >= 0, got {delta}")
    slate = data.slate
    a_star = int(np.argmax(scores(model, slate)))  # np.argmax ties -> lowest index
    deltas = data.winner_minus_loser()

    # Each kept hypothesis is scored with the kernel nll() uses, one row at
    # a time, so each NLL equals nll(theta * w): a batched matrix product
    # can round differently in the last bit. The threshold is the best NLL
    # achieved on the grid (the continuous fit sits strictly below every
    # grid point, so using it would empty the set at delta=0).
    thetas, ws = _hypotheses(slate.shape[1], search)
    kept = _screen(thetas, ws, deltas, model.lam, delta)
    vals = np.fromiter(
        (_nll_from_deltas(thetas[i] * ws[i], deltas, model.lam) for i in kept),
        dtype=np.float64, count=kept.size,
    )
    finite = np.isfinite(vals)
    best_nll = float(np.min(vals[finite])) if finite.any() else np.inf
    consistent = kept[finite & (vals <= best_nll + delta)]

    regret = worst = None
    if consistent.size:
        utilities = (slate @ thetas[i] for i in consistent)
        regrets = np.fromiter((np.max(u) - u[a_star] for u in utilities),
                              dtype=np.float64, count=consistent.size)
        k = int(np.argmax(regrets))  # the first maximizer in search order
        regret = float(regrets[k])
        worst = consistent[k]

    metadata = {
        "grid_resolution": search.grid_resolution,
        "bound": search.bound,
        "w_mode": search.w_mode,
        "seed": search.seed,
        "hypotheses_evaluated": len(thetas),
        "consistent_count": int(consistent.size),
        "best_nll": best_nll,
        "fit_nll": model.final_nll,
        "lambda": model.lam,
    }
    if regret is None:
        metadata["diagnostic"] = (
            "no grid hypothesis fell within delta of the best NLL; "
            "refine the grid or increase delta"
        )
    return DistortionReport(
        slate_size=len(slate),
        learned_winner=a_star,
        regret=regret,
        worst_theta=None if worst is None else thetas[worst].copy(),
        worst_w=None if worst is None else ws[worst].copy(),
        delta=float(delta),
        metadata=metadata,
    )
