"""Worst-case welfare regret over vote-consistent hidden hypotheses.

An annotation-generating hypothesis is a pair (theta, w): labels follow
the proxy reward sum_j theta_j w_j a_j, but true welfare depends on
theta alone. A hypothesis is consistent with the observed votes when the
NLL of its effective parameter theta * w sits within ``delta`` of the
best NLL found. Regret of the learned rule's winner is then maximized
over the consistent hypotheses on an exhaustive grid (random sampling
above d=3, where the grid explodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import InputError
from .estimation import _nll_from_deltas, fit_mle, nll, score
from .model import RewardModel
from .population import seeded_rng

__all__ = [
    "SearchSpec",
    "DistortionReport",
    "welfare",
    "consistent_set_membership",
    "worst_case_regret",
]

GRID_DIM_LIMIT = 3


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


def welfare(pop, a) -> float:
    """Analytic expected utility of an alternative: <E[theta], a>."""
    a = np.asarray(a, dtype=np.float64)
    mean = pop.expected_theta()
    if mean.shape != a.shape:
        raise InputError("alternative dimension differs from population dimension")
    return float(mean @ a)


def consistent_set_membership(theta, w, data, delta: float, lam: float,
                              best_nll: float | None = None) -> bool:
    """True iff the hypothesis's NLL is within delta of the best found.

    The NLL depends only on the elementwise product theta * w. When
    best_nll is not supplied it is computed once via fit_mle.
    """
    if delta < 0:
        raise InputError("delta must be >= 0")
    theta = np.asarray(theta, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if theta.shape != w.shape:
        raise InputError("theta and w dimensions differ")
    if best_nll is None:
        best_nll = fit_mle(data, lam=lam).final_nll
    try:
        val = nll(theta * w, data, lam)
    except (OverflowError, FloatingPointError):
        return False
    if not np.isfinite(val):
        return False
    return val <= best_nll + delta


def _hypotheses(d: int, search: SearchSpec):
    """Yield (theta, w) candidates in a deterministic order."""
    g = search.grid_resolution
    if d <= GRID_DIM_LIMIT:
        axis = np.linspace(-search.bound, search.bound, g)
        thetas = (np.array(p) for p in product(axis, repeat=d))
        if search.w_mode == "ones":
            ones = np.ones(d)
            for theta in thetas:
                yield theta, ones
        else:
            w_axis = np.linspace(search.w_lo, search.w_hi, g)
            for theta in thetas:
                for wp in product(w_axis, repeat=d):
                    yield theta, np.array(wp)
    else:
        rng = seeded_rng(search.seed)
        for _ in range(search.random_samples):
            theta = rng.uniform(-search.bound, search.bound, size=d)
            if search.w_mode == "ones":
                yield theta, np.ones(d)
            else:
                yield theta, rng.uniform(search.w_lo, search.w_hi, size=d)


def worst_case_regret(
    model: RewardModel,
    slate,
    data,
    delta: float,
    search: SearchSpec = SearchSpec(),
) -> DistortionReport:
    """Worst-case welfare regret of the learned winner over the grid.

    The learned winner a* maximizes the fitted score (ties break to the
    lowest index). For each consistent hypothesis (theta, w), regret is
    max_a <theta, a> - <theta, a*>: true utility ignores w. The maximum
    over the consistent set is reported with its attaining hypothesis;
    an empty consistent set yields regret None with a diagnostic, never
    a silent zero. The NLL threshold is the best NLL achieved on the
    grid plus delta, so delta=0 keeps exactly the grid's own optimum;
    the continuous fit's NLL is reported alongside for reference.
    """
    if len(slate) < 2:
        raise InputError("regret search needs a slate of >= 2 alternatives")
    if not delta >= 0:  # NaN too
        raise InputError(f"delta must be >= 0, got {delta}")
    alts = np.stack([np.asarray(a, dtype=np.float64) for a in slate])
    d = alts.shape[1]
    if model.theta_hat.shape[0] != d:
        raise InputError("model dimension differs from slate dimension")

    lam = model.lam
    deltas = data.winner_minus_loser()
    if deltas.shape[1] != d:
        raise InputError("data dimension differs from slate dimension")

    scores = np.array([score(model, a) for a in slate])
    a_star = int(np.argmax(scores))  # np.argmax ties -> lowest index

    # The winner-minus-loser matrix is built once and every hypothesis is
    # scored with the kernel nll() uses, so each NLL equals nll(theta * w).
    # Pass 1 keeps one NLL per hypothesis and finds the best NLL achieved
    # on the grid (the continuous fit sits strictly below every grid point,
    # so using it would empty the set at delta=0). Pass 2 regenerates the
    # same deterministic stream (the random fallback reseeds from
    # search.seed) and takes the max regret over the consistent
    # hypotheses; the first maximizer in stream order wins.
    fit_nll = model.final_nll
    vals = np.fromiter(
        (_nll_from_deltas(theta * w, deltas, lam) for theta, w in _hypotheses(d, search)),
        dtype=np.float64,
    )
    finite = np.isfinite(vals)
    best_nll = float(np.min(vals[finite])) if finite.any() else np.inf
    consistent = finite & (vals <= best_nll + delta)

    regret = None
    worst = None
    for (theta, w), ok in zip(_hypotheses(d, search), consistent):
        if not ok:
            continue
        utilities = alts @ theta
        r = float(np.max(utilities) - utilities[a_star])
        if regret is None or r > regret:
            regret = r
            worst = (theta, w)

    metadata = {
        "grid_resolution": search.grid_resolution,
        "bound": search.bound,
        "w_mode": search.w_mode,
        "seed": search.seed,
        "hypotheses_evaluated": len(vals),
        "consistent_count": int(np.count_nonzero(consistent)),
        "best_nll": best_nll,
        "fit_nll": fit_nll,
        "lambda": lam,
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
        worst_theta=None if worst is None else worst[0],
        worst_w=None if worst is None else worst[1],
        delta=float(delta),
        metadata=metadata,
    )
