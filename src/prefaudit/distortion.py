"""Worst-case welfare regret over vote-consistent hidden hypotheses.

An annotation-generating hypothesis is a pair (theta, w): labels follow
the proxy reward sum_j theta_j w_j a_j, but true welfare depends on
theta alone. A hypothesis is consistent with the observed votes when the
NLL of its effective parameter theta * w sits within ``delta`` of the
best NLL found. Regret of the learned rule's winner is then maximized
over the consistent hypotheses on an exhaustive grid (random sampling
above d=3, where the grid explodes).

The search scores every hypothesis exactly, in blocks, by the kernel of
``nll``: each score sums over the distinct (winner, loser) pairs weighted
by their counts, and equals ``nll(theta * w)`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product

import numpy as np

from .errors import InputError
# nll is unused here but stays importable: the benchmark's tracer wraps
# prefaudit.distortion.nll, and a test patches it to prove that the search
# never calls it per hypothesis
from .estimation import _nll_rows, nll, scores
from .model import RewardModel
from .population import seeded_rng

__all__ = ["SearchSpec", "DistortionReport", "worst_case_regret"]

GRID_DIM_LIMIT = 3
# The search scores about this many (hypothesis, pair) terms per block (at
# least one hypothesis). A block's temporaries are three arrays of its size:
# the kernel's two and numpy's buffer for the count row it broadcasts. At
# 4,096 terms they raised grid-d3's peak RSS by about 0.1 MiB; at 2,048, not.
SEARCH_BLOCK = 2048


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

    def grid(lo, hi):  # with no list of g^d tuples
        points = chain.from_iterable(product(np.linspace(lo, hi, g), repeat=d))
        return np.fromiter(points, np.float64, g**d * d).reshape(g**d, d)

    if d <= GRID_DIM_LIMIT:
        thetas = grid(-search.bound, search.bound)
        if grid_w:
            w_rows = grid(search.w_lo, search.w_hi)
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


def _first_max(values: np.ndarray) -> int:
    """np.argmax of values without NaN, whose own loops no earlier stage
    touches: reading them in added 64 KiB to a d=3 run's peak RSS (numpy 2.4)."""
    return int(np.flatnonzero(~(values < values.max()))[0])


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
    a_star = _first_max(scores(model, slate))  # ties -> lowest index

    # Each hypothesis is scored by the kernel of nll(), so each NLL is
    # nll(theta * w). The threshold is the best NLL on the grid (the fit sits
    # strictly below every grid point, so it would empty the set at delta=0).
    thetas, ws = _hypotheses(slate.shape[1], search)
    deltas, (counts,) = data.pair_table()
    rows = max(1, SEARCH_BLOCK // len(deltas))
    vals = np.empty(len(thetas))
    for start in range(0, len(thetas), rows):
        block = slice(start, start + rows)
        vals[block] = _nll_rows(thetas[block] * ws[block], deltas, counts, model.lam)
    finite = np.isfinite(vals)
    best_nll = float(np.min(vals[finite])) if finite.any() else np.inf
    consistent = np.flatnonzero(finite & (vals <= best_nll + delta))

    regret = worst = None
    if consistent.size:
        utilities = (slate @ thetas[i] for i in consistent)
        regrets = np.fromiter((np.max(u) - u[a_star] for u in utilities),
                              dtype=np.float64, count=consistent.size)
        k = _first_max(regrets)  # the first maximizer in search order
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
