"""Axiom audits for a fitted preference-modeling voting rule.

Three audits over a finite candidate slate: unanimity (every sampled
voter agrees on the gap), Condorcet consistency (the analytic population
mean agrees), and consistency (every retrained large-enough voter-block
model agrees; the block models are fitted in batches by the estimation
kernel, over one ``Dataset.pair_table`` per batch). The unanimity gap,
each pair's minimum reward gap over voters, takes two passes over a slate
x voters table: over the voters S first to hold some alternative's lowest or
highest reward, then over all V voters on the pairs still above the
smallest epsilon, m^2 // V pairs at a time. A minimum over S is never
below that over all voters, so a pair pass 1 closes is dominated at no
epsilon: it is exact, in O(|S| m^2 + V open pairs) time and one m x m
buffer (a point mass leaves every untied pair open). Each audit builds one
epsilon-independent m x m gap matrix, then reports once per epsilon
through one dominance kernel: the dominated set A'_a of anchor a holds
the alternatives the condition ranks strictly below a by more than
epsilon, and a violation is flagged whenever the audited model's score
gap fails to exceed epsilon on such a pair. Score-gap comparisons are
strict with no floating tolerance; the minimum margin over checked pairs
is reported so near-misses stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .errors import ConfigError, InputError
from .estimation import (
    DEFAULT_GRAD_TOL, DEFAULT_LAMBDA, DEFAULT_MAX_ITERS, _fit_counts, fit_mle, scores,
)
from .model import RewardModel, _check_lambda, slate_array
from .population import seeded_rng

__all__ = [
    "AnchorResult",
    "AxiomReport",
    "ConsistencyScheme",
    "audit_unanimity",
    "audit_condorcet",
    "audit_consistency",
]


@dataclass(frozen=True)
class AnchorResult:
    """Audit outcome for one anchor alternative (slate index)."""

    anchor: int
    dominated: tuple  # slate indices in A'_a
    violations: tuple  # (anchor, a') pairs where the score condition failed
    vacuous: bool  # A'_a is empty: pass carries no information


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    epsilon: float
    slate_size: int
    anchors: tuple
    passed: bool
    min_margin: float | None  # min over checked pairs of (score gap - epsilon)
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def vacuous(self) -> bool:
        return all(a.vacuous for a in self.anchors)

    @property
    def violations(self) -> tuple:
        return tuple(v for a in self.anchors for v in a.violations)


def _epsilons(epsilons) -> list[float]:
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise InputError("need at least one epsilon")
    for e in epsilons:
        if not (math.isfinite(e) and e >= 0):
            raise InputError(f"epsilon must be finite and >= 0, got {e!r}")
    return epsilons


def _row_indices(mask: np.ndarray) -> list[tuple]:
    """The column indices of each row of a boolean matrix, one tuple per row,
    cut from one row-major nonzero at the cumulative row counts.
    """
    columns = np.nonzero(mask)[1].tolist()
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [tuple(columns[start:end]) for start, end in zip([0, *ends], ends)]


def _dominance_reports(axiom, epsilons, gap, score_gaps, metadata) -> list[AxiomReport]:
    """The dominance kernel: one report per epsilon from one gap matrix.

    ``gap[i, j]`` is the condition's value for anchor i over alternative j
    and ``score_gaps[i, j]`` the audited model's score gap.
    """
    off_diagonal = ~np.eye(len(gap), dtype=bool)
    reports = []
    for eps in epsilons:
        dominated = (gap > eps) & off_diagonal
        violated = dominated & ~(score_gaps > eps)
        margins = score_gaps[dominated] - eps
        anchors = tuple(
            AnchorResult(anchor=i, dominated=dom, violations=tuple((i, j) for j in bad), vacuous=not dom)
            for i, (dom, bad) in enumerate(zip(_row_indices(dominated), _row_indices(violated)))
        )
        reports.append(AxiomReport(
            axiom=axiom,
            epsilon=eps,
            slate_size=len(gap),
            anchors=anchors,
            passed=not violated.any(),
            min_margin=float(margins.min()) if margins.size else None,
            metadata=dict(metadata),
        ))
    return reports


def _score_gap_matrix(model: RewardModel, slate: np.ndarray) -> np.ndarray:
    s = scores(model, slate)
    return s[:, None] - s[None, :]


def audit_unanimity(model: RewardModel, slate, voters, epsilons) -> list[AxiomReport]:
    """Check empirical unanimity over the sampled voter set, once per epsilon.

    A'_a holds the alternatives every voter ranks below a by more than
    epsilon; the model must then also score a above them by more than
    epsilon.
    """
    slate = slate_array(slate)
    epsilons = _epsilons(epsilons)
    if not voters:
        raise InputError("unanimity audit needs at least one voter")
    if {v.theta.shape for v in voters} != {slate.shape[1:]}:
        raise InputError(f"dimension mismatch: every voter needs the slate's dimension {slate.shape[1]}")
    score_gaps = _score_gap_matrix(model, slate)
    # slate x voters, each entry a 1-D dot (a matrix product rounds differently)
    rewards = np.dot(slate[:, None], np.stack([v.theta for v in voters]).T)[:, 0]
    return _dominance_reports(
        "unanimity", epsilons, _unanimity_gap(rewards, min(epsilons)), score_gaps,
        {"voter_count": len(voters), "gap_source": "sampled voters (empirical)"},
    )


def _unanimity_gap(rewards, floor) -> np.ndarray:
    """min over voters v of rewards[i, v] - rewards[j, v] where it exceeds
    floor; elsewhere a bound <= floor (see the module docstring)."""
    m, n = rewards.shape
    size = max(1, m * m // n)  # pass-2 pairs per chunk: both passes share one buffer
    buffer = np.empty(max(m * m, size * n))
    square, block = buffer[:m * m].reshape(m, m), buffer[:size * n].reshape(size, n)
    # the first voter with each alternative's lowest and highest reward (argmin
    # would map 64 KiB more of numpy's code into every run)
    extreme = np.zeros(n, dtype=bool)
    for best in (rewards.min(axis=1), rewards.max(axis=1)):
        alternatives, holders = np.nonzero(rewards == best[:, None])
        first = np.ones(len(holders), dtype=bool)
        first[1:] = alternatives[1:] != alternatives[:-1]
        extreme[holders[first]] = True
    gap = np.full((m, m), np.inf)
    for r in rewards.T[extreme]:
        np.subtract(r[:, None], r, out=square)
        np.minimum(gap, square, out=gap)
    for i, row in enumerate(gap > floor):
        columns = np.flatnonzero(row)
        for start in range(0, len(columns), size):
            part = columns[start:start + size]
            chunk = block[:len(part)]
            np.take(rewards, part, axis=0, out=chunk, mode="clip")  # "raise" would buffer out
            np.subtract(rewards[i], chunk, out=chunk)
            gap[i, part] = chunk.min(axis=1)
    return gap


def audit_condorcet(model: RewardModel, slate, pop, epsilons) -> list[AxiomReport]:
    """Check Condorcet consistency against the analytic population mean, once per epsilon."""
    slate = slate_array(slate)
    epsilons = _epsilons(epsilons)
    score_gaps = _score_gap_matrix(model, slate)
    mean = pop.expected_theta()
    if mean.shape != slate.shape[1:]:
        raise InputError("alternative dimension differs from population dimension")
    # np.dot sums each entry E[theta] . (a - a') in the same order as a 1-D dot
    gap = np.dot(slate[:, None] - slate[None, :], mean)
    return _dominance_reports(
        "condorcet", epsilons, gap, score_gaps, {"gap_source": "analytic population mean"}
    )


@dataclass(frozen=True)
class ConsistencyScheme:
    """Voter-partition scheme for the consistency audit."""

    num_blocks: int = 2
    min_fraction: float = 0.4
    num_partitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.num_blocks < 2:
            raise ConfigError(f"number of blocks must be >= 2, got {self.num_blocks}")
        # the smallest of k blocks holds at most 1/k of the voters; NaN fails too
        if not 0 <= self.min_fraction <= 1 / self.num_blocks:
            raise ConfigError(
                f"min_fraction must be in [0, 1/{self.num_blocks}] for {self.num_blocks} blocks, "
                f"got {self.min_fraction}"
            )
        if self.num_partitions < 0:
            raise ConfigError(f"number of partitions must be >= 0, got {self.num_partitions}")


# A batch of block fits spans at most this many (block, pair-table cell)
# terms, so it adds little to a run's memory
FIT_BLOCK = 2048


def _block_models(data, by_voter, blocks, lam, max_iters, grad_tol) -> list[RewardModel]:
    """A model per block of voters (indices into by_voter, each voter's records),
    fitted FIT_BLOCK // m^2 blocks at a time over one ``Dataset.pair_table`` of
    their records."""
    size = max(1, FIT_BLOCK // len(data.slate) ** 2)
    models = []
    for start in range(0, len(blocks), size):
        batch = blocks[start:start + size]
        deltas, counts = data.pair_table([np.concatenate([by_voter[v] for v in block]) for block in batch])
        models += _fit_counts(deltas, counts, lam, max_iters, grad_tol, np.zeros((len(batch), data.dim)))
    return models


def audit_consistency(
    data,
    epsilons,
    scheme: ConsistencyScheme = ConsistencyScheme(),
    model: RewardModel | None = None,
    *,
    lam: float = DEFAULT_LAMBDA,
    max_iters: int = DEFAULT_MAX_ITERS,
    grad_tol: float = DEFAULT_GRAD_TOL,
) -> list[AxiomReport]:
    """Check consistency by retraining on random voter partitions, once per epsilon.

    The audited slate is ``data.slate``. Voters are split into num_blocks
    blocks (each >= min_fraction of the voters) for each of num_partitions
    random partitions, and each block model is fitted once, as ``fit_mle``
    with the given settings fits the block's records; A'_a holds the pairs
    on which every successfully retrained block model's score gap exceeds
    epsilon. The full-data model (so fitted when not supplied) must then
    agree. A partition with a non-convergent block fit is skipped, counted
    in metadata. With every partition skipped there is no evidence either
    way, so the audit fails with a diagnostic instead of passing
    vacuously. ``block_grad_norm`` in metadata is the largest final
    max-abs gradient of the block fits used.
    """
    _check_lambda(lam)
    epsilons = _epsilons(epsilons)
    # each voter's row indices in record order, voters by ascending id
    order = np.argsort(data.voter, kind="stable")
    voter_ids, starts = np.unique(data.voter[order], return_index=True)
    by_voter = np.split(order, starts[1:])
    n = len(voter_ids)
    if n < 2:
        raise InputError("consistency audit needs >= 2 voters with data")
    k = scheme.num_blocks
    if k > n:
        raise ConfigError(f"num_blocks must be in [2, {n}]")
    if n // k < scheme.min_fraction * n:
        # equal-as-possible split: smallest block has n // k voters
        raise ConfigError(
            f"{k} blocks over {n} voters cannot each hold >= "
            f"{scheme.min_fraction:.0%} of the voters"
        )

    rng = seeded_rng(scheme.seed)
    blocks = []
    for _ in range(scheme.num_partitions):
        perm = rng.permutation(n)
        blocks += [perm[b::k] for b in range(k)]
    fits = _block_models(data, by_voter, blocks, lam, max_iters, grad_tol) if blocks else []
    block_models = []
    skip_reasons = []
    for start in range(0, len(fits), k):
        partition = fits[start:start + k]
        failed = [f for f in partition if not f.converged]
        if failed:
            skip_reasons.append(f"a block fit did not converge ({failed[0].diagnostic})")
        else:
            block_models += partition
    if model is None:
        model = fit_mle(data, lam, max_iters, grad_tol)
    score_gaps = _score_gap_matrix(model, data.slate)
    metadata = {
        "num_blocks": k,
        "min_fraction": scheme.min_fraction,
        "num_partitions": scheme.num_partitions,
        "seed": scheme.seed,
        "skipped_partitions": len(skip_reasons),
        "voter_count": n,
        "block_grad_norm": max((m.grad_norm for m in block_models), default=None),
    }
    if block_models:
        gap = reduce(np.minimum, (_score_gap_matrix(m, data.slate) for m in block_models))
    else:
        # no usable partition: nothing is certified dominated
        gap = np.full_like(score_gaps, -np.inf)
        reason = skip_reasons[0] if skip_reasons else "none was requested"
        metadata["diagnostic"] = f"no usable voter partition of {scheme.num_partitions}: {reason}"
    reports = _dominance_reports("consistency", epsilons, gap, score_gaps, metadata)
    # with no usable partition the audit has no evidence to pass on
    return reports if block_models else [replace(r, passed=False) for r in reports]
