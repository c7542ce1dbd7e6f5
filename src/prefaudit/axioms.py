"""Axiom audits for a fitted preference-modeling voting rule.

Three audits over a finite candidate slate: unanimity (every sampled
voter agrees on the gap), Condorcet consistency (the analytic population
mean agrees), and consistency (every retrained large-enough voter-block
model agrees). Each audit builds, per anchor alternative a, the dominated
set A'_a of alternatives the condition ranks strictly below a by more
than epsilon, then flags a violation whenever the audited model's score
gap fails to exceed epsilon on such a pair. Score-gap comparisons are
strict with no floating tolerance; the minimum margin over checked pairs
is reported so near-misses stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InputError
from .estimation import score
from .model import RewardModel
from .population import population_mean_gap, seeded_rng

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


def _assemble(axiom, epsilon, slate, gap_fn, score_gaps, metadata) -> AxiomReport:
    """Shared audit skeleton: gap_fn(i, j) gives the dominance condition value."""
    anchors = []
    min_margin = None
    for i in range(len(slate)):
        dominated = []
        violations = []
        for j in range(len(slate)):
            if j == i:
                continue
            if gap_fn(i, j) > epsilon:
                dominated.append(j)
                margin = score_gaps[i, j] - epsilon
                if min_margin is None or margin < min_margin:
                    min_margin = margin
                if not score_gaps[i, j] > epsilon:
                    violations.append((i, j))
        anchors.append(
            AnchorResult(
                anchor=i,
                dominated=tuple(dominated),
                violations=tuple(violations),
                vacuous=not dominated,
            )
        )
    passed = all(not a.violations for a in anchors)
    return AxiomReport(
        axiom=axiom,
        epsilon=float(epsilon),
        slate_size=len(slate),
        anchors=tuple(anchors),
        passed=passed,
        min_margin=min_margin,
        metadata=metadata,
    )


def _score_gap_matrix(model: RewardModel, slate) -> np.ndarray:
    scores = np.array([score(model, a) for a in slate])
    return scores[:, None] - scores[None, :]


def audit_unanimity(model: RewardModel, slate, voters, epsilon: float) -> AxiomReport:
    """Check empirical unanimity over the sampled voter set.

    A'_a holds the alternatives every voter ranks below a by more than
    epsilon; the model must then also score a above them by more than
    epsilon.
    """
    if len(slate) < 2:
        raise InputError("unanimity audit needs a slate of >= 2 alternatives")
    if not voters:
        raise InputError("unanimity audit needs at least one voter")
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    thetas = np.stack([v.theta for v in voters])
    alts = np.stack([np.asarray(a, dtype=np.float64) for a in slate])
    rewards = thetas @ alts.T  # voters x slate
    min_gaps = np.min(rewards[:, :, None] - rewards[:, None, :], axis=0)
    score_gaps = _score_gap_matrix(model, slate)
    return _assemble(
        "unanimity",
        epsilon,
        slate,
        lambda i, j: min_gaps[i, j],
        score_gaps,
        {"voter_count": len(voters), "gap_source": "sampled voters (empirical)"},
    )


def audit_condorcet(model: RewardModel, slate, pop, epsilon: float) -> AxiomReport:
    """Check Condorcet consistency against the analytic population mean."""
    if len(slate) < 2:
        raise InputError("condorcet audit needs a slate of >= 2 alternatives")
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    score_gaps = _score_gap_matrix(model, slate)
    return _assemble(
        "condorcet",
        epsilon,
        slate,
        lambda i, j: population_mean_gap(pop, slate[i], slate[j]),
        score_gaps,
        {"gap_source": "analytic population mean"},
    )


@dataclass(frozen=True)
class ConsistencyScheme:
    """Voter-partition scheme for the consistency audit."""

    num_blocks: int = 2
    min_fraction: float = 0.4
    num_partitions: int = 10
    seed: int = 0


def audit_consistency(
    trainer,
    data,
    slate,
    epsilon: float,
    scheme: ConsistencyScheme = ConsistencyScheme(),
    model: RewardModel | None = None,
) -> AxiomReport:
    """Check consistency by retraining on random voter partitions.

    ``trainer`` maps a Dataset to a RewardModel. Voters are split
    into num_blocks blocks (each >= min_fraction of the voters) for each
    of num_partitions random partitions; A'_a holds the pairs on which
    every successfully retrained block model's score gap exceeds
    epsilon. The full-data model (fit by the same trainer when not
    supplied) must then agree. A block holds its voters' records, voter
    by voter in block order. A partition with a non-convergent block fit
    is skipped, counted in metadata. With every partition skipped there
    is no evidence either way, so the audit fails with a diagnostic
    instead of passing vacuously.
    """
    if len(slate) < 2:
        raise InputError("consistency audit needs a slate of >= 2 alternatives")
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    # each voter's row indices in record order, voters by ascending id
    order = np.argsort(data.voter, kind="stable")
    voter_ids, starts = np.unique(data.voter[order], return_index=True)
    by_voter = np.split(order, starts[1:])
    n = len(voter_ids)
    if n < 2:
        raise InputError("consistency audit needs >= 2 voters with data")
    k = scheme.num_blocks
    if k < 2 or k > n:
        raise ConfigError(f"num_blocks must be in [2, {n}]")
    if n // k < scheme.min_fraction * n:
        # equal-as-possible split: smallest block has n // k voters
        raise ConfigError(
            f"{k} blocks over {n} voters cannot each hold >= "
            f"{scheme.min_fraction:.0%} of the voters"
        )

    rng = seeded_rng(scheme.seed)
    block_models = []
    skip_reasons = []
    for _ in range(scheme.num_partitions):
        perm = rng.permutation(n)
        blocks = [perm[b::k] for b in range(k)]
        fits = []
        for block in blocks:
            fitted = trainer(data.take(np.concatenate([by_voter[v] for v in block])))
            if not fitted.converged:
                skip_reasons.append(f"a block fit did not converge ({fitted.diagnostic})")
                break
            fits.append(fitted)
        else:
            block_models.extend(fits)
    if model is None:
        model = trainer(data)
    score_gaps = _score_gap_matrix(model, slate)
    metadata = {
        "num_blocks": k,
        "min_fraction": scheme.min_fraction,
        "num_partitions": scheme.num_partitions,
        "seed": scheme.seed,
        "skipped_partitions": len(skip_reasons),
        "voter_count": n,
    }
    if block_models:
        block_gaps = np.stack([_score_gap_matrix(m, slate) for m in block_models])
        min_block_gap = np.min(block_gaps, axis=0)
    else:
        # no usable partition: nothing is certified dominated
        min_block_gap = np.full_like(score_gaps, -np.inf)
        reason = skip_reasons[0] if skip_reasons else "none was requested"
        metadata["diagnostic"] = f"no usable voter partition of {scheme.num_partitions}: {reason}"
    report = _assemble(
        "consistency",
        epsilon,
        slate,
        lambda i, j: min_block_gap[i, j],
        score_gaps,
        metadata,
    )
    # with no usable partition the audit has no evidence to pass on
    return report if block_models else replace(report, passed=False)
