"""Axiom audits for a fitted preference-modeling voting rule.

Three audits over a finite candidate slate: unanimity (every sampled
voter agrees on the gap), Condorcet consistency (the analytic population
mean agrees), and consistency (every retrained large-enough voter-block
model agrees). Each audit builds one epsilon-independent m x m gap
matrix, then reports once per epsilon through one dominance kernel: the
dominated set A'_a of anchor a holds the alternatives the condition ranks
strictly below a by more than epsilon, and a violation is flagged
whenever the audited model's score gap fails to exceed epsilon on such a
pair. Score-gap comparisons are strict with no floating tolerance; the
minimum margin over checked pairs is reported so near-misses stay
visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InputError
from .estimation import score
from .model import RewardModel
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


def _validate(axiom: str, slate, epsilons) -> list[float]:
    if len(slate) < 2:
        raise InputError(f"{axiom} audit needs a slate of >= 2 alternatives")
    epsilons = [float(e) for e in epsilons]
    for e in epsilons:
        if not (math.isfinite(e) and e >= 0):
            raise InputError(f"epsilon must be finite and >= 0, got {e!r}")
    return epsilons


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
            AnchorResult(
                anchor=i,
                dominated=tuple(np.flatnonzero(dom).tolist()),
                violations=tuple((i, j) for j in np.flatnonzero(bad).tolist()),
                vacuous=not dom.any(),
            )
            for i, (dom, bad) in enumerate(zip(dominated, violated))
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


def _score_gap_matrix(model: RewardModel, slate) -> np.ndarray:
    scores = np.array([score(model, a) for a in slate])
    return scores[:, None] - scores[None, :]


def audit_unanimity(model: RewardModel, slate, voters, epsilons) -> list[AxiomReport]:
    """Check empirical unanimity over the sampled voter set, once per epsilon.

    A'_a holds the alternatives every voter ranks below a by more than
    epsilon; the model must then also score a above them by more than
    epsilon.
    """
    epsilons = _validate("unanimity", slate, epsilons)
    if not voters:
        raise InputError("unanimity audit needs at least one voter")
    score_gaps = _score_gap_matrix(model, slate)
    thetas = np.stack([v.theta for v in voters])
    rewards = thetas @ np.array(slate, dtype=np.float64).T  # voters x slate
    gap = np.full_like(score_gaps, np.inf)
    for r in rewards:  # running minimum over voters, m x m memory
        np.minimum(gap, r[:, None] - r[None, :], out=gap)
    return _dominance_reports(
        "unanimity", epsilons, gap, score_gaps,
        {"voter_count": len(voters), "gap_source": "sampled voters (empirical)"},
    )


def audit_condorcet(model: RewardModel, slate, pop, epsilons) -> list[AxiomReport]:
    """Check Condorcet consistency against the analytic population mean, once per epsilon."""
    epsilons = _validate("condorcet", slate, epsilons)
    score_gaps = _score_gap_matrix(model, slate)
    alts = np.array(slate, dtype=np.float64)
    mean = pop.expected_theta()
    if mean.shape != alts.shape[1:]:
        raise InputError("alternative dimension differs from population dimension")
    # np.dot sums each entry E[theta] . (a - a') in the same order as a 1-D dot
    gap = np.dot(alts[:, None] - alts[None, :], mean)
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


def audit_consistency(
    trainer,
    data,
    slate,
    epsilons,
    scheme: ConsistencyScheme = ConsistencyScheme(),
    model: RewardModel | None = None,
) -> list[AxiomReport]:
    """Check consistency by retraining on random voter partitions, once per epsilon.

    ``trainer`` maps a Dataset to a RewardModel. Voters are split
    into num_blocks blocks (each >= min_fraction of the voters) for each
    of num_partitions random partitions, and each block model is fitted
    once for every epsilon; A'_a holds the pairs on which every
    successfully retrained block model's score gap exceeds epsilon. The
    full-data model (fit by the same trainer when not supplied) must then
    agree. A block holds its voters' records, voter by voter in block
    order. A partition with a non-convergent block fit is skipped,
    counted in metadata. With every partition skipped there is no
    evidence either way, so the audit fails with a diagnostic instead of
    passing vacuously.
    """
    epsilons = _validate("consistency", slate, epsilons)
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
        gap = np.min(np.stack([_score_gap_matrix(m, slate) for m in block_models]), axis=0)
    else:
        # no usable partition: nothing is certified dominated
        gap = np.full_like(score_gaps, -np.inf)
        reason = skip_reasons[0] if skip_reasons else "none was requested"
        metadata["diagnostic"] = f"no usable voter partition of {scheme.num_partitions}: {reason}"
    reports = _dominance_reports("consistency", epsilons, gap, score_gaps, metadata)
    # with no usable partition the audit has no evidence to pass on
    return reports if block_models else [replace(r, passed=False) for r in reports]
