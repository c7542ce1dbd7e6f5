"""Output checks and the output fingerprint of one workload run.

The checks recompute what they can in plain numpy, independent of the
program's own kernels, and use ``prefaudit.oracle`` only where the
program ships a brute-force reference. They run outside every timed
region.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from prefaudit.config import load_config
from prefaudit.model import VoterParams
from prefaudit.oracle import exhaustive_axiom_check
from prefaudit.pipeline import (
    AXIOMS_FILE,
    DATASET_FILE,
    DISTORTION_FILE,
    MODEL_FILE,
    SLATE_FILE,
    VOTERS_FILE,
)
from prefaudit.serialize import axiom_report_from_dict, model_from_dict

ARTIFACTS = (DATASET_FILE, SLATE_FILE, VOTERS_FILE, MODEL_FILE, AXIOMS_FILE, DISTORTION_FILE)
ORACLE_MAX_SLATE = 50  # exhaustive_axiom_check refuses larger slates


def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


def artifact_digests(out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def _winner_deltas(out: Path) -> np.ndarray:
    """Winner-minus-loser rows parsed straight from the records file."""
    rows = []
    for line in (out / DATASET_FILE).read_text().splitlines():
        f = dict(tok.split("=", 1) for tok in line.split())
        a0 = np.array(f["a0"].split(","), dtype=np.float64)
        a1 = np.array(f["a1"].split(","), dtype=np.float64)
        rows.append(a1 - a0 if f["label"] == "1" else a0 - a1)
    return np.array(rows)


def _naive_nll(theta, deltas, lam) -> float:
    return float(np.sum(np.log1p(np.exp(-(deltas @ theta)))) + lam * np.sum(theta * theta))


def _naive_grad(theta, deltas, lam) -> np.ndarray:
    p_lose = 1.0 / (1.0 + np.exp(deltas @ theta))
    return -(p_lose[:, None] * deltas).sum(axis=0) + 2.0 * lam * theta


def _population_mean(spec: dict) -> np.ndarray:
    if spec["kind"] == "point-mass":
        return np.array(spec["theta"], dtype=np.float64)
    if spec["kind"] == "gaussian":
        return np.array(spec["mean"], dtype=np.float64)
    return sum(c["weight"] * np.array(c["mean"], dtype=np.float64) for c in spec["components"])


def _numpy_audit(gap: np.ndarray, scores: np.ndarray, eps: float) -> list:
    """(dominated, violations) per anchor from a pairwise condition matrix."""
    anchors = []
    for i in range(len(scores)):
        dominated = [j for j in range(len(scores)) if j != i and gap[i, j] > eps]
        violations = [[i, j] for j in dominated if not scores[i] - scores[j] > eps]
        anchors.append((dominated, violations))
    return anchors


def _axiom_checks(out: Path, config, config_raw: dict) -> list:
    reports = [r for r in _load(out, AXIOMS_FILE) if r["axiom"] in ("unanimity", "condorcet")]
    slate = [np.array(a, dtype=np.float64) for a in _load(out, SLATE_FILE)]
    voters_raw = _load(out, VOTERS_FILE)
    model = model_from_dict(_load(out, MODEL_FILE))
    checks = []
    if len(slate) <= ORACLE_MAX_SLATE:
        voters = [VoterParams(voter_id=v["voter_id"], theta=v["theta"]) for v in voters_raw]
        for rep in reports:
            target = voters if rep["axiom"] == "unanimity" else config.population
            want = exhaustive_axiom_check(model, slate, target, rep["epsilon"], rep["axiom"])
            got = axiom_report_from_dict(rep)
            ok = (got.anchors, got.passed, got.min_margin) == (want.anchors, want.passed, want.min_margin)
            checks.append((f"{rep['axiom']} eps={rep['epsilon']:g} equals exhaustive oracle", ok))
        return checks
    alts = np.stack(slate)
    scores = np.array([model.theta_hat @ a for a in alts])
    rewards = np.array([v["theta"] for v in voters_raw]) @ alts.T
    unanimous = np.array([np.min(rewards[:, [i]] - rewards, axis=0) for i in range(len(alts))])
    mean = _population_mean(config_raw["population"])
    condorcet = np.array([(alts[i] - alts) @ mean for i in range(len(alts))])
    for rep in reports:
        gap = unanimous if rep["axiom"] == "unanimity" else condorcet
        want = _numpy_audit(gap, scores, rep["epsilon"])
        got = [(a["dominated"], a["violations"]) for a in rep["anchors"]]
        ok = got == want and rep["passed"] == all(not v for _, v in want)
        checks.append((f"{rep['axiom']} eps={rep['epsilon']:g} equals numpy recomputation", ok))
    return checks


def output_checks(out: Path, config_path: Path, digests: list) -> list:
    """[(name, passed)] for one run directory and the digests of every repetition."""
    config = load_config(config_path)
    config_raw = json.loads(Path(config_path).read_text())
    checks = _axiom_checks(out, config, config_raw)

    m = _load(out, MODEL_FILE)
    theta = np.array(m["theta_hat"])
    deltas = _winner_deltas(out)
    naive = _naive_nll(theta, deltas, config.lam)
    checks.append(("main fit converged", m["converged"] is True))
    checks.append(("main fit final_nll equals numpy NLL", bool(np.isclose(m["final_nll"], naive, rtol=1e-9, atol=0))))
    grad = np.max(np.abs(_naive_grad(theta, deltas, config.lam)))
    checks.append(("numpy gradient at theta_hat within grad_tol", bool(grad <= config.grad_tol)))

    d = _load(out, DISTORTION_FILE)
    meta = d["metadata"]
    alts = np.array(_load(out, SLATE_FILE))
    worst = np.array(d["worst_theta"]) * np.array(d["worst_w"])
    worst_nll = _naive_nll(worst, deltas, meta["lambda"])
    checks.append(("worst hypothesis NLL <= best_nll + delta", bool(worst_nll <= meta["best_nll"] + d["delta"])))
    a_star = int(np.argmax(alts @ theta))
    utilities = alts @ np.array(d["worst_theta"])
    regret = float(np.max(utilities) - utilities[a_star])
    checks.append(("learned winner is the argmax of the fitted score", d["learned_winner"] == a_star))
    checks.append(("regret equals max<theta,a> - <theta,a*>", bool(np.isclose(d["regret"], regret, rtol=1e-12, atol=1e-12))))
    checks.append(("data artifacts byte-identical across repetitions", all(x == digests[0] for x in digests)))
    return checks


def fingerprint(out: Path, digests: dict) -> dict:
    """Outputs a speedup may change; recorded, not gated."""
    m = _load(out, MODEL_FILE)
    audits = _load(out, AXIOMS_FILE)
    d = _load(out, DISTORTION_FILE)
    return {
        "theta_hat": m["theta_hat"],
        "final_nll": m["final_nll"],
        "iterations": m["iterations"],
        "skipped_partitions": {
            f"{a['epsilon']:g}": a["metadata"]["skipped_partitions"] for a in audits if a["axiom"] == "consistency"
        },
        "passed": {f"{a['axiom']} eps={a['epsilon']:g}": a["passed"] for a in audits},
        "regret": d["regret"],
        "hypotheses_evaluated": d["metadata"]["hypotheses_evaluated"],
        "consistent_count": d["metadata"]["consistent_count"],
        "sha256": digests,
    }
