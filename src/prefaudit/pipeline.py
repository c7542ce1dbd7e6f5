"""Seeded experiment pipeline: simulate -> fit -> audit -> distort.

Each stage derives its own RNG substream from the root seed by a stable
hash of (root seed, stage name, index), so artifacts reproduce
bit-for-bit regardless of which stages run or in what order. All stage
outputs land under the run's output directory; the manifest echoes the
full config with defaults applied, every derived seed, and library
versions (its wall-clock entry is the one field that varies between
otherwise identical runs).
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .annotation import generate_dataset
from .axioms import audit_condorcet, audit_consistency, audit_unanimity
from .config import ExperimentConfig
from .distortion import worst_case_regret
from .errors import PrefAuditError
from .estimation import fit_mle
from .population import sample_alternatives, sample_voters
from .serialize import (
    axiom_report_to_dict,
    distortion_report_to_dict,
    dump_json,
    load_json,
    model_from_dict,
    model_to_dict,
    read_records,
    read_slate,
    read_voters,
    write_records,
    write_slate,
    write_voters,
)

__all__ = ["child_seed", "run_pipeline", "STAGES"]

STAGES = ("simulate", "fit", "audit", "distort")

DATASET_FILE = "dataset.records"
SLATE_FILE = "slate.json"
VOTERS_FILE = "voters.json"
MODEL_FILE = "model.json"
AXIOMS_FILE = "axioms.json"
DISTORTION_FILE = "distortion.json"
MANIFEST_FILE = "manifest.json"


def child_seed(root_seed: int, stage: str, index: int = 0) -> int:
    """Stable 64-bit substream seed derived from (root, stage, index)."""
    digest = hashlib.sha256(f"{root_seed}:{stage}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stage_simulate(config: ExperimentConfig, out: Path) -> dict:
    voters = sample_voters(config.population, config.num_voters, child_seed(config.seed, "voters"))
    slate = sample_alternatives(
        config.alternatives, config.num_alternatives, child_seed(config.seed, "alternatives")
    )
    records = generate_dataset(
        voters,
        slate,
        config.pair_scheme,
        config.assignment,
        config.label_scheme,
        child_seed(config.seed, "annotate"),
    )
    write_voters(out / VOTERS_FILE, voters)
    write_slate(out / SLATE_FILE, slate)
    write_records(out / DATASET_FILE, records)
    return {"voters": len(voters), "alternatives": len(slate), "records": len(records)}


def stage_fit(config: ExperimentConfig, out: Path) -> dict:
    records = read_records(out / DATASET_FILE)
    model = fit_mle(records, lam=config.lam, max_iters=config.max_iters, grad_tol=config.grad_tol)
    dump_json(out / MODEL_FILE, model_to_dict(model))
    return {"converged": model.converged, "iterations": model.iterations, "final_nll": model.final_nll}


def _trainer(config: ExperimentConfig):
    def train(records):
        return fit_mle(records, lam=config.lam, max_iters=config.max_iters, grad_tol=config.grad_tol)

    return train


def stage_audit(config: ExperimentConfig, out: Path) -> dict:
    records = read_records(out / DATASET_FILE)
    slate = read_slate(out / SLATE_FILE)
    voters = read_voters(out / VOTERS_FILE)
    model = model_from_dict(load_json(out / MODEL_FILE))
    scheme = replace(config.consistency, seed=child_seed(config.seed, "consistency"))
    reports = []
    for eps in config.epsilons:
        reports.append(audit_unanimity(model, slate, voters, eps))
        reports.append(audit_condorcet(model, slate, config.population, eps))
        reports.append(
            audit_consistency(
                _trainer(config),
                records,
                slate,
                eps,
                scheme=scheme,
                model=model,
            )
        )
    dump_json(out / AXIOMS_FILE, [axiom_report_to_dict(r) for r in reports])
    return {
        "reports": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": sum(1 for r in reports if not r.passed),
    }


def stage_distort(config: ExperimentConfig, out: Path) -> dict:
    if not config.distortion_enabled:
        return {"skipped": True}
    records = read_records(out / DATASET_FILE)
    slate = read_slate(out / SLATE_FILE)
    model = model_from_dict(load_json(out / MODEL_FILE))
    report = worst_case_regret(model, slate, records, config.delta, config.search)
    dump_json(out / DISTORTION_FILE, distortion_report_to_dict(report))
    return {"regret": report.regret, "learned_winner": report.learned_winner}


_STAGE_FNS = {
    "simulate": stage_simulate,
    "fit": stage_fit,
    "audit": stage_audit,
    "distort": stage_distort,
}


def run_pipeline(config: ExperimentConfig, out_dir, stages=STAGES) -> dict:
    """Run the requested stages and write the manifest; returns it.

    A stage failure writes a partial manifest naming the failed stage,
    then re-raises.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": config.echo(),
        "seeds": {
            "root": config.seed,
            "voters": child_seed(config.seed, "voters"),
            "alternatives": child_seed(config.seed, "alternatives"),
            "annotate": child_seed(config.seed, "annotate"),
            "consistency": child_seed(config.seed, "consistency"),
        },
        "versions": {
            "prefaudit": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "stages": {},
    }
    start = time.monotonic()
    for stage in stages:
        if stage not in _STAGE_FNS:
            raise PrefAuditError(f"unknown stage {stage!r}")
        try:
            manifest["stages"][stage] = _STAGE_FNS[stage](config, out)
        except PrefAuditError as e:
            manifest["failed_stage"] = stage
            manifest["error"] = str(e)
            manifest["wall_clock_s"] = time.monotonic() - start
            dump_json(out / MANIFEST_FILE, manifest)
            raise
    manifest["wall_clock_s"] = time.monotonic() - start
    dump_json(out / MANIFEST_FILE, manifest)
    return manifest
