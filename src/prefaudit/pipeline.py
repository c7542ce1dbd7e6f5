"""Seeded experiment pipeline: simulate -> fit -> audit -> distort.

Each stage derives its own RNG substream from the root seed by a stable
hash of (root seed, stage name, index), so artifacts reproduce
bit-for-bit whichever stages run, in any order. All stage outputs land
under the run's output directory; the manifest echoes the full config
with defaults applied, every derived seed, library versions, and the
time taken by the run and by each stage (the only fields that vary
between otherwise identical runs). One RunDir carries the run from
stage to stage and back to the caller. A run of every stage reads
nothing back from disk; a stage run alone reads what it needs.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .annotation import generate_dataset
from .axioms import audit_condorcet, audit_consistency, audit_unanimity
from .config import ExperimentConfig
from .distortion import worst_case_regret
from .errors import InputError, PrefAuditError
from .estimation import fit_mle
from .population import sample_alternatives, sample_voters
from .serialize import (
    distortion_report_to_dict,
    dump_json,
    model_to_dict,
    read_model,
    read_records,
    read_slate,
    read_voters,
    write_axiom_reports,
    write_records,
    write_slate,
    write_voters,
)

__all__ = ["child_seed", "run_pipeline", "RunDir", "STAGES"]

STAGES = ("simulate", "fit", "audit", "distort")
SEED_STREAMS = ("voters", "alternatives", "annotate", "consistency")  # child_seed stream names

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


class RunDir:
    """One run, handed by ``run_pipeline`` from stage to stage and back.

    Simulate sets ``voters``, ``slate`` and ``dataset``, fit ``model``,
    audit ``axioms`` and distort ``distortion``. An artifact no earlier
    stage of the same call produced is read from disk on first use; the
    reports, the ``manifest`` and the ``seeds`` (child seed by stream
    name) never are, so each is None unless this call set it.
    """

    def __init__(self, out: Path, seeds: dict | None = None):
        self.out, self.seeds = out, seeds
        self.axioms = self.distortion = self.manifest = None

    voters = cached_property(lambda self: read_voters(self.out / VOTERS_FILE))
    slate = cached_property(lambda self: read_slate(self.out / SLATE_FILE))
    dataset = cached_property(lambda self: read_records(self.out / DATASET_FILE, self.slate))
    model = cached_property(lambda self: read_model(self.out / MODEL_FILE))


def stage_simulate(config: ExperimentConfig, run: RunDir) -> dict:
    run.voters = sample_voters(config.population, config.num_voters, run.seeds["voters"])
    run.slate = sample_alternatives(config.alternatives, config.num_alternatives, run.seeds["alternatives"])
    run.dataset = generate_dataset(
        run.voters, run.slate, config.pair_scheme, config.assignment, config.label_scheme,
        run.seeds["annotate"],
    )
    write_voters(run.out / VOTERS_FILE, run.voters)
    write_slate(run.out / SLATE_FILE, run.slate)
    write_records(run.out / DATASET_FILE, run.dataset)
    return {"voters": len(run.voters), "alternatives": len(run.slate), "records": len(run.dataset)}


def stage_fit(config: ExperimentConfig, run: RunDir) -> dict:
    run.model = model = fit_mle(run.dataset, lam=config.lam, max_iters=config.max_iters, grad_tol=config.grad_tol)
    dump_json(run.out / MODEL_FILE, model_to_dict(model))
    return {"converged": model.converged, "iterations": model.iterations, "final_nll": model.final_nll,
            "grad_norm": model.grad_norm}


def stage_audit(config: ExperimentConfig, run: RunDir) -> dict:
    scheme = replace(config.consistency, seed=run.seeds["consistency"])
    eps = config.epsilons
    per_axiom = (
        audit_unanimity(run.model, run.slate, run.voters, eps),
        audit_condorcet(run.model, run.slate, config.population, eps),
        audit_consistency(run.model, run.dataset, eps, scheme, max_iters=config.max_iters,
                          grad_tol=config.grad_tol),
    )
    # one unanimity, condorcet, consistency triple per epsilon, in config order
    run.axioms = reports = [r for triple in zip(*per_axiom) for r in triple]
    write_axiom_reports(run.out / AXIOMS_FILE, reports)
    return {
        "reports": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": sum(1 for r in reports if not r.passed),
        "vacuous": sum(1 for r in reports if r.vacuous),
        # the block fits are shared by every epsilon, so one count covers them
        "skipped_partitions": per_axiom[2][0].metadata["skipped_partitions"],
        "block_grad_norm": per_axiom[2][0].metadata["block_grad_norm"],
    }


def stage_distort(config: ExperimentConfig, run: RunDir) -> dict:
    if not config.distortion_enabled:
        # a report left by an earlier run would contradict this manifest
        (run.out / DISTORTION_FILE).unlink(missing_ok=True)
        return {"skipped": True}
    run.distortion = report = worst_case_regret(run.model, run.dataset, config.delta, config.search)
    dump_json(run.out / DISTORTION_FILE, distortion_report_to_dict(report))
    return {"regret": report.regret, "learned_winner": report.learned_winner,
            "hypotheses_evaluated": report.metadata["hypotheses_evaluated"],
            "consistent_count": report.metadata["consistent_count"]}


_STAGE_FNS = {
    "simulate": stage_simulate,
    "fit": stage_fit,
    "audit": stage_audit,
    "distort": stage_distort,
}


def run_pipeline(config: ExperimentConfig, out_dir, stages=STAGES) -> RunDir:
    """Run the requested stages and write the manifest; returns the RunDir
    they filled, with the manifest as ``manifest``.

    A stage failure writes a partial manifest naming the failed stage,
    then re-raises.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"{out}: {e.strerror}") from None
    run = RunDir(out, {name: child_seed(config.seed, name) for name in SEED_STREAMS})
    run.manifest = manifest = {
        "config": config.raw,
        "seeds": {"root": config.seed, **run.seeds},
        "versions": {
            "prefaudit": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "stages": {},
        "stage_seconds": {},
    }
    error = None
    start = time.monotonic()
    for stage in stages:
        if stage not in _STAGE_FNS:
            raise PrefAuditError(f"unknown stage {stage!r}")
        stage_start = time.monotonic()
        try:
            manifest["stages"][stage] = _STAGE_FNS[stage](config, run)
        except PrefAuditError as e:
            manifest["failed_stage"] = stage
            manifest["error"] = str(e)
            error = e
        manifest["stage_seconds"][stage] = time.monotonic() - stage_start
        if error is not None:
            break
    manifest["wall_clock_s"] = time.monotonic() - start
    dump_json(out / MANIFEST_FILE, manifest)
    if error is not None:
        raise error
    return run
