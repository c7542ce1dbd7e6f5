"""The hand-off between pipeline stages.

``run_pipeline`` passes the voters, slate, dataset and model from stage
to stage in memory, and a stage run on its own reads them from the run
directory. Both routes must write the same artifacts. The config below
samples an explicit slate with replacement (so slate points repeat, and
some records compare a point with itself), labels by proxy reward and
draws uniform-random pairs.
"""

import hashlib
import json

import numpy as np
import pytest

import prefaudit.pipeline
from prefaudit.config import config_from_dict
from prefaudit.pipeline import (
    AXIOMS_FILE, DATASET_FILE, DISTORTION_FILE, MANIFEST_FILE, STAGES, run_pipeline,
)
from prefaudit.reports import emit_rows, emit_table, rows_from_reports
from prefaudit.serialize import axiom_report_from_dict, distortion_report_to_dict, load_json, read_records

CONFIG = {
    "dimension": 2,
    "seed": 42,
    "num_voters": 6,
    "num_alternatives": 7,
    "population": {"kind": "gaussian", "mean": [1.0, -0.5], "var": [0.2, 0.2]},
    "alternatives": {"kind": "explicit-slate", "points": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    "annotation": {"pairs": {"kind": "uniform-random", "count": 200},
                   "labels": {"kind": "proxy", "w": [1.0, 0.5]}},
    "audit": {"epsilons": [0.0, 0.1], "consistency": {"partitions": 2}},
    "distortion": {"delta": 1.0, "grid_resolution": 7},
}

# sha256 of each artifact of CONFIG, recorded once, when every stage
# still read its inputs back from disk; axioms.json re-recorded when it
# went to one line per report and per anchor; model.json, axioms.json and
# distortion.json re-recorded when every likelihood went to a sum over the
# distinct pairs (the last bits of theta_hat, the NLLs and the margins moved,
# and model.json and the consistency metadata gained the final gradient);
# dataset.records, model.json, axioms.json and distortion.json re-recorded
# when each-pair-random-voter went to one array of voter rows drawn after
# the doubles (same distribution, new stream)
DIGESTS = {
    "dataset.records": "944fdd88ec39048241753409706ef39ccf5a0faa651f5509e60cfeb965e75d77",
    "slate.json": "50f320aa2ee66c7306e9c169fa2f7080b87a37a8944b718b1b2af77eb23b89e0",
    "voters.json": "69157ac3a3cbf2ea29b513b78845f030925414192d2f162e8f12456791401206",
    "model.json": "f32425c5032e630a67034389309e5ee780beefd909eb7f20233e1cc05d36fe1c",
    "axioms.json": "97d9ef7e3f6394fa1871fefc8c3d9c2aba3559459bfbc07433114b12372690be",
    "distortion.json": "fdfb05c4c1e4d2f901d76fa3fa66d80214b60c34710f5a89108451ac65f46ce3",
}
# sha256 of axioms.json as written with indent=2 and sorted keys, before
# the one-line-per-anchor layout; re-recorded with the DIGESTS above for the
# sum over distinct pairs and for the voter-row array
INDENTED_AXIOMS_DIGEST = "0de1eac1a6fbcaa72310c2de8765298350239c37e41cbea5035bdf94f56759a1"
# sha256 of the text the CLI prints for CONFIG's reports, as a table and as
# --format rows, recorded while each report still held one object per anchor
PRINTED_DIGESTS = {
    "table": "bf2c834166156c991a7e0da1c6f5c410e91f08e9f799eed94d2feaf487738db4",
    "rows": "3b8f424afd86ed77b0d1b1e7a1e2e7093a1d7f85601f31ca3972bc4d6b625e7b",
}


def _digests(out) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTS}


@pytest.fixture
def record_reads(monkeypatch):
    """The paths read through ``prefaudit.pipeline.read_records``."""
    paths = []
    read = prefaudit.pipeline.read_records

    def counted(path, slate):
        paths.append(path)
        return read(path, slate)

    monkeypatch.setattr(prefaudit.pipeline, "read_records", counted)
    return paths


def test_one_call_and_one_call_per_stage_write_the_same_artifacts(tmp_path):
    config = config_from_dict(CONFIG)
    run_pipeline(config, tmp_path / "together")
    for stage in STAGES:
        run_pipeline(config, tmp_path / "apart", stages=(stage,))
    assert _digests(tmp_path / "together") == _digests(tmp_path / "apart")


def test_artifacts_match_the_recorded_digests(tmp_path):
    run_pipeline(config_from_dict(CONFIG), tmp_path)
    assert _digests(tmp_path) == DIGESTS


def test_printed_reports_match_the_recorded_digests(tmp_path):
    run = run_pipeline(config_from_dict(CONFIG), tmp_path)
    printed = {"table": emit_table(run.axioms, run.distortion), "rows": emit_rows(rows_from_reports(run.axioms))}
    assert {name: hashlib.sha256(text.encode()).hexdigest() for name, text in printed.items()} == PRINTED_DIGESTS


def test_axioms_hold_the_json_value_of_the_indented_layout(tmp_path):
    run_pipeline(config_from_dict(CONFIG), tmp_path)
    indented = json.dumps(load_json(tmp_path / AXIOMS_FILE), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == INDENTED_AXIOMS_DIGEST


def test_in_memory_dataset_equals_its_artifact(tmp_path):
    """CONFIG's slate is drawn with replacement, so the records read back name
    the first row holding each point, often not the row drawn; the datasets
    are equal because equality compares the points."""
    run = run_pipeline(config_from_dict(CONFIG), tmp_path, stages=("simulate",))
    back = read_records(tmp_path / DATASET_FILE, run.slate)
    assert run.dataset == back
    assert not np.array_equal(run.dataset.i0, back.i0)


def test_returned_reports_equal_their_artifacts(tmp_path):
    run = run_pipeline(config_from_dict(CONFIG), tmp_path)
    back = [axiom_report_from_dict(d) for d in load_json(tmp_path / AXIOMS_FILE)]
    assert back == run.axioms and [r.metadata for r in back] == [r.metadata for r in run.axioms]
    assert distortion_report_to_dict(run.distortion) == load_json(tmp_path / DISTORTION_FILE)
    assert run.manifest == load_json(tmp_path / MANIFEST_FILE)


# a block fit of one iteration never converges, so every partition is skipped,
# and no condition ranks one alternative above another by more than 100
SKIPPING = {**CONFIG, "audit": {"epsilons": [0.0, 100.0], "consistency": {"partitions": 2}},
            "estimation": {"max_iters": 1}}


@pytest.mark.parametrize("raw, vacuous, skipped", [(CONFIG, 0, 0), (SKIPPING, 4, 2)], ids=["config", "skipping"])
def test_audit_manifest_entry_counts_vacuous_reports_and_skipped_partitions(tmp_path, raw, vacuous, skipped):
    run = run_pipeline(config_from_dict(raw), tmp_path)
    entry = run.manifest["stages"]["audit"]
    assert (entry["vacuous"], entry["skipped_partitions"]) == (vacuous, skipped)
    assert entry["vacuous"] == sum(1 for r in run.axioms if not r.dominated.any())
    assert {r.metadata["skipped_partitions"] for r in run.axioms if r.axiom == "consistency"} == {skipped}


def test_a_stage_run_alone_carries_only_its_own_reports(tmp_path):
    config = config_from_dict(CONFIG)
    run_pipeline(config, tmp_path)
    run = run_pipeline(config, tmp_path, stages=("audit",))
    assert run.axioms is not None and run.distortion is None
    run = run_pipeline(config, tmp_path, stages=("distort",))
    assert run.axioms is None and run.distortion is not None


def test_full_run_reads_no_records(tmp_path, record_reads):
    run_pipeline(config_from_dict(CONFIG), tmp_path)
    assert record_reads == []


@pytest.mark.parametrize("stage", ["fit", "audit", "distort"])
def test_stage_run_alone_reads_the_records_once(tmp_path, record_reads, stage):
    config = config_from_dict(CONFIG)
    run_pipeline(config, tmp_path, stages=("simulate", "fit"))
    assert record_reads == []
    run_pipeline(config, tmp_path, stages=(stage,))
    assert record_reads == [tmp_path / DATASET_FILE]
