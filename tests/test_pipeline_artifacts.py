"""The hand-off between pipeline stages.

``run_pipeline`` passes the voters, slate, dataset and model from stage
to stage in memory, and a stage run on its own reads them from the run
directory. Both routes must write the same artifacts. The config below
samples an explicit slate with replacement (so slate points repeat, and
some records compare a point with itself), labels by proxy reward and
draws uniform-random pairs.
"""

import hashlib

import pytest

import prefaudit.pipeline
from prefaudit.config import config_from_dict
from prefaudit.pipeline import DATASET_FILE, STAGES, RunDir, run_pipeline, stage_simulate
from prefaudit.serialize import read_records

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
# still read its inputs back from disk
DIGESTS = {
    "dataset.records": "c56a7b83fcee4e77812d03ebc7e4cf147d7e67e88180beb7c1f183579c886603",
    "slate.json": "50f320aa2ee66c7306e9c169fa2f7080b87a37a8944b718b1b2af77eb23b89e0",
    "voters.json": "69157ac3a3cbf2ea29b513b78845f030925414192d2f162e8f12456791401206",
    "model.json": "f6b81661fa42fb54f10dd1dd7e35abb058b4d7d9cbf5a34fa02a665fd0dfd07d",
    "axioms.json": "9a6bd61af4b5321f611a337b128d70b292eb17a7d860557d57883b9b2b8baa52",
    "distortion.json": "3d24fc80885e13cfb370061a6fa6c52a3395c4415a7a287f570e59d629cda6e3",
}


def _digests(out) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTS}


@pytest.fixture
def record_reads(monkeypatch):
    """The paths read through ``prefaudit.pipeline.read_records``."""
    paths = []
    read = prefaudit.pipeline.read_records

    def counted(path):
        paths.append(path)
        return read(path)

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


def test_in_memory_dataset_equals_its_artifact(tmp_path):
    run = RunDir(tmp_path)
    stage_simulate(config_from_dict(CONFIG), run)
    assert run.dataset == read_records(tmp_path / DATASET_FILE)


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
