"""Pinned sampling streams.

Each digest below is the sha256 of the draws at a fixed seed, recorded
once. A change to how a spec or scheme draws from its generator (the
order of the calls, their shapes, the arithmetic on the draws) changes
a digest, so a refactor that must keep the artifacts byte-identical is
checked here across versions, not only against itself.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import prefaudit

from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    PARTITION_BY_VOTER,
    ProxyLabels,
    RoundRobin,
    TrueRewardLabels,
    UniformRandomPairs,
    generate_dataset,
)
from prefaudit.distortion import SearchSpec, _hypotheses
from prefaudit.pipeline import child_seed
from prefaudit.population import (
    DiagonalGaussian,
    ExplicitSlate,
    GaussianSpace,
    Mixture,
    PointMass,
    UniformBox,
    sample_alternatives,
    sample_voters,
)
from prefaudit.serialize import read_records, write_records

SEED = 20240607


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


POPULATIONS = {
    "point-mass": PointMass(theta=[0.5, -1.25, 2.0]),
    "gaussian": DiagonalGaussian(mean=[1.0, -0.5, 0.25], var=[0.1, 0.4, 0.0]),
    "mixture": Mixture(components=(
        (0.7, [1.0, -0.5, 0.5], [0.1, 0.1, 0.1]),
        (0.3, [-0.5, 1.0, 0.0], [0.2, 0.05, 0.3]),
    )),
    # draws a component index like any mixture, though there is only one to choose
    "one-component-mixture": Mixture(components=((1.0, [0.25, -1.0, 0.5], [0.2, 0.0, 0.05]),)),
}

SLATES = {
    "uniform-box": UniformBox(lo=[0.0, -1.0, 0.5], hi=[1.0, 1.0, 0.5]),
    "gaussian": GaussianSpace(mean=[0.0, 1.0, -1.0], var=[1.0, 0.5, 2.0]),
    # 7 draws from a 4-point slate: sampled with replacement
    "explicit-slate": ExplicitSlate(points=([0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 1])),
}

VOTER_DIGESTS = {
    "point-mass": "58073f736bb841bab6a996edd9b64ce56d9b3c54bdb5cde22c700c39e4c6ba21",
    "gaussian": "ff9af5b8ced23e7781dc5bc016aaeff3d5c807846dbc725ed1bf1183f60df862",
    "mixture": "2628fcbba49be3a29f676ca2009ecde95b3a2b946142021965e2f0f48e561aae",
    "one-component-mixture": "4222901e19a058b57dc44a287886ca78a4a0c55dec3d8c02ee626902ec6499ee",
}

SLATE_DIGESTS = {
    "uniform-box": "6c1c505cb99ec984fcd364f7dd121253b90d5a674d826493eca0459f43557c4f",
    "gaussian": "11b891cea6e537c84d4d74287d82fabfee479f1a8595786f38ec2c4a4fcd5840",
    "explicit-slate": "cdb56c6f4378d44b85b85e6ffa3bcdbb9e3a36dc88861502febc2e5262785a4a",
}

DATASET_DIGESTS = {
    ("round-robin", "true-reward"): "b8079bc5dfac3d522cd28d9bf9d30a361e6f818f5348305d267988a684d0caf9",
    ("round-robin", "proxy"): "e43f9d8fcc9fcb65374ac3f27f3375e614db5e8e9b86ba8571b1e075641f7903",
    ("uniform-random", "true-reward"): "a13f716267014a97fe2d3f28386f8d835aebfb2f3f563527db764594b7d3af7e",
    ("uniform-random", "proxy"): "21ff92c33feea5a18b7d0f8aaf5b747af7748061106904171b9b6317dbf2c63e",
}

# the same datasets with voters assigned by position (the large-n workload's assignment)
PARTITION_DIGESTS = {
    ("round-robin", "true-reward"): "e929ce05087b013aed89df30941d3dc1d2d582e6cb203248807ce0ea739323c6",
    ("round-robin", "proxy"): "1dab256e5bc4ff719d25dcb0f055af01901cb7905e208fa5fed799d303ee9dbc",
    ("uniform-random", "true-reward"): "7805eceb2e913bebf215ed2bba8d65a8ef152d0a83281394464e8246de116ec7",
    ("uniform-random", "proxy"): "5e8d3d7a725b2e6d678524e60caa1a42a3d73add76658286fcb45c3fa5f73f39",
}

# the regret search's (theta, w) rows, theta then w for each hypothesis in search order
HYPOTHESIS_SEARCHES = {
    ("grid", "ones"): (3, SearchSpec(grid_resolution=5)),
    ("grid", "grid"): (2, SearchSpec(grid_resolution=4, w_mode="grid", w_lo=0.5, w_hi=1.5)),
    ("random", "ones"): (4, SearchSpec(random_samples=50, seed=SEED)),
    ("random", "grid"): (4, SearchSpec(random_samples=50, w_mode="grid", w_lo=0.5, w_hi=1.5, seed=SEED)),
}

HYPOTHESIS_DIGESTS = {
    ("grid", "ones"): "2bce46cb0031258289c76e5af39808f569b2543bc0656b9910039c4f231c5272",
    ("grid", "grid"): "78e7ad207e496807d3ca649737d123ce145db0a61d4030916e2773eca453e3c8",
    ("random", "ones"): "ece22a8e21b3ead772fda032f71a1e51eb30a438216bff81f5f5b9fa937dc240",
    ("random", "grid"): "ffe6541390e108b76257c66643606bf4f7e09a9c78587806921020c0895d8665",
}

# the dataset.records of the large-n benchmark workload at config seed 42:
# 400 voters, 200 alternatives, 40,000 uniform-random pairs assigned by position
LARGE_RECORDS_DIGEST = "fdd2de6f610b44b0943128c677d1ccdf01c910c684d9266e2aac18496c6504ed"

PAIR_SCHEMES = {"round-robin": RoundRobin(repeats=3), "uniform-random": UniformRandomPairs(count=40)}
LABEL_SCHEMES = {"true-reward": TrueRewardLabels(), "proxy": ProxyLabels(w=[1.0, 0.5, 1.5])}


@pytest.mark.parametrize("kind", sorted(POPULATIONS))
def test_voter_stream(kind):
    voters = sample_voters(POPULATIONS[kind], 25, SEED)
    assert voters.ids.tolist() == list(range(25))
    assert _digest(voters.thetas) == VOTER_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(SLATES))
def test_slate_stream(kind):
    assert _digest(sample_alternatives(SLATES[kind], 7, SEED)) == SLATE_DIGESTS[kind]


@pytest.mark.parametrize("method, w_mode", sorted(HYPOTHESIS_DIGESTS))
def test_hypothesis_stream(method, w_mode):
    d, search = HYPOTHESIS_SEARCHES[(method, w_mode)]
    thetas, ws = _hypotheses(d, search)
    rows = np.hstack([thetas, np.broadcast_to(ws, thetas.shape)])
    assert _digest([rows]) == HYPOTHESIS_DIGESTS[(method, w_mode)]


def _dataset_digest(pairs, labels, assignment, tmp_path) -> str:
    voters = sample_voters(POPULATIONS["mixture"], 6, SEED)
    slate = sample_alternatives(SLATES["uniform-box"], 5, SEED + 1)
    records = generate_dataset(
        voters, slate, PAIR_SCHEMES[pairs], assignment, LABEL_SCHEMES[labels], SEED + 2
    )
    write_records(tmp_path / "data.records", records)
    text = (tmp_path / "data.records").read_text()[:-1]  # the lines, without the last newline
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("pairs, labels", sorted(DATASET_DIGESTS))
def test_dataset_stream(pairs, labels, tmp_path):
    assert _dataset_digest(pairs, labels, EACH_PAIR_RANDOM_VOTER, tmp_path) == DATASET_DIGESTS[(pairs, labels)]


@pytest.mark.parametrize("pairs, labels", sorted(PARTITION_DIGESTS))
def test_partition_by_voter_dataset_stream(pairs, labels, tmp_path):
    assert _dataset_digest(pairs, labels, PARTITION_BY_VOTER, tmp_path) == PARTITION_DIGESTS[(pairs, labels)]


def test_large_dataset_stream(tmp_path):
    voters = sample_voters(DiagonalGaussian(mean=[1.0, -0.5], var=[0.1, 0.1]), 400, child_seed(42, "voters"))
    slate = sample_alternatives(UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0]), 200, child_seed(42, "alternatives"))
    records = generate_dataset(voters, slate, UniformRandomPairs(count=40000), PARTITION_BY_VOTER,
                               TrueRewardLabels(), child_seed(42, "annotate"))
    write_records(tmp_path / "data.records", records)
    digest = hashlib.sha256((tmp_path / "data.records").read_bytes()).hexdigest()
    assert digest == LARGE_RECORDS_DIGEST
    assert read_records(tmp_path / "data.records", slate) == records


def test_no_module_reaches_into_a_bit_generator():
    """Every draw goes through numpy's Generator methods: no module reads raw
    words or reads or writes a bit generator's state, whose layout numpy
    does not promise to keep."""
    for path in sorted(Path(prefaudit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr != "random_raw", path.name
                assert not (node.attr == "state" and isinstance(node.value, ast.Attribute)
                            and node.value.attr == "bit_generator"), path.name
