"""Pinned sampling streams.

Each digest below is the sha256 of the draws at a fixed seed, recorded
once. A change to how a spec or scheme draws from its generator (the
order of the calls, their shapes, the arithmetic on the draws) changes
a digest, so a refactor that must keep the artifacts byte-identical is
checked here across versions, not only against itself.
"""

import hashlib

import numpy as np
import pytest

from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    ProxyLabels,
    RoundRobin,
    TrueRewardLabels,
    UniformRandomPairs,
    generate_dataset,
)
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
from prefaudit.serialize import write_records

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
}

SLATE_DIGESTS = {
    "uniform-box": "6c1c505cb99ec984fcd364f7dd121253b90d5a674d826493eca0459f43557c4f",
    "gaussian": "11b891cea6e537c84d4d74287d82fabfee479f1a8595786f38ec2c4a4fcd5840",
    "explicit-slate": "cdb56c6f4378d44b85b85e6ffa3bcdbb9e3a36dc88861502febc2e5262785a4a",
}

DATASET_DIGESTS = {
    ("round-robin", "true-reward"): "b2b924a80eff931651cf9cbffe93ee8728c5ba3a99ed140ac5db5d567fe4b325",
    ("round-robin", "proxy"): "b6935bf73b66ad1f8f47b4f3aee98d60ddd9c538c247a88ea2a4800179a37477",
    ("uniform-random", "true-reward"): "89cdd74c4e5274aa935cee2dca1a8b972acc80fb099faaf7cf3dc41c19c195c7",
    ("uniform-random", "proxy"): "7da8d4ff4de49945c678f65f4422b3db92eddb0adf10517548efa5ca33bf094a",
}

PAIR_SCHEMES = {"round-robin": RoundRobin(repeats=3), "uniform-random": UniformRandomPairs(count=40)}
LABEL_SCHEMES = {"true-reward": TrueRewardLabels(), "proxy": ProxyLabels(w=[1.0, 0.5, 1.5])}


@pytest.mark.parametrize("kind", sorted(POPULATIONS))
def test_voter_stream(kind):
    voters = sample_voters(POPULATIONS[kind], 25, SEED)
    assert [v.voter_id for v in voters] == list(range(25))
    assert _digest(v.theta for v in voters) == VOTER_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(SLATES))
def test_slate_stream(kind):
    assert _digest(sample_alternatives(SLATES[kind], 7, SEED)) == SLATE_DIGESTS[kind]


@pytest.mark.parametrize("pairs, labels", sorted(DATASET_DIGESTS))
def test_dataset_stream(pairs, labels, tmp_path):
    voters = sample_voters(POPULATIONS["mixture"], 6, SEED)
    slate = sample_alternatives(SLATES["uniform-box"], 5, SEED + 1)
    records = generate_dataset(
        voters, slate, PAIR_SCHEMES[pairs], EACH_PAIR_RANDOM_VOTER, LABEL_SCHEMES[labels], SEED + 2
    )
    write_records(tmp_path / "data.records", records)
    text = (tmp_path / "data.records").read_text()[:-1]  # the lines, without the last newline
    assert hashlib.sha256(text.encode()).hexdigest() == DATASET_DIGESTS[(pairs, labels)]
