import numpy as np
import pytest

from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    PARTITION_BY_VOTER,
    ProxyLabels,
    RoundRobin,
    TrueRewardLabels,
    UniformRandomPairs,
    generate_dataset,
    sample_label,
)
from prefaudit.errors import ConfigError, InputError
from prefaudit.estimation import nll
from prefaudit.model import Dataset, VoterParams
from prefaudit.population import PointMass, sample_voters

N_DRAWS = 10000


def _label_mean(theta, a0, a1, scheme, seed=0, n=N_DRAWS):
    voter = VoterParams(voter_id=0, theta=theta)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.mean([sample_label(voter, a0, a1, scheme, rng) for _ in range(n)])


class TestSampleLabel:
    def test_equal_rewards_fair_coin(self):
        mean = _label_mean([1.0, 1.0], [0.5, 0.5], [0.3, 0.7], TrueRewardLabels())
        assert 0.48 <= mean <= 0.52

    def test_unit_gap_matches_sigmoid(self):
        # sigma(1) = 0.7311 +- 3 binomial standard errors at 10000 draws
        mean = _label_mean([1.0], [0.0], [1.0], TrueRewardLabels())
        assert 0.717 <= mean <= 0.745

    def test_zero_proxy_weights_collapse_to_coin(self):
        mean = _label_mean([1.0], [0.0], [1.0], ProxyLabels(w=[0.0]))
        assert 0.48 <= mean <= 0.52

    def test_proxy_distorts_frequency(self):
        # w doubles the gap: sigma(2) = 0.8808
        mean = _label_mean([1.0], [0.0], [1.0], ProxyLabels(w=[2.0]), seed=1)
        se = 3 * np.sqrt(0.8808 * 0.1192 / N_DRAWS)
        assert abs(mean - 0.8808) < se


class TestGenerateDataset:
    def test_round_robin_covers_all_pairs(self):
        voters = sample_voters(PointMass(theta=[1.0]), 1, seed=0)
        alts = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        records = generate_dataset(voters, alts, RoundRobin(repeats=1),
                                   EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=0)
        assert len(records) == 3
        pairs = {tuple(sorted((float(a0[0]), float(a1[0])))) for a0, a1 in zip(records.a0, records.a1)}
        assert pairs == {(0.0, 0.5), (0.0, 1.0), (0.5, 1.0)}

    def test_uniform_pairs_never_self(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 3, seed=0)
        alts = [np.array([i / 10, 0.0]) for i in range(10)]
        records = generate_dataset(voters, alts, UniformRandomPairs(count=1000),
                                   EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=1)
        assert len(records) == 1000
        for a0, a1 in zip(records.a0, records.a1):
            assert not np.array_equal(a0, a1)

    def test_winner_frequency_matches_btl(self):
        voters = sample_voters(PointMass(theta=[1.0]), 1, seed=0)
        alts = [np.array([0.0]), np.array([1.0])]
        records = generate_dataset(voters, alts, RoundRobin(repeats=2000),
                                   EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=2)
        winner_is_one = np.mean([
            (a1[0] == 1.0) == (label == 1) for a1, label in zip(records.a1, records.label)
        ])
        assert 0.703 <= winner_is_one <= 0.759  # sigma(1) +- 3 SE at 2000 draws

    def test_requires_two_alternatives(self):
        voters = sample_voters(PointMass(theta=[1.0]), 1, seed=0)
        with pytest.raises(ConfigError):
            generate_dataset(voters, [np.array([1.0])], RoundRobin(),
                             EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=0)

    def test_negative_seed(self):
        voters = sample_voters(PointMass(theta=[1.0]), 1, seed=0)
        with pytest.raises(InputError, match="seed"):
            generate_dataset(voters, [np.array([0.0]), np.array([1.0])], RoundRobin(),
                             EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=-1)

    def test_determinism(self):
        voters = sample_voters(PointMass(theta=[1.0, -1.0]), 4, seed=0)
        alts = [np.array([i / 5, 1 - i / 5]) for i in range(5)]
        args = (voters, alts, RoundRobin(repeats=3), PARTITION_BY_VOTER, TrueRewardLabels())
        a = generate_dataset(*args, seed=11)
        b = generate_dataset(*args, seed=11)
        assert a == b

    def test_proxy_scheme_tagged_in_records(self):
        voters = sample_voters(PointMass(theta=[1.0]), 1, seed=0)
        alts = [np.array([0.0]), np.array([1.0])]
        records = generate_dataset(voters, alts, RoundRobin(repeats=2),
                                   EACH_PAIR_RANDOM_VOTER, ProxyLabels(w=[0.5]), seed=3)
        assert records.scheme == "proxy"
        assert np.array_equal(records.w, [0.5])


def test_swap_and_flip_preserves_nll():
    """Swapping slots and flipping the label leaves any theta's NLL unchanged."""
    rng = np.random.default_rng(0)
    rows = [(rng.normal(size=3), rng.normal(size=3), int(rng.integers(0, 2))) for _ in range(30)]
    a0, a1, label = zip(*rows)
    records = Dataset(voter=[0] * 30, label=label, a0=a0, a1=a1)
    swapped = Dataset(voter=records.voter, label=1 - records.label, a0=records.a1, a1=records.a0)
    for _ in range(10):
        theta = rng.normal(size=3)
        assert abs(nll(theta, records, 0.0) - nll(theta, swapped, 0.0)) <= 1e-12
