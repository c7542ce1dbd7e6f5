import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefaudit.annotation
from conftest import coordinate_dataset
from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    PARTITION_BY_VOTER,
    ProxyLabels,
    RoundRobin,
    TrueRewardLabels,
    UniformRandomPairs,
    _labels,
    generate_dataset,
    sample_label,
)
from prefaudit.errors import InputError
from prefaudit.estimation import nll
from prefaudit.model import Dataset, Voters, btl_prob
from prefaudit.population import PointMass, sample_voters

N_DRAWS = 10000


def _label_mean(theta, a0, a1, scheme, seed=0, n=N_DRAWS):
    r0, r1 = scheme.rewards(np.array([theta]), np.array([a0, a1]))[0]
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.mean([sample_label(r0, r1, rng) for _ in range(n)])


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
        a0, a1 = records.slate[records.i0], records.slate[records.i1]
        pairs = {tuple(sorted((float(x0[0]), float(x1[0])))) for x0, x1 in zip(a0, a1)}
        assert pairs == {(0.0, 0.5), (0.0, 1.0), (0.5, 1.0)}

    def test_uniform_pairs_never_self(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 3, seed=0)
        alts = [np.array([i / 10, 0.0]) for i in range(10)]
        records = generate_dataset(voters, alts, UniformRandomPairs(count=1000),
                                   EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=1)
        assert len(records) == 1000
        for x0, x1 in zip(records.slate[records.i0], records.slate[records.i1]):
            assert not np.array_equal(x0, x1)

    def test_winner_frequency_matches_btl(self):
        voters = sample_voters(PointMass(theta=[1.0]), 1, seed=0)
        alts = [np.array([0.0]), np.array([1.0])]
        records = generate_dataset(voters, alts, RoundRobin(repeats=2000),
                                   EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=2)
        winner_is_one = np.mean([
            (x1[0] == 1.0) == (label == 1) for x1, label in zip(records.slate[records.i1], records.label)
        ])
        assert 0.703 <= winner_is_one <= 0.759  # sigma(1) +- 3 SE at 2000 draws

    def test_requires_two_alternatives(self):
        voters = sample_voters(PointMass(theta=[1.0]), 1, seed=0)
        with pytest.raises(InputError):
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

    @pytest.mark.parametrize("theta, alts, labels", [
        ([1.0, 2.0], [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], TrueRewardLabels()),
        ([1.0, 2.0], [[1.0, 2.0], [0.0, 0.0, 0.0]], TrueRewardLabels()),
        ([1.0, 2.0], [[1.0, 2.0], [0.0, 0.0]], ProxyLabels(w=[1.0, 1.0, 1.0])),
    ], ids=["voter-vs-slate", "ragged-slate", "proxy-weights"])
    def test_dimension_mismatch(self, theta, alts, labels, monkeypatch):
        def no_draws(seed):
            raise AssertionError("a draw was made before the dimension check")

        monkeypatch.setattr(prefaudit.annotation, "seeded_rng", no_draws)
        with pytest.raises(InputError, match="dimension mismatch"):
            generate_dataset(Voters(ids=[0], thetas=[theta]), alts, RoundRobin(),
                             EACH_PAIR_RANDOM_VOTER, labels, seed=0)

    def test_proxy_scheme_tagged_in_records(self):
        voters = sample_voters(PointMass(theta=[1.0]), 1, seed=0)
        alts = [np.array([0.0]), np.array([1.0])]
        records = generate_dataset(voters, alts, RoundRobin(repeats=2),
                                   EACH_PAIR_RANDOM_VOTER, ProxyLabels(w=[0.5]), seed=3)
        assert records.scheme == "proxy"
        assert np.array_equal(records.w, [0.5])


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 4),
    rows=st.lists(
        st.tuples(st.lists(st.floats(-10, 10), min_size=8, max_size=8), st.integers(0, 1)),
        min_size=1, max_size=30),
    theta=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    lam=st.floats(0.0, 1.0),
)
def test_swap_and_flip_preserves_nll(d, rows, theta, lam):
    """Swapping slots and flipping the label leaves each record's winner and
    loser, the distinct pairs and their counts, and so any theta's NLL,
    exactly unchanged."""
    records = coordinate_dataset([0] * len(rows), [label for _, label in rows],
                                 [x[:d] for x, _ in rows], [x[4:4 + d] for x, _ in rows])
    swapped = replace(records, label=1 - records.label, i0=records.i1, i1=records.i0)
    for before, after in [(records.winner_loser(), swapped.winner_loser()),
                          (records.pair_table(), swapped.pair_table())]:
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
    theta = np.array(theta[:d])
    assert nll(theta, records, lam) == nll(theta, swapped, lam)


def _reference_dataset(voters, alts, pair_scheme, assignment, label_scheme, seed) -> Dataset:
    """generate_dataset as a record-at-a-time loop that shares no code with it:
    scalar pair draws, then per record the slot-order and label doubles, then
    (unless assigned by position) per record the voter.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = len(alts)
    if isinstance(pair_scheme, RoundRobin):
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)] * pair_scheme.repeats
    else:
        pairs = []
        for _ in range(pair_scheme.count):
            i = int(rng.integers(0, m))
            j = int(rng.integers(0, m - 1))
            if j >= i:
                j += 1
            pairs.append((min(i, j), max(i, j)))
    doubles = [(rng.random(), rng.random()) for _ in pairs]
    if assignment == EACH_PAIR_RANDOM_VOTER:
        rows = [int(rng.integers(0, len(voters))) for _ in pairs]
    else:
        rows = [k % len(voters) for k in range(len(pairs))]
    points = np.array(alts, dtype=np.float64)
    thetas = np.array(voters.thetas)
    if label_scheme.w is not None:
        thetas = thetas * label_scheme.w
    table = thetas @ points.T
    voter, label, i0, i1 = [], [], [], []
    for (i, j), (swap_u, label_u), v in zip(pairs, doubles, rows):
        if swap_u < 0.5:
            i, j = j, i
        gap = float(table[v, j]) - float(table[v, i])
        p = 1.0 / (1.0 + math.exp(-gap)) if gap >= 0 else math.exp(gap) / (1.0 + math.exp(gap))
        voter.append(int(voters.ids[v]))
        label.append(int(label_u < p))
        i0.append(i)
        i1.append(j)
    return Dataset(voter=voter, label=label, slate=points, i0=i0, i1=i1, scheme=label_scheme.kind, w=label_scheme.w)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 3),
    m=st.integers(2, 8),
    n_voters=st.integers(1, 6),
    uniform=st.booleans(),
    count=st.integers(1, 59),
    repeats=st.integers(1, 4),
    assignment=st.sampled_from([EACH_PAIR_RANDOM_VOTER, PARTITION_BY_VOTER]),
    proxy=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_matches_the_record_at_a_time_reference(data, d, m, n_voters, uniform, count, repeats,
                                                assignment, proxy, seed):
    vec = st.lists(st.floats(-5, 5), min_size=d, max_size=d)
    voters = Voters(ids=[3 * k + 1 for k in range(n_voters)], thetas=[data.draw(vec) for _ in range(n_voters)])
    alts = data.draw(st.lists(vec, min_size=m, max_size=m))
    pair_scheme = UniformRandomPairs(count=count) if uniform else RoundRobin(repeats=repeats)
    label_scheme = ProxyLabels(w=data.draw(vec)) if proxy else TrueRewardLabels()
    args = (voters, alts, pair_scheme, assignment, label_scheme, seed)
    assert generate_dataset(*args) == _reference_dataset(*args)


@pytest.mark.parametrize("pair_scheme", [RoundRobin(repeats=4), UniformRandomPairs(count=50)], ids=["round-robin", "uniform"])
@pytest.mark.parametrize("label_scheme", [TrueRewardLabels(), ProxyLabels(w=[1.0, 0.5])], ids=["true", "proxy"])
def test_one_voter_gives_the_same_dataset_under_both_assignments(pair_scheme, label_scheme):
    """One voter's integer draws take no bits, so under each-pair-random-voter
    a one-voter dataset is the partition-by-voter one, record for record."""
    voters = Voters(ids=[7], thetas=[[1.0, -0.5]])
    slate = [[0.0, 0.0], [1.0, 0.5], [0.5, 1.0], [0.2, 0.9], [1.0, 1.0]]
    for seed in range(5):
        each, by_position = (generate_dataset(voters, slate, pair_scheme, assignment, label_scheme, seed)
                             for assignment in (EACH_PAIR_RANDOM_VOTER, PARTITION_BY_VOTER))
        assert each == by_position
        assert np.array_equal(each.i0, by_position.i0) and np.array_equal(each.i1, by_position.i1)


def test_labels_compare_with_btl_prob_at_ties_and_one_ulp_either_side():
    """u set exactly to btl_prob(r1, r0), and one ulp below and above it, gets
    the label u < btl_prob(r1, r0), also where np.exp and math.exp disagree."""
    rng = np.random.default_rng(0)
    r0 = rng.normal(size=5000)
    r1 = r0 + rng.uniform(-40, 40, 5000)
    p = np.array(list(map(btl_prob, r1.tolist(), r0.tolist())))
    for u in (p, np.nextafter(p, 0), np.nextafter(p, 1)):
        assert _labels(r0, r1, u).tolist() == (u < p).astype(int).tolist()
    # a gap that overflows to +-inf gives p of 1 or 0, with no warning
    big = np.array([-1e308, 1e308])
    assert _labels(big, big[::-1], np.array([0.5, 0.0])).tolist() == [1, 0]


class _FixedPairs:
    """A pair scheme of the one pair (i, j)."""

    def __init__(self, i, j):
        self.i, self.j = i, j

    def pairs(self, n_alts, rng):
        return np.array([self.i]), np.array([self.j])


@pytest.mark.parametrize("assignment", [EACH_PAIR_RANDOM_VOTER, PARTITION_BY_VOTER])
def test_non_finite_reward_raises_only_on_a_compared_pair(assignment):
    """No warning escapes either: pytest turns one into an error."""
    for theta, slate in [
        # theta * 1e200 overflows: slate row 2's reward is inf, rows 0 and 1 are finite
        ([1e200], [[0.0], [1.0], [1e200]]),
        # the two overflowing terms of slate row 2's reward cancel to nan
        ([1e200, 1e200], [[0.0, 0.0], [1.0, 0.0], [1e200, -1e200]]),
    ]:
        voters = Voters(ids=[0, 1], thetas=[theta, theta])
        data = generate_dataset(voters, slate, _FixedPairs(0, 1), assignment, TrueRewardLabels(), seed=0)
        assert len(data) == 1
        with pytest.raises(InputError, match="finite rewards"):
            generate_dataset(voters, slate, _FixedPairs(0, 2), assignment, TrueRewardLabels(), seed=0)
