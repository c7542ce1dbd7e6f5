import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefaudit.distortion
import prefaudit.estimation
from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.distortion import GRID_DIM_LIMIT, SearchSpec, worst_case_regret
from prefaudit.errors import InputError
from prefaudit.estimation import fit_mle, nll
from prefaudit.model import Dataset, RewardModel
from prefaudit.population import PointMass, sample_voters, seeded_rng

THETA_STAR = np.array([1.6, -1.0])  # lies on the linspace(-2, 2, 21) grid
SLATE = [
    np.array([0.9, 0.1]),
    np.array([0.1, 0.9]),
    np.array([0.5, 0.5]),
    np.array([0.8, 0.8]),
    np.array([0.2, 0.3]),
]


def _dataset(seed=0, repeats=60, slate=SLATE):
    voters = sample_voters(PointMass(theta=THETA_STAR), 1, seed=seed)
    return generate_dataset(voters, slate, RoundRobin(repeats=repeats),
                            EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=seed + 1)


def _dataset_4d():
    """A dataset over a d=4 slate, above the grid limit (random fallback)."""
    rng = np.random.default_rng(0)
    theta_star = np.array([1.0, -0.5, 0.3, 0.7])
    voters = sample_voters(PointMass(theta=theta_star), 1, seed=0)
    slate = [rng.uniform(0, 1, 4) for _ in range(4)]
    return generate_dataset(voters, slate, RoundRobin(repeats=30),
                            EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=1)


def _reference_hypotheses(d, search):
    """The search's (theta, w) stream one pair at a time, written apart from
    distortion._hypotheses so the oracle shares no enumeration code: the grid
    in product order with theta outer, or theta then w drawn per sample."""
    if d <= GRID_DIM_LIMIT:
        axis = np.linspace(-search.bound, search.bound, search.grid_resolution)
        w_axis = np.linspace(search.w_lo, search.w_hi, search.grid_resolution)
        for theta in product(axis, repeat=d):
            if search.w_mode == "ones":
                yield np.array(theta), np.ones(d)
            else:
                for w in product(w_axis, repeat=d):
                    yield np.array(theta), np.array(w)
    else:
        rng = seeded_rng(search.seed)
        for _ in range(search.random_samples):
            theta = rng.uniform(-search.bound, search.bound, size=d)
            if search.w_mode == "ones":
                yield theta, np.ones(d)
            else:
                yield theta, rng.uniform(search.w_lo, search.w_hi, size=d)


def _reference_regret(model, data, delta, search):
    """The regret search as a naive loop over the data's slate: one nll()
    call per hypothesis, every (theta, w, nll) kept, then the max regret over
    the consistent ones (strict >, so the first maximizer in stream order wins)."""
    alts = data.slate
    scores = [float(model.theta_hat @ a) for a in alts]
    a_star = int(np.argmax(scores))
    cache = []
    best_nll = np.inf
    for theta, w in _reference_hypotheses(alts.shape[1], search):
        val = nll(theta * w, data, model.lam)
        cache.append((theta, w, val))
        if np.isfinite(val) and val < best_nll:
            best_nll = val
    regret, worst, count = None, (None, None), 0
    for theta, w, val in cache:
        if not np.isfinite(val) or val > best_nll + delta:
            continue
        count += 1
        utilities = alts @ theta
        r = float(np.max(utilities) - utilities[a_star])
        if regret is None or r > regret:
            regret, worst = r, (theta, w)
    return regret, worst, best_nll, count


class TestWorstCaseRegret:
    def test_zero_regret_with_generator_on_grid(self):
        data = _dataset(repeats=200)
        model = fit_mle(data, lam=1e-3)
        report = worst_case_regret(model, data, delta=0.0,
                                   search=SearchSpec(grid_resolution=21, bound=2.0))
        assert report.regret == 0.0
        assert report.metadata["consistent_count"] >= 1

    def test_single_effective_alternative(self):
        a = np.array([0.4, 0.6])
        data = _dataset(slate=[a, np.array(a)])
        model = fit_mle(data, lam=1e-3)
        report = worst_case_regret(model, data, delta=10.0,
                                   search=SearchSpec(grid_resolution=11))
        assert report.regret == 0.0

    def test_large_delta_admits_adversary(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        report = worst_case_regret(model, data, delta=1e9,
                                   search=SearchSpec(grid_resolution=21, bound=2.0))
        # everything is consistent, so regret is at least the regret of the
        # grid point nearest to the flipped model direction
        axis = np.linspace(-2.0, 2.0, 21)
        neg = np.array([axis[np.argmin(np.abs(axis - x))]
                        for x in np.clip(-model.theta_hat, -2.0, 2.0)])
        scores = np.array([float(neg @ a) for a in SLATE])
        floor = float(np.max(scores) - scores[report.learned_winner])
        assert report.regret >= floor
        assert report.regret > 0.0

    def test_monotone_in_delta(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        search = SearchSpec(grid_resolution=21, bound=2.0)
        regrets = []
        for delta in (0.0, 0.5, 2.0, 8.0):
            report = worst_case_regret(model, data, delta, search)
            assert report.regret is not None
            regrets.append(report.regret)
        assert all(b >= a for a, b in zip(regrets, regrets[1:]))

    def test_nonnegative(self, rng):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        for delta in rng.uniform(0, 5, size=5):
            report = worst_case_regret(model, data, float(delta),
                                       search=SearchSpec(grid_resolution=11))
            assert report.regret is None or report.regret >= 0.0

    def test_reported_hypothesis_is_consistent(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        report = worst_case_regret(model, data, delta=2.0,
                                   search=SearchSpec(grid_resolution=11))
        assert report.worst_theta is not None
        worst_nll = nll(report.worst_theta * report.worst_w, data, model.lam)
        assert worst_nll <= report.metadata["best_nll"] + 2.0

    def test_rejects_bad_inputs(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        with pytest.raises(InputError):
            worst_case_regret(model, data, -1.0)
        with pytest.raises(InputError):
            worst_case_regret(model, data, 0.0, SearchSpec(grid_resolution=1))
        with pytest.raises(InputError):
            worst_case_regret(model, data, 0.0, SearchSpec(w_mode="bogus"))

    def test_data_checks_run_before_any_hypothesis_is_scored(self, monkeypatch):
        def scored(*args):
            raise AssertionError("a hypothesis was scored")

        monkeypatch.setattr(prefaudit.distortion, "_nll_rows", scored)
        model = RewardModel(theta_hat=[1.0, 0.0, 0.5], lam=1e-3, final_nll=0.0,
                            converged=True, iterations=0)
        with pytest.raises(InputError, match="differs from model dimension"):
            worst_case_regret(model, _dataset(), 0.5)  # a d=3 model on records of d=2

    def test_search_scores_without_per_hypothesis_nll_calls(self, monkeypatch):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)

        def per_call_nll(*args, **kwargs):
            raise AssertionError("nll() called per hypothesis")

        monkeypatch.setattr(prefaudit.distortion, "nll", per_call_nll)
        report = worst_case_regret(model, data, delta=0.5,
                                   search=SearchSpec(grid_resolution=11))
        assert report.regret is not None
        assert report.metadata["hypotheses_evaluated"] == 121


@pytest.mark.parametrize("delta", [0.0, 2.0, 1e9])
@pytest.mark.parametrize("case", ["ones-d2", "grid-d2", "random-d4", "random-grid-d4"])
def test_matches_naive_reference_loop(case, delta):
    if case.startswith("random"):
        data = _dataset_4d()
        search = SearchSpec(random_samples=300, seed=3,
                            w_mode="grid" if case == "random-grid-d4" else "ones")
    else:
        data = _dataset()
        search = (SearchSpec(grid_resolution=21) if case == "ones-d2"
                  else SearchSpec(grid_resolution=5, w_mode="grid", w_lo=0.5, w_hi=1.5))
    model = fit_mle(data, lam=1e-3)
    report = worst_case_regret(model, data, delta, search)
    regret, (theta, w), best_nll, count = _reference_regret(model, data, delta, search)
    assert report.regret == regret
    assert np.array_equal(report.worst_theta, theta)
    assert np.array_equal(report.worst_w, w)
    assert report.metadata["best_nll"] == best_nll
    assert report.metadata["consistent_count"] == count


def test_random_sampling_fallback_above_grid_limit():
    data = _dataset_4d()
    model = fit_mle(data, lam=1e-3)
    report = worst_case_regret(model, data, delta=5.0,
                               search=SearchSpec(random_samples=500, seed=3))
    assert report.regret is not None and report.regret >= 0.0
    assert report.metadata["hypotheses_evaluated"] == 500
    with pytest.raises(InputError, match="seed"):
        worst_case_regret(model, data, delta=5.0,
                          search=SearchSpec(random_samples=500, seed=-1))


@st.composite
def _search_cases(draw):
    """(model, data, delta, search) small enough for the naive loop: d of
    1-4, a slate of up to 12 points whose differences reach 1e3, records
    that repeat a few labelled pairs of its rows, some of them thousands
    of times, a grid search up to d=3 and the random fallback above,
    either w_mode."""
    d = draw(st.integers(1, 4))
    half = draw(st.sampled_from([0.5, 500.0]))
    point = st.lists(st.floats(-half, half), min_size=d, max_size=d)
    slate = draw(st.lists(point, min_size=2, max_size=12))
    row = st.integers(0, len(slate) - 1)
    repeats = st.one_of(st.integers(1, 3), st.integers(1000, 3000))
    picks = draw(st.lists(st.tuples(row, row, st.integers(0, 1), repeats), min_size=1, max_size=8))
    i0, i1, labels, times = zip(*picks)
    i0, i1, labels = (np.repeat(column, times) for column in (i0, i1, labels))
    data = Dataset(voter=np.zeros(len(labels), dtype=np.int64), label=labels, slate=slate, i0=i0, i1=i1)
    unit = st.lists(st.floats(-1, 1), min_size=d, max_size=d)
    model = RewardModel(theta_hat=draw(unit), lam=draw(st.sampled_from([0.0, 1e-3])),
                        final_nll=0.0, converged=True, iterations=0)
    w_mode = draw(st.sampled_from(["ones", "grid"]))
    if d <= GRID_DIM_LIMIT:
        top = {"ones": (30, 12, 6), "grid": (9, 5, 3)}[w_mode][d - 1]
        search = SearchSpec(grid_resolution=draw(st.integers(2, top)),
                            bound=draw(st.sampled_from([0.5, 2.0])), w_mode=w_mode, w_lo=0.5, w_hi=1.5)
    else:
        search = SearchSpec(random_samples=draw(st.integers(1, 150)), seed=draw(st.integers(0, 3)),
                            w_mode=w_mode, w_lo=0.0, w_hi=2.0)
    return model, data, draw(st.sampled_from([0.0, 1e-12, 0.5, 3.0])), search


@settings(max_examples=60, deadline=None)
@given(_search_cases())
def test_screened_search_equals_the_naive_loop(case):
    model, data, delta, search = case
    report = worst_case_regret(model, data, delta, search)
    regret, (theta, w), best_nll, count = _reference_regret(model, data, delta, search)
    assert report.regret == regret
    assert np.array_equal(report.worst_theta, theta)
    assert np.array_equal(report.worst_w, w)
    assert report.metadata["best_nll"] == best_nll
    assert report.metadata["consistent_count"] == count


@pytest.mark.parametrize("case, repeats", [("ones-d2", 60), ("grid-d2", 60), ("ones-d2", 600), ("grid-d2", 600)],
                         ids=["ones-d2", "grid-d2", "ones-d2-repeats-600", "grid-d2-repeats-600"])
def test_a_hypothesis_exactly_delta_above_the_best_is_consistent(case, repeats):
    # delta = v_k - v* is exact (Sterbenz), so v* + delta == v_k and hypothesis
    # k sits on the threshold; a screen without its margin drops some of them.
    # With 600 repeats the screen weights each of its few pairs by hundreds
    data = _dataset(repeats=repeats)
    model = fit_mle(data, lam=1e-3)
    search = (SearchSpec(grid_resolution=21) if case == "ones-d2"
              else SearchSpec(grid_resolution=6, w_mode="grid", w_lo=0.5, w_hi=1.5))
    vals = [nll(theta * w, data, model.lam) for theta, w in _reference_hypotheses(2, search)]
    ranked = sorted(set(vals))
    best = ranked[0]
    for v_k in ranked[1:40:3]:
        delta = v_k - best
        assert best + delta == v_k
        report = worst_case_regret(model, data, delta, search)
        assert report.metadata["best_nll"] == best
        assert report.metadata["consistent_count"] == sum(v <= v_k for v in vals)


def test_only_the_rows_the_screen_keeps_are_scored_exactly(monkeypatch):
    screen, exact = prefaudit.distortion._screen, prefaudit.distortion._nll_rows
    screened, kept, calls = [], [], []

    def recorded_screen(*args):
        screened.append(args)
        kept.append(screen(*args))
        return kept[-1]

    def counted_nll(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(prefaudit.distortion, "_screen", recorded_screen)
    monkeypatch.setattr(prefaudit.distortion, "_nll_rows", counted_nll)
    data = _dataset()  # round-robin
    model = fit_mle(data, lam=1e-3)
    report = worst_case_regret(model, data, 0.5, SearchSpec(grid_resolution=41))
    hypotheses = report.metadata["hypotheses_evaluated"]
    assert hypotheses == 41 ** 2
    assert len(calls) == kept[0].size < 0.01 * hypotheses
    assert 1 <= report.metadata["consistent_count"] <= kept[0].size
    # the screen saw one row per distinct (winner, loser) pair, weighted by its count
    winner, loser, count = data.pair_counts()
    deltas, counts = screened[0][2:4]
    assert deltas.tobytes() == (data.slate[winner] - data.slate[loser]).tobytes()
    assert np.array_equal(counts, count)
    assert len(counts) <= 20 < len(data)


# tracemalloc peak, in MiB, of the search below when every one of its
# 117,649 rows was scored exactly (no screen): the two 117,649 x 3 (theta, w)
# tables are 5.4 MiB of it
EXHAUSTIVE_W_GRID_PEAK_MIB = 7.30


def test_a_w_grid_search_stays_within_a_mebibyte_of_the_exhaustive_one():
    rng = np.random.default_rng(0)
    voters = sample_voters(PointMass(theta=[1.0, -0.5, 0.5]), 1, seed=0)
    slate = [rng.uniform(0, 1, 3) for _ in range(6)]
    data = generate_dataset(voters, slate, RoundRobin(repeats=4), EACH_PAIR_RANDOM_VOTER,
                            TrueRewardLabels(), seed=1)
    model = fit_mle(data, lam=1e-3)
    search = SearchSpec(grid_resolution=7, w_mode="grid")
    tracemalloc.start()
    try:
        report = worst_case_regret(model, data, 0.5, search)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.metadata["hypotheses_evaluated"] == 7 ** 6
    assert peak <= (EXHAUSTIVE_W_GRID_PEAK_MIB + 1) * 2**20


def _naive_screen(phi, rows, lam):
    """The screen's score of one phi and the B of its margin, from
    (winner - loser, count) rows, a term at a time with the math module."""
    score = lam * sum(p * p for p in phi)
    bound = score + sum(count for _, count in rows)
    for delta, count in rows:
        z = sum(p * x for p, x in zip(phi, delta))
        score += count * (math.log1p(math.exp(-abs(z))) + max(-z, 0.0))
        bound += count * sum(abs(p * x) for p, x in zip(phi, delta))
    return score, bound


def test_the_screen_margin_counts_records_not_distinct_pairs():
    """On 3 distinct pairs held by 150,000 records, one hypothesis sits between
    the cutoff the margin 4 (n + d + 64) eps B gives with n = 150,000 records
    (kept) and the one it would give with n = 3 pairs (dropped)."""
    slate = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    pairs = [(1, 0, 90_000), (0, 1, 40_000), (2, 0, 20_000)]  # (winner, loser, records)
    winner, loser, times = zip(*pairs)
    data = Dataset(voter=np.zeros(sum(times), dtype=np.int64), label=np.zeros(sum(times), dtype=np.int64),
                   slate=slate, i0=np.repeat(winner, times), i1=np.repeat(loser, times))
    rows = [([w - lo for w, lo in zip(slate[w_], slate[l_])], float(c)) for w_, l_, c in pairs]
    thetas = np.array([[0.8, 0.7], [0.9, 0.7]])  # the best, then the named hypothesis
    lam, d, eps = 1e-3, 2, np.finfo(np.float64).eps
    scores, bounds = zip(*(_naive_screen(phi, rows, lam) for phi in thetas.tolist()))
    n, k = sum(times), len(pairs)

    def lowest_delta_keeping_the_second(count):  # margin with ``count`` as n, in B and the factor
        margins = [4 * (count + d + 64) * eps * (b - n + count) for b in bounds]
        return scores[1] - margins[1] - (min(scores) + max(margins))

    with_records, with_pairs = lowest_delta_keeping_the_second(n), lowest_delta_keeping_the_second(k)
    assert 0 < with_records < with_pairs and with_pairs - with_records > 1e-5  # rounding is ~1e-10
    deltas, counts = prefaudit.estimation._pair_rows(data)
    assert counts.tolist() == [40_000.0, 90_000.0, 20_000.0]  # row-major: (0, 1), (1, 0), (2, 0)
    delta = (with_records + with_pairs) / 2
    assert prefaudit.distortion._screen(thetas, np.ones_like(thetas), deltas, counts, lam, delta).tolist() == [0, 1]
