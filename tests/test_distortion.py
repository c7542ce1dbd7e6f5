import numpy as np
import pytest

import prefaudit.distortion
from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.distortion import (
    SearchSpec,
    _hypotheses,
    consistent_set_membership,
    welfare,
    worst_case_regret,
)
from prefaudit.errors import InputError
from prefaudit.estimation import fit_mle, nll
from prefaudit.model import Dataset, RewardModel
from prefaudit.population import DiagonalGaussian, PointMass, sample_voters

THETA_STAR = np.array([1.6, -1.0])  # lies on the linspace(-2, 2, 21) grid
SLATE = [
    np.array([0.9, 0.1]),
    np.array([0.1, 0.9]),
    np.array([0.5, 0.5]),
    np.array([0.8, 0.8]),
    np.array([0.2, 0.3]),
]


def _dataset(seed=0, repeats=60):
    voters = sample_voters(PointMass(theta=THETA_STAR), 1, seed=seed)
    return generate_dataset(voters, SLATE, RoundRobin(repeats=repeats),
                            EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=seed + 1)


def _dataset_4d():
    """A d=4 slate and dataset, above the grid limit (random fallback)."""
    rng = np.random.default_rng(0)
    theta_star = np.array([1.0, -0.5, 0.3, 0.7])
    voters = sample_voters(PointMass(theta=theta_star), 1, seed=0)
    slate = [rng.uniform(0, 1, 4) for _ in range(4)]
    data = generate_dataset(voters, slate, RoundRobin(repeats=30),
                            EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=1)
    return slate, data


def _reference_regret(model, slate, data, delta, search):
    """The regret search as a naive loop: one nll() call per hypothesis,
    every (theta, w, nll) kept, then the max regret over the consistent ones
    (strict >, so the first maximizer in stream order wins)."""
    alts = np.stack(slate)
    scores = [float(model.theta_hat @ a) for a in slate]
    a_star = int(np.argmax(scores))
    cache = []
    best_nll = np.inf
    for theta, w in _hypotheses(alts.shape[1], search):
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


class TestWelfare:
    def test_point_mass_dot_product(self):
        assert welfare(PointMass(theta=[1.0, 1.0]), [2.0, 3.0]) == 5.0

    def test_zero_alternative(self):
        assert welfare(DiagonalGaussian(mean=[3.0, -1.0], var=[1.0, 1.0]), [0.0, 0.0]) == 0.0

    def test_orthogonal_mean(self):
        assert welfare(DiagonalGaussian(mean=[1.0, 0.0], var=[1.0, 1.0]), [0.0, 5.0]) == 0.0


class TestConsistentSetMembership:
    def test_fitted_point_is_consistent_with_itself(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        assert consistent_set_membership(model.theta_hat, np.ones(2), data,
                                         delta=0.0, lam=1e-3,
                                         best_nll=model.final_nll)

    def test_outside_slack_ball(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        # find a theta whose NLL exceeds best + 2*delta
        delta = 0.5
        bad = model.theta_hat * 10
        assert nll(bad, data, 1e-3) > model.final_nll + 2 * delta
        assert not consistent_set_membership(bad, np.ones(2), data, delta, 1e-3,
                                             best_nll=model.final_nll)

    def test_product_identifiability(self, rng):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        for _ in range(20):
            theta = rng.uniform(-2, 2, 2)
            w = rng.uniform(0.1, 2, 2)
            direct = consistent_set_membership(theta, w, data, 1.0, 1e-3,
                                               best_nll=model.final_nll)
            folded = consistent_set_membership(theta * w, np.ones(2), data, 1.0, 1e-3,
                                               best_nll=model.final_nll)
            assert direct == folded
            # the NLL halves agree exactly
            assert nll(theta * w, data, 1e-3) == nll((theta * w) * np.ones(2), data, 1e-3)


class TestWorstCaseRegret:
    def test_zero_regret_with_generator_on_grid(self):
        data = _dataset(repeats=200)
        model = fit_mle(data, lam=1e-3)
        report = worst_case_regret(model, SLATE, data, delta=0.0,
                                   search=SearchSpec(grid_resolution=21, bound=2.0))
        assert report.regret == 0.0
        assert report.metadata["consistent_count"] >= 1

    def test_single_effective_alternative(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        a = np.array([0.4, 0.6])
        report = worst_case_regret(model, [a, np.array(a)], data, delta=10.0,
                                   search=SearchSpec(grid_resolution=11))
        assert report.regret == 0.0

    def test_large_delta_admits_adversary(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        report = worst_case_regret(model, SLATE, data, delta=1e9,
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
            report = worst_case_regret(model, SLATE, data, delta, search)
            assert report.regret is not None
            regrets.append(report.regret)
        assert all(b >= a for a, b in zip(regrets, regrets[1:]))

    def test_nonnegative(self, rng):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        for delta in rng.uniform(0, 5, size=5):
            report = worst_case_regret(model, SLATE, data, float(delta),
                                       search=SearchSpec(grid_resolution=11))
            assert report.regret is None or report.regret >= 0.0

    def test_reported_hypothesis_is_consistent(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        report = worst_case_regret(model, SLATE, data, delta=2.0,
                                   search=SearchSpec(grid_resolution=11))
        assert report.worst_theta is not None
        assert consistent_set_membership(
            report.worst_theta, report.worst_w, data, 2.0, model.lam,
            best_nll=report.metadata["best_nll"])

    def test_rejects_bad_inputs(self):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)
        with pytest.raises(InputError):
            worst_case_regret(model, [SLATE[0]], data, 0.0)
        with pytest.raises(InputError):
            worst_case_regret(model, SLATE, data, -1.0)
        with pytest.raises(InputError):
            worst_case_regret(model, SLATE, data, 0.0, SearchSpec(grid_resolution=1))
        with pytest.raises(InputError):
            worst_case_regret(model, SLATE, data, 0.0, SearchSpec(w_mode="bogus"))

    def test_data_checks_run_before_any_hypothesis_is_scored(self, monkeypatch):
        def scored(*args):
            raise AssertionError("a hypothesis was scored")

        monkeypatch.setattr(prefaudit.distortion, "_nll_from_deltas", scored)
        model = RewardModel(theta_hat=[1.0, 0.0, 0.5], lam=1e-3, final_nll=0.0,
                            converged=True, iterations=0)
        slate = [np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.2, 0.1])]
        with pytest.raises(InputError, match="empty"):
            worst_case_regret(model, slate, Dataset(voter=[], label=[], a0=[], a1=[]), 0.5)
        with pytest.raises(InputError, match="dimension"):
            worst_case_regret(model, slate, _dataset(), 0.5)  # records of d=2

    def test_search_scores_without_per_hypothesis_nll_calls(self, monkeypatch):
        data = _dataset()
        model = fit_mle(data, lam=1e-3)

        def per_call_nll(*args, **kwargs):
            raise AssertionError("nll() called per hypothesis")

        monkeypatch.setattr(prefaudit.distortion, "nll", per_call_nll)
        report = worst_case_regret(model, SLATE, data, delta=0.5,
                                   search=SearchSpec(grid_resolution=11))
        assert report.regret is not None
        assert report.metadata["hypotheses_evaluated"] == 121


@pytest.mark.parametrize("delta", [0.0, 2.0, 1e9])
@pytest.mark.parametrize("case", ["ones-d2", "grid-d2", "random-d4"])
def test_matches_naive_reference_loop(case, delta):
    if case == "random-d4":
        slate, data = _dataset_4d()
        search = SearchSpec(random_samples=300, seed=3)
    else:
        slate, data = SLATE, _dataset()
        search = (SearchSpec(grid_resolution=21) if case == "ones-d2"
                  else SearchSpec(grid_resolution=5, w_mode="grid", w_lo=0.5, w_hi=1.5))
    model = fit_mle(data, lam=1e-3)
    report = worst_case_regret(model, slate, data, delta, search)
    regret, (theta, w), best_nll, count = _reference_regret(model, slate, data, delta, search)
    assert report.regret == regret
    assert np.array_equal(report.worst_theta, theta)
    assert np.array_equal(report.worst_w, w)
    assert report.metadata["best_nll"] == best_nll
    assert report.metadata["consistent_count"] == count


def test_random_sampling_fallback_above_grid_limit():
    slate, data = _dataset_4d()
    model = fit_mle(data, lam=1e-3)
    report = worst_case_regret(model, slate, data, delta=5.0,
                               search=SearchSpec(random_samples=500, seed=3))
    assert report.regret is not None and report.regret >= 0.0
    assert report.metadata["hypotheses_evaluated"] == 500
    with pytest.raises(InputError, match="seed"):
        worst_case_regret(model, slate, data, delta=5.0,
                          search=SearchSpec(random_samples=500, seed=-1))
