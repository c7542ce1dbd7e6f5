import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_difference_gradient, make_dataset, mirrored, random_records
from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.config import config_from_dict
from prefaudit.errors import InputError
from prefaudit.estimation import DEFAULT_GRAD_TOL, borda_scores, fit_mle, nll, nll_gradient, score
from prefaudit.model import Dataset, RewardModel
from prefaudit.oracle import brute_force_mle
from prefaudit.pipeline import DATASET_FILE, run_pipeline
from prefaudit.population import PointMass, UniformBox, sample_alternatives, sample_voters
from prefaudit.serialize import read_records

# d=3 mixture population with proxy labels, as in the grid-d3 benchmark workload
GRID_D3 = {
    "dimension": 3,
    "seed": 42,
    "num_voters": 50,
    "num_alternatives": 20,
    "population": {"kind": "mixture", "components": [
        {"weight": 0.7, "mean": [1.0, -0.5, 0.5], "var": [0.1, 0.1, 0.1]},
        {"weight": 0.3, "mean": [-0.5, 1.0, 0.0], "var": [0.1, 0.1, 0.1]},
    ]},
    "alternatives": {"kind": "uniform-box", "lo": 0, "hi": 1},
    "annotation": {"pairs": {"kind": "round-robin", "repeats": 10},
                   "labels": {"kind": "proxy", "w": [1.0, 0.5, 1.5]}},
}


class TestNll:
    def test_zero_theta_gives_n_ln2(self, rng):
        records = random_records(rng, 3, 20)
        assert nll(np.zeros(3), records, 0.0) == pytest.approx(20 * math.log(2), abs=1e-12)

    def test_unit_gap_log_sigmoid(self):
        # single record, winner gap <theta, delta> = 1: -ln sigma(1)
        records = make_dataset([([0.0], [1.0], 1)])
        assert nll([1.0], records, 0.0) == pytest.approx(0.3132616875182228, abs=1e-10)

    def test_zero_theta_zero_penalty(self, rng):
        records = random_records(rng, 2, 7)
        assert nll(np.zeros(2), records, 1.0) == pytest.approx(7 * math.log(2), abs=1e-12)

    def test_empty_dataset(self):
        with pytest.raises(InputError):
            nll([1.0], Dataset(voter=[], label=[], a0=[], a1=[]), 0.0)


class TestGradient:
    def test_zero_theta_half_delta(self):
        records = make_dataset([([0.0, 0.0], [2.0, -4.0], 1)])
        grad = nll_gradient(np.zeros(2), records, 0.0)
        assert np.allclose(grad, [-1.0, 2.0], atol=1e-15)  # -0.5 * delta

    def test_symmetric_dataset_cancels(self, rng):
        # each record plus a copy with the opposite winner: deltas cancel
        records = random_records(rng, 3, 10)
        grad = nll_gradient(np.zeros(3), mirrored(records), 0.0)
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_matches_central_differences(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 51))
            records = random_records(rng, d, n)
            lam = float(rng.uniform(0, 0.1))
            theta = rng.normal(size=d)
            analytic = nll_gradient(theta, records, lam)
            fd = central_difference_gradient(theta, records, lam)
            scale = 1 + np.max(np.abs(analytic))
            assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale


class TestFitMle:
    def test_separable_single_record_reports_divergence(self):
        model = fit_mle(make_dataset([([0.0], [1.0], 1)]), lam=0.0)
        assert not model.converged
        assert model.diagnostic

    def test_symmetric_data_fits_origin(self, rng):
        records = random_records(rng, 2, 15)
        model = fit_mle(mirrored(records), lam=1e-3)
        assert model.converged
        assert np.max(np.abs(model.theta_hat)) < 1e-6

    def test_recovers_sign_structure(self):
        theta_star = np.array([1.0, 0.0])
        voters = sample_voters(PointMass(theta=theta_star), 1, seed=0)
        slate = sample_alternatives(UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0]), 20, seed=1)
        data = generate_dataset(voters, slate, RoundRobin(repeats=106),
                                EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=2)
        model = fit_mle(data, lam=1e-3)
        agree = total = 0
        for i in range(len(slate)):
            for j in range(i + 1, len(slate)):
                true_gap = float(theta_star @ (slate[i] - slate[j]))
                if abs(true_gap) > 0.5:
                    total += 1
                    fitted_gap = score(model, slate[i]) - score(model, slate[j])
                    agree += np.sign(fitted_gap) == np.sign(true_gap)
        assert total > 0
        assert agree / total >= 0.99

    def test_monotone_descent(self, rng):
        records = random_records(rng, 4, 40)
        model = fit_mle(records, lam=1e-3)
        hist = np.array(model.nll_history)
        assert np.all(np.diff(hist) <= 0)
        assert model.final_nll <= hist[0]

    def test_permutation_invariance(self, rng):
        records = random_records(rng, 3, 30)
        model_a = fit_mle(records, lam=1e-2)
        order = np.arange(len(records))
        rng.shuffle(order)
        model_b = fit_mle(records.take(order), lam=1e-2)
        assert np.max(np.abs(model_a.theta_hat - model_b.theta_hat)) < 1e-5

    def test_final_nll_not_above_init(self, rng):
        records = random_records(rng, 2, 25)
        init = rng.normal(size=2)
        model = fit_mle(records, lam=1e-3, init=init)
        assert model.final_nll <= nll(init, records, 1e-3)


def _bt_records(rng, theta_star, n):
    """Records labeled by the Bradley-Terry model at theta_star."""
    rows = []
    for _ in range(n):
        a0, a1 = rng.uniform(-1, 1, theta_star.size), rng.uniform(-1, 1, theta_star.size)
        p_a1 = 1.0 / (1.0 + math.exp(-float(theta_star @ (a1 - a0))))
        rows.append((a0, a1, int(rng.random() < p_a1)))
    return make_dataset(rows)


def _numpy_gradient(theta, records, lam):
    """NLL gradient from the record fields, apart from the estimation kernels."""
    deltas = np.array([a1 - a0 if label == 1 else a0 - a1
                       for a0, a1, label in zip(records.a0, records.a1, records.label)])
    p_lose = 1.0 / (1.0 + np.exp(deltas @ theta))
    return -(p_lose[:, None] * deltas).sum(axis=0) + 2.0 * lam * theta


class TestNewtonFit:
    def test_agrees_with_brute_force_grid(self):
        rng = np.random.default_rng(7)
        resolution, bound = 11, 4.0
        step = 2 * bound / (resolution - 1)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            records = _bt_records(rng, rng.uniform(-1.5, 1.5, d), int(rng.integers(30, 80)))
            model = fit_mle(records, lam=0.1)
            opt = brute_force_mle(records, lam=0.1, resolution=resolution, bound=bound)
            assert model.converged
            assert model.final_nll <= nll(opt, records, 0.1)
            assert np.max(np.abs(model.theta_hat - opt)) <= step

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        rows=st.lists(
            st.tuples(st.lists(st.floats(-1, 1), min_size=8, max_size=8), st.integers(0, 1)),
            min_size=1, max_size=40),
        lam=st.floats(1e-3, 1.0),
    )
    def test_numpy_gradient_within_grad_tol(self, d, rows, lam):
        records = make_dataset([(x[:d], x[4:4 + d], label) for x, label in rows])
        model = fit_mle(records, lam=lam)
        assert model.converged
        grad = _numpy_gradient(model.theta_hat, records, lam)
        assert np.max(np.abs(grad)) <= DEFAULT_GRAD_TOL

    @pytest.mark.parametrize("block", [
        # two voter blocks of the seed-42 consistency audit, in the audit's
        # order, whose gradient-descent fits stopped at max_iters=10000
        [15, 4, 5, 42, 0, 46, 12, 3, 17, 9, 6, 45, 14, 26, 31, 41, 27, 48, 23, 16,
         19, 35, 21, 22, 33],
        [45, 2, 39, 48, 49, 44, 35, 32, 42, 0, 25, 16, 6, 40, 47, 31, 9, 10, 1, 46,
         4, 22, 36, 37, 19],
    ])
    def test_grid_d3_block_converges(self, tmp_path, block):
        run_pipeline(config_from_dict(GRID_D3), tmp_path, stages=("simulate",))
        data = read_records(tmp_path / DATASET_FILE)
        records = data.take(np.concatenate([np.flatnonzero(data.voter == v) for v in block]))
        model = fit_mle(records, lam=1e-3)
        assert model.converged, model.diagnostic
        assert model.iterations <= 20

    def test_singular_hessian_falls_back_to_gradient(self):
        # lam=0 and every delta on the first axis: the Hessian's second row is zero
        records = make_dataset([([0.0, 0.0], [1.0, 0.0], 1)] * 3 + [([0.0, 0.0], [1.0, 0.0], 0)])
        model = fit_mle(records, lam=0.0)
        assert model.converged, model.diagnostic
        assert model.theta_hat == pytest.approx([math.log(3.0), 0.0], abs=1e-7)


class TestBordaScores:
    def test_win_rate_counting(self):
        a, b, c = [1.0], [0.0], [0.5]
        records = make_dataset([
            (b, a, 1),  # a beats b
            (a, b, 0),  # a beats b
            (c, a, 1),  # a beats c
            (a, c, 1),  # c beats a
        ])
        scores = borda_scores(records, [a, b, c])
        assert scores[0] == 0.75

    def test_never_compared_is_undefined(self):
        records = make_dataset([([0.0], [1.0], 1)])
        scores = borda_scores(records, [[0.0], [1.0], [2.0]])
        assert scores[2] is None

    def test_deterministic_winner(self):
        records = make_dataset([([0.0], [1.0], 1)] * 5)
        scores = borda_scores(records, [[1.0], [0.0]])
        assert scores[0] == 1.0 and scores[1] == 0.0

    def test_empty_data(self):
        with pytest.raises(InputError):
            borda_scores(Dataset(voter=[], label=[], a0=[], a1=[]), [[1.0]])

    def test_matches_a_per_record_count(self, rng):
        slate = [rng.normal(size=2) for _ in range(6)]
        slate.append(slate[2].copy())  # a point the slate holds twice
        outside = np.array([9.0, 9.0])  # a point the slate does not hold
        pick = rng.integers(0, len(slate) + 1, size=(200, 2))
        a0, a1 = ([slate[i] if i < len(slate) else outside for i in col] for col in pick.T)
        data = Dataset(voter=[0] * 200, label=rng.integers(0, 2, 200), a0=a0, a1=a1)
        index = {}
        for i, a in enumerate(slate):
            index.setdefault(a.tobytes(), i)
        wins, seen = [0] * len(slate), [0] * len(slate)
        for x0, x1, label in zip(data.a0, data.a1, data.label):
            winner, loser = (x1, x0) if label == 1 else (x0, x1)
            if winner.tobytes() in index:
                wins[index[winner.tobytes()]] += 1
                seen[index[winner.tobytes()]] += 1
            if loser.tobytes() in index:
                seen[index[loser.tobytes()]] += 1
        expected = {i: (wins[i] / seen[i] if seen[i] else None) for i in range(len(slate))}
        assert borda_scores(data, slate) == expected
        assert expected[6] is None and all(expected[i] is not None for i in range(6))


class TestScore:
    def test_dot_product(self):
        model = RewardModel(theta_hat=[1.0, -1.0], lam=0.0, final_nll=0.0,
                            converged=True, iterations=0)
        assert score(model, [2.0, 3.0]) == -1.0

    def test_zero_model(self, rng):
        model = RewardModel(theta_hat=[0.0, 0.0], lam=0.0, final_nll=0.0,
                            converged=True, iterations=0)
        for _ in range(5):
            assert score(model, rng.normal(size=2)) == 0.0

    def test_translation_covariance(self, rng):
        model = RewardModel(theta_hat=rng.normal(size=3), lam=0.0, final_nll=0.0,
                            converged=True, iterations=0)
        a, b, c = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        lhs = score(model, a) - score(model, b)
        rhs = score(model, a + c) - score(model, b + c)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_dimension_mismatch(self):
        model = RewardModel(theta_hat=[1.0], lam=0.0, final_nll=0.0,
                            converged=True, iterations=0)
        with pytest.raises(InputError):
            score(model, [1.0, 2.0])
