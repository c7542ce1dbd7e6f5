
import numpy as np
import pytest

from conftest import random_records
from prefaudit.errors import InputError
from prefaudit.model import (
    Dataset,
    btl_prob,
    feature_vector,
    proxy_reward,
    reward,
)


class TestFeatureVector:
    def test_rejects_nan(self):
        with pytest.raises(InputError):
            feature_vector([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(InputError):
            feature_vector([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            feature_vector([])

    def test_read_only(self):
        v = feature_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v[0] = 3.0


class TestReward:
    def test_hand_computed_dot_product(self):
        assert reward([1, -1], [2, 3]) == -1.0

    def test_zero_theta(self):
        assert reward([0, 0, 0], [4, 5, 6]) == 0.0

    def test_unit_vectors(self):
        assert reward([1, 0], [1, 0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            reward([1, 2], [1, 2, 3])

    def test_linearity(self, rng):
        for _ in range(50):
            theta = rng.normal(size=4)
            a, b = rng.normal(size=4), rng.normal(size=4)
            alpha, beta = rng.normal(), rng.normal()
            lhs = reward(theta, alpha * a + beta * b)
            rhs = alpha * reward(theta, a) + beta * reward(theta, b)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestProxyReward:
    def test_all_ones_reduces_to_reward(self):
        assert proxy_reward([1, 1], [1, 1], [2, 3]) == reward([1, 1], [2, 3]) == 5.0

    def test_hand_computed_weighted_product(self):
        assert proxy_reward([1, 1], [2, 0], [2, 3]) == 4.0

    def test_zero_weights(self):
        assert proxy_reward([1, -1], [0, 0], [7, 9]) == 0.0

    def test_all_ones_exact_equality(self, rng):
        for _ in range(50):
            theta = rng.normal(size=3)
            a = rng.normal(size=3)
            assert proxy_reward(theta, np.ones(3), a) == reward(theta, a)


class TestBtlProb:
    def test_equal_rewards(self):
        assert btl_prob(3.7, 3.7) == 0.5

    def test_sigmoid_of_one(self):
        # closed-form sigmoid evaluated independently: 1/(1+e^-1)
        assert btl_prob(1, 0) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_complement(self):
        assert btl_prob(0, 1) == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            btl_prob(float("inf"), 0.0)

    def test_no_overflow_at_extreme_rewards(self):
        assert btl_prob(1000.0, -1000.0) == 1.0
        assert btl_prob(-1000.0, 1000.0) == pytest.approx(0.0, abs=1e-300)

    def test_normalization(self, rng):
        for _ in range(200):
            x, y = rng.uniform(-50, 50, size=2)
            assert abs(btl_prob(x, y) + btl_prob(y, x) - 1.0) <= 1e-12

    def test_translation_invariance(self, rng):
        for _ in range(200):
            x, y, c = rng.uniform(-20, 20, size=3)
            assert abs(btl_prob(x + c, y + c) - btl_prob(x, y)) <= 1e-12


class TestDataset:
    def test_rejects_bad_label(self):
        with pytest.raises(InputError):
            Dataset(voter=[0], a0=[[1.0]], a1=[[2.0]], label=[2])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InputError):
            Dataset(voter=[0], a0=[[1.0]], a1=[[2.0, 3.0]], label=[1])

    def test_proxy_requires_weights(self):
        with pytest.raises(InputError):
            Dataset(voter=[0], a0=[[1.0]], a1=[[2.0]], label=[1], scheme="proxy")

    def test_rejects_weights_of_the_wrong_length(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            Dataset(voter=[0], a0=[[1.0]], a1=[[2.0]], label=[1], scheme="proxy", w=[1.0, 2.0])

    def test_rejects_non_finite_coordinate(self):
        with pytest.raises(InputError, match="record 1: non-finite"):
            Dataset(voter=[0, 0], a0=[[1.0], [0.0]], a1=[[2.0], [float("inf")]], label=[1, 0])

    def test_columns_are_read_only(self):
        data = Dataset(voter=[3], a0=[[1.0]], a1=[[2.0]], label=[0])
        for column in (data.voter, data.label, data.a0, data.a1):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_winner_minus_loser_matches_a_per_record_loop(self, rng):
        data = random_records(rng, 3, 50)
        rows = [a1 - a0 if label == 1 else a0 - a1 for a0, a1, label in zip(data.a0, data.a1, data.label)]
        assert data.winner_minus_loser().tobytes() == np.array(rows).tobytes()
