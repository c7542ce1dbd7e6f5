import numpy as np
import pytest

from prefaudit.errors import ConfigError, InputError
from prefaudit.population import (
    DiagonalGaussian,
    ExplicitSlate,
    Mixture,
    PointMass,
    UniformBox,
    empirical_unanimous_gap,
    population_mean_gap,
    sample_alternatives,
    sample_voters,
    seeded_rng,
)


class TestSampleVoters:
    def test_point_mass(self):
        voters = sample_voters(PointMass(theta=[1.0, 2.0]), 3, seed=0)
        assert [v.voter_id for v in voters] == [0, 1, 2]
        for v in voters:
            assert np.array_equal(v.theta, [1.0, 2.0])

    def test_gaussian_mean_concentrates(self):
        # law of large numbers: 3*sigma/sqrt(n) ~ 0.03, relaxed to 0.05
        spec = DiagonalGaussian(mean=[0.0, 0.0], var=[1.0, 1.0])
        voters = sample_voters(spec, 10000, seed=1)
        sample_mean = np.mean([v.theta for v in voters], axis=0)
        assert np.all(np.abs(sample_mean) < 0.05)

    def test_mixture_component_frequencies(self):
        mu_a, mu_b = [10.0, 0.0], [-10.0, 0.0]
        spec = Mixture(components=((0.5, mu_a, [0.01, 0.01]), (0.5, mu_b, [0.01, 0.01])))
        voters = sample_voters(spec, 10000, seed=2)
        frac_a = np.mean([v.theta[0] > 0 for v in voters])
        assert abs(frac_a - 0.5) < 0.02

    def test_determinism(self):
        spec = DiagonalGaussian(mean=[1.0], var=[2.0])
        a = sample_voters(spec, 100, seed=7)
        b = sample_voters(spec, 100, seed=7)
        for va, vb in zip(a, b):
            assert va.theta.tobytes() == vb.theta.tobytes()

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            DiagonalGaussian(mean=[0.0], var=[-1.0])
        with pytest.raises(ConfigError):
            Mixture(components=((0.5, [0.0], [1.0]), (0.4, [1.0], [1.0])))
        with pytest.raises(ConfigError):
            sample_voters(PointMass(theta=[1.0]), 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(InputError, match="seed"):
            sample_voters(PointMass(theta=[1.0]), 2, seed=seed)


class TestSampleAlternatives:
    def test_explicit_slate_in_order(self):
        pts = ([0.0, 1.0], [1.0, 0.0], [0.5, 0.5])
        out = sample_alternatives(ExplicitSlate(points=pts), 3, seed=0)
        for got, want in zip(out, pts):
            assert np.array_equal(got, want)

    def test_uniform_box_mean(self):
        spec = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])
        out = np.stack(sample_alternatives(spec, 10000, seed=3))
        assert np.all(np.abs(out.mean(axis=0) - 0.5) < 0.02)

    def test_degenerate_box(self):
        spec = UniformBox(lo=[0.0, 0.0], hi=[0.0, 0.0])
        for a in sample_alternatives(spec, 5, seed=4):
            assert np.array_equal(a, [0.0, 0.0])

    def test_slate_oversampling_with_replacement(self):
        pts = ([0.0], [1.0])
        out = sample_alternatives(ExplicitSlate(points=pts), 10, seed=5)
        assert len(out) == 10

    def test_determinism(self):
        spec = UniformBox(lo=[0.0], hi=[1.0])
        a = np.stack(sample_alternatives(spec, 50, seed=9))
        b = np.stack(sample_alternatives(spec, 50, seed=9))
        assert a.tobytes() == b.tobytes()


    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(InputError, match="seed"):
            sample_alternatives(UniformBox(lo=[0.0], hi=[1.0]), 2, seed=seed)


def test_seeded_rng_accepts_full_philox_key_range():
    for seed in (0, np.uint64(7), 2**128 - 1):
        seeded_rng(seed).random()
    for seed in (-1, 2**128, 1.5, None):
        with pytest.raises(InputError, match="seed"):
            seeded_rng(seed)


class TestPopulationMeanGap:
    def test_gaussian_gap(self):
        spec = DiagonalGaussian(mean=[1.0, 0.0], var=[1.0, 1.0])
        assert population_mean_gap(spec, [1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_zero_difference(self):
        spec = PointMass(theta=[3.0, -2.0])
        a = [0.4, 0.7]
        assert population_mean_gap(spec, a, a) == 0.0

    def test_mixture_weighted_mean(self):
        spec = Mixture(components=((0.5, [2.0, 0.0], [0.0, 0.0]), (0.5, [0.0, 0.0], [0.0, 0.0])))
        assert population_mean_gap(spec, [1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_antisymmetry(self, rng):
        spec = DiagonalGaussian(mean=[0.3, -0.7], var=[1.0, 2.0])
        for _ in range(20):
            a, b = rng.normal(size=2), rng.normal(size=2)
            assert population_mean_gap(spec, a, b) == -population_mean_gap(spec, b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            population_mean_gap(PointMass(theta=[1.0]), [1.0, 2.0], [0.0, 0.0])


class TestEmpiricalUnanimousGap:
    def test_single_voter(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 1, seed=0)
        assert empirical_unanimous_gap(voters, [1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_disagreeing_voters(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 1, seed=0)
        voters += sample_voters(PointMass(theta=[-1.0, 0.0]), 1, seed=0)
        assert empirical_unanimous_gap(voters, [1.0, 0.0], [0.0, 0.0]) == -1.0

    def test_identical_alternatives(self):
        voters = sample_voters(DiagonalGaussian(mean=[0.0], var=[1.0]), 10, seed=1)
        a = [0.6]
        assert empirical_unanimous_gap(voters, a, a) == 0.0

    def test_empty_voters(self):
        with pytest.raises(InputError):
            empirical_unanimous_gap([], [1.0], [0.0])

    def test_point_mass_matches_analytic(self, rng):
        spec = PointMass(theta=[0.5, -1.5])
        voters = sample_voters(spec, 17, seed=2)
        for _ in range(20):
            a, b = rng.normal(size=2), rng.normal(size=2)
            assert empirical_unanimous_gap(voters, a, b) == population_mean_gap(spec, a, b)


def test_population_mean_formulas():
    assert np.array_equal(PointMass(theta=[1.0, 2.0]).expected_theta(), [1.0, 2.0])
    assert np.array_equal(DiagonalGaussian(mean=[3.0], var=[1.0]).expected_theta(), [3.0])
    mix = Mixture(components=((0.25, [4.0], [1.0]), (0.75, [0.0], [1.0])))
    assert np.array_equal(mix.expected_theta(), [1.0])
