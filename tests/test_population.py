import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaudit.errors import ConfigError, InputError
from prefaudit.population import (
    DiagonalGaussian,
    ExplicitSlate,
    GaussianSpace,
    Mixture,
    PointMass,
    UniformBox,
    sample_alternatives,
    sample_voters,
    seeded_rng,
)


class TestSampleVoters:
    def test_point_mass(self):
        voters = sample_voters(PointMass(theta=[1.0, 2.0]), 3, seed=0)
        assert voters.ids.tolist() == [0, 1, 2]
        assert voters.thetas.tolist() == [[1.0, 2.0]] * 3

    def test_gaussian_mean_concentrates(self):
        # law of large numbers: 3*sigma/sqrt(n) ~ 0.03, relaxed to 0.05
        spec = DiagonalGaussian(mean=[0.0, 0.0], var=[1.0, 1.0])
        voters = sample_voters(spec, 10000, seed=1)
        sample_mean = np.mean(voters.thetas, axis=0)
        assert np.all(np.abs(sample_mean) < 0.05)

    def test_mixture_component_frequencies(self):
        mu_a, mu_b = [10.0, 0.0], [-10.0, 0.0]
        spec = Mixture(components=((0.5, mu_a, [0.01, 0.01]), (0.5, mu_b, [0.01, 0.01])))
        voters = sample_voters(spec, 10000, seed=2)
        frac_a = np.mean(voters.thetas[:, 0] > 0)
        assert abs(frac_a - 0.5) < 0.02

    def test_determinism(self):
        spec = DiagonalGaussian(mean=[1.0], var=[2.0])
        a = sample_voters(spec, 100, seed=7)
        b = sample_voters(spec, 100, seed=7)
        assert a.thetas.tobytes() == b.thetas.tobytes()

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

    def test_explicit_slate_needs_two_distinct_points(self):
        for pts in (([0.5, 0.5],), ([0.5, 0.5], [0.5, 0.5]), ([0.0, 1.0], [-0.0, 1.0])):
            with pytest.raises(ConfigError, match="^points: need at least 2 distinct points, got 1$"):
                ExplicitSlate(points=pts)
        # repeated points are fine while two of them differ
        out = sample_alternatives(ExplicitSlate(points=([0.0, 1.0], [0.0, 1.0], [1.0, 0.0])), 3, seed=0)
        assert np.array_equal(out, [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])

    def test_uniform_box_mean(self):
        spec = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])
        out = np.stack(sample_alternatives(spec, 10000, seed=3))
        assert np.all(np.abs(out.mean(axis=0) - 0.5) < 0.02)

    def test_degenerate_box(self):
        # a box of one point would be a slate of copies of one alternative
        with pytest.raises(ConfigError, match="^hi: need hi > lo on some coordinate"):
            UniformBox(lo=[0.0, 0.0], hi=[0.0, 0.0])
        # degenerate on some coordinates only is still a box
        out = sample_alternatives(UniformBox(lo=[0.0, 0.5], hi=[1.0, 0.5]), 5, seed=4)
        assert np.all(out[:, 1] == 0.5) and len(np.unique(out[:, 0])) == 5

    def test_gaussian_space_needs_a_positive_variance(self):
        with pytest.raises(ConfigError, match="^var: need a positive entry"):
            GaussianSpace(mean=[0.5, 0.5], var=[0.0, 0.0])
        out = sample_alternatives(GaussianSpace(mean=[0.5, 0.5], var=[0.0, 1.0]), 5, seed=4)
        assert np.all(out[:, 0] == 0.5) and len(np.unique(out[:, 1])) == 5
        # a population keeps accepting zero variance: every voter is the mean
        voters = sample_voters(DiagonalGaussian(mean=[0.5, 0.5], var=[0.0, 0.0]), 3, seed=4)
        assert voters.thetas.tolist() == [[0.5, 0.5]] * 3

    def test_slate_oversampling_with_replacement(self):
        pts = ([0.0], [1.0])
        out = sample_alternatives(ExplicitSlate(points=pts), 10, seed=5)
        assert len(out) == 10

    def test_determinism(self):
        spec = UniformBox(lo=[0.0], hi=[1.0])
        a = np.stack(sample_alternatives(spec, 50, seed=9))
        b = np.stack(sample_alternatives(spec, 50, seed=9))
        assert a.tobytes() == b.tobytes()

    def test_returns_a_read_only_slate_array(self):
        out = sample_alternatives(UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0]), 4, seed=0)
        assert out.shape == (4, 2) and out.dtype == np.float64
        assert out.flags.c_contiguous and not out.flags.writeable

    def test_one_alternative_is_not_a_slate(self):
        with pytest.raises(InputError, match="m >= 2"):
            sample_alternatives(UniformBox(lo=[0.0], hi=[1.0]), 1, seed=0)

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


def test_population_mean_formulas():
    assert np.array_equal(PointMass(theta=[1.0, 2.0]).expected_theta(), [1.0, 2.0])
    assert np.array_equal(DiagonalGaussian(mean=[3.0], var=[1.0]).expected_theta(), [3.0])
    mix = Mixture(components=((0.25, [4.0], [1.0]), (0.75, [0.0], [1.0])))
    assert np.array_equal(mix.expected_theta(), [1.0])


@settings(max_examples=100, deadline=None)
@given(
    # adding 0.0 turns -0.0 into 0.0: mean + 0 * noise does not keep the sign of a -0.0 mean
    st.lists(st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0), min_size=1, max_size=5),
    st.integers(1, 20),
    st.integers(0, 2**32),
)
def test_point_mass_is_the_zero_variance_gaussian(theta, n, seed):
    spec = PointMass(theta=theta)
    assert type(spec) is DiagonalGaussian
    assert np.array_equal(spec.mean, theta) and not spec.var.any()
    assert spec.sample(seeded_rng(seed), n).tobytes() == np.tile(np.array(theta), (n, 1)).tobytes()


def test_a_mixture_rebuilt_from_its_components_samples_the_same_bytes():
    mix = Mixture(components=((0.25, [4.0, -1.0], [1.0, 0.0]), (0.75, [0.0, 2.0], [0.5, 3.0])))
    rebuilt = Mixture(mix.components)
    assert rebuilt.sample(seeded_rng(3), 50).tobytes() == mix.sample(seeded_rng(3), 50).tobytes()
