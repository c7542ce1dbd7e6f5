import numpy as np
import pytest

from prefaudit.annotation import (
    PARTITION_BY_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.axioms import (
    ConsistencyScheme,
    audit_condorcet,
    audit_consistency,
    audit_unanimity,
)
from prefaudit.errors import InputError
from prefaudit.estimation import fit_mle
from prefaudit.model import RewardModel, VoterParams
from prefaudit.population import DiagonalGaussian, Mixture, PointMass, sample_voters
from prefaudit.reports import emit_table


def _model(theta):
    return RewardModel(theta_hat=theta, lam=1e-3, final_nll=1.0, converged=True, iterations=1)


SLATE_2D = [np.array([1.0, 0.0]), np.array([0.0, 0.0])]


class TestUnanimity:
    def test_point_mass_pass(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 5, seed=0)
        report = audit_unanimity(_model([1.0, 0.0]), SLATE_2D, voters, epsilon=0.5)
        assert report.passed and not report.vacuous
        assert report.anchors[0].dominated == (1,)

    def test_disagreeing_voters_vacuous(self):
        voters = [
            VoterParams(voter_id=0, theta=[1.0, 0.0]),
            VoterParams(voter_id=1, theta=[-1.0, 0.0]),
        ]
        report = audit_unanimity(_model([1.0, 0.0]), SLATE_2D, voters, epsilon=0.0)
        assert report.passed and report.vacuous
        assert all(not a.dominated for a in report.anchors)

    def test_negated_model_fails(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 5, seed=0)
        report = audit_unanimity(_model([-1.0, 0.0]), SLATE_2D, voters, epsilon=0.5)
        assert not report.passed
        assert (0, 1) in report.violations

    def test_empty_inputs(self):
        with pytest.raises(InputError):
            audit_unanimity(_model([1.0, 0.0]), SLATE_2D, [], 0.0)
        with pytest.raises(InputError):
            audit_unanimity(_model([1.0, 0.0]), [SLATE_2D[0]],
                            sample_voters(PointMass(theta=[1.0, 0.0]), 1, 0), 0.0)


class TestCondorcet:
    def test_gaussian_pass(self):
        pop = DiagonalGaussian(mean=[1.0, 0.0], var=[1.0, 1.0])
        report = audit_condorcet(_model([1.0, 0.0]), SLATE_2D, pop, epsilon=0.5)
        assert report.passed and not report.vacuous

    def test_duplicate_alternatives_never_dominate_each_other(self):
        pop = PointMass(theta=[1.0, 0.0])
        a = np.array([0.5, 0.5])
        slate = [a, np.array(a)]
        report = audit_condorcet(_model([1.0, 0.0]), slate, pop, epsilon=0.0)
        assert report.vacuous

    def test_zero_mean_mixture_vacuous(self):
        pop = Mixture(components=((0.5, [1.0, 0.0], [0.1, 0.1]),
                                  (0.5, [-1.0, 0.0], [0.1, 0.1])))
        report = audit_condorcet(_model([1.0, 0.0]), SLATE_2D, pop, epsilon=0.0)
        assert report.passed and report.vacuous


class TestConsistency:
    @staticmethod
    def _dataset(theta_star, n_voters=8, repeats=60, seed=0):
        voters = sample_voters(PointMass(theta=theta_star), n_voters, seed=seed)
        slate = [np.array([1.0, 0.0]), np.array([0.6, 0.4]), np.array([0.0, 1.0])]
        data = generate_dataset(voters, slate, RoundRobin(repeats=repeats),
                                PARTITION_BY_VOTER, TrueRewardLabels(), seed=seed + 1)
        return slate, data

    def test_identical_voters_pass(self):
        slate, data = self._dataset([2.0, -1.0])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        report = audit_consistency(trainer, data, slate, epsilon=0.0,
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4))
        assert report.passed and not report.vacuous
        assert report.metadata["skipped_partitions"] == 0

    def test_negated_full_model_fails(self):
        slate, data = self._dataset([2.0, -1.0])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        report = audit_consistency(trainer, data, slate, epsilon=0.0,
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4),
                                   model=_model([-2.0, 1.0]))
        assert not report.passed
        assert report.violations
        assert report.metadata["skipped_partitions"] == 0

    def test_degenerate_slate_vacuous(self):
        _, data = self._dataset([2.0, -1.0])
        a = np.array([0.5, 0.5])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        report = audit_consistency(trainer, data, [a, np.array(a)], epsilon=0.0,
                                   scheme=ConsistencyScheme(num_partitions=2, seed=4))
        assert report.passed and report.vacuous
        assert report.metadata["skipped_partitions"] == 0

    def test_determinism(self):
        slate, data = self._dataset([1.0, 1.0])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        scheme = ConsistencyScheme(num_partitions=3, seed=9)
        a = audit_consistency(trainer, data, slate, 0.1, scheme=scheme)
        b = audit_consistency(trainer, data, slate, 0.1, scheme=scheme)
        assert a.anchors == b.anchors and a.min_margin == b.min_margin
        assert a.metadata["skipped_partitions"] == 0

    def test_no_usable_partition_fails(self):
        slate, data = self._dataset([2.0, -1.0])

        def trainer(recs):
            return RewardModel(theta_hat=[2.0, -1.0], lam=1e-3, final_nll=1.0,
                               converged=False, iterations=10, diagnostic="stalled")

        report = audit_consistency(trainer, data, slate, epsilon=0.0,
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4),
                                   model=_model([2.0, -1.0]))
        assert not report.passed
        assert report.metadata["skipped_partitions"] == 3
        assert report.metadata["diagnostic"] == (
            "no usable voter partition of 3: a block fit did not converge (stalled)")
        table = emit_table([report])
        assert "FAIL" in table and "VACUOUS" not in table
        assert "a block fit did not converge (stalled)" in table

    def test_zero_partitions_fail(self):
        slate, data = self._dataset([2.0, -1.0])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        report = audit_consistency(trainer, data, slate, epsilon=0.0,
                                   scheme=ConsistencyScheme(num_partitions=0),
                                   model=_model([2.0, -1.0]))
        assert not report.passed
        assert report.metadata["diagnostic"] == "no usable voter partition of 0: none was requested"

    def test_negative_seed(self):
        slate, data = self._dataset([1.0, 1.0])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        with pytest.raises(InputError, match="seed"):
            audit_consistency(trainer, data, slate, 0.1,
                              scheme=ConsistencyScheme(num_partitions=1, seed=-1))


class TestEpsilonMonotonicity:
    def test_dominated_sets_shrink(self):
        voters = sample_voters(DiagonalGaussian(mean=[1.0, -0.5], var=[0.2, 0.2]), 15, seed=3)
        slate = [np.array([x / 4, 1 - x / 4]) for x in range(5)]
        model = _model([0.8, -0.3])
        for eps1, eps2 in [(0.0, 0.1), (0.1, 0.5)]:
            r1 = audit_unanimity(model, slate, voters, eps1)
            r2 = audit_unanimity(model, slate, voters, eps2)
            for a1, a2 in zip(r1.anchors, r2.anchors):
                assert set(a2.dominated) <= set(a1.dominated)


def test_scaled_model_passes_at_zero_epsilon(rng):
    """theta_hat = c * theta_star (c > 0) always passes at epsilon 0."""
    for _ in range(20):
        theta_star = rng.normal(size=3)
        c = float(rng.uniform(0.1, 5.0))
        pop = PointMass(theta=theta_star)
        voters = sample_voters(pop, 4, seed=0)
        slate = [rng.normal(size=3) for _ in range(6)]
        model = _model(c * theta_star)
        assert audit_unanimity(model, slate, voters, 0.0).passed
        assert audit_condorcet(model, slate, pop, 0.0).passed
