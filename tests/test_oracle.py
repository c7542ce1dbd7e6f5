import numpy as np
import pytest

from conftest import make_dataset, mirrored, random_records
from prefaudit.axioms import audit_condorcet, audit_unanimity
from prefaudit.errors import InputError
from prefaudit.estimation import fit_mle, nll
from prefaudit.model import RewardModel
from prefaudit.oracle import brute_force_mle, exhaustive_axiom_check
from prefaudit.population import DiagonalGaussian, PointMass, sample_voters


def _model(theta):
    return RewardModel(theta_hat=theta, lam=1e-3, final_nll=1.0, converged=True, iterations=1)


class TestBruteForceMle:
    def test_symmetric_dataset_optimum_at_origin(self, rng):
        records = random_records(rng, 2, 10)
        opt = brute_force_mle(mirrored(records), lam=1e-3, resolution=11, bound=2.0)
        assert np.array_equal(opt, [0.0, 0.0])

    def test_close_to_continuous_optimum_1d(self):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(200):
            # gap-1 pairs labeled by theta* = 1
            label = int(rng.random() < 1 / (1 + np.exp(-1)))
            rows.append(([0.0], [1.0], label))
        records = make_dataset(rows)
        opt = brute_force_mle(records, lam=1e-3, resolution=33, bound=4.0)
        model = fit_mle(records, lam=1e-3)
        assert abs(opt[0] - model.theta_hat[0]) < 0.25

    def test_penalty_keeps_optimum_interior(self):
        records = make_dataset([([0.0], [1.0], 1)])
        opt = brute_force_mle(records, lam=1.0, resolution=41, bound=8.0)
        assert -8.0 < opt[0] < 8.0

    def test_grid_never_beats_continuous_fit(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            records = random_records(rng, d, int(rng.integers(5, 30)))
            model = fit_mle(records, lam=1e-2)
            opt = brute_force_mle(records, lam=1e-2)
            assert nll(opt, records, 1e-2) >= model.final_nll - 1e-9

    def test_rejects_high_dimension(self, rng):
        with pytest.raises(InputError):
            brute_force_mle(random_records(rng, 4, 5), lam=1e-3)


class TestExhaustiveAxiomCheck:
    def test_matches_unanimity_field_for_field(self, rng):
        voters = sample_voters(DiagonalGaussian(mean=[0.5, -0.5], var=[0.5, 0.5]), 6, seed=1)
        slate = [rng.normal(size=2) for _ in range(5)]
        model = _model(rng.normal(size=2))
        for eps in (0.0, 0.1, 0.5):
            main = audit_unanimity(model, slate, voters, [eps])[0]
            oracle = exhaustive_axiom_check(model, slate, voters, eps, "unanimity")
            assert main.anchors == oracle.anchors
            assert main.passed == oracle.passed
            assert main.min_margin == oracle.min_margin

    def test_matches_condorcet_field_for_field(self, rng):
        pop = DiagonalGaussian(mean=[1.0, 0.2], var=[0.1, 0.1])
        slate = [rng.normal(size=2) for _ in range(5)]
        model = _model(rng.normal(size=2))
        for eps in (0.0, 0.1):
            main = audit_condorcet(model, slate, pop, [eps])[0]
            oracle = exhaustive_axiom_check(model, slate, pop, eps, "condorcet")
            assert main.anchors == oracle.anchors
            assert main.passed == oracle.passed
            assert main.min_margin == oracle.min_margin

    def test_adversarial_model_identical_violations(self):
        theta_star = np.array([1.0, -1.0])
        voters = sample_voters(PointMass(theta=theta_star), 3, seed=0)
        slate = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])]
        model = _model(-theta_star)
        main = audit_unanimity(model, slate, voters, [0.0])[0]
        oracle = exhaustive_axiom_check(model, slate, voters, 0.0, "unanimity")
        assert not main.passed
        assert main.violations == oracle.violations

    def test_vacuous_flag_agrees(self):
        voters = [v for s in (1.0, -1.0)
                  for v in sample_voters(PointMass(theta=[s, 0.0]), 1, seed=0)]
        slate = [np.array([1.0, 0.0]), np.array([0.0, 0.0])]
        model = _model([1.0, 0.0])
        main = audit_unanimity(model, slate, voters, [0.0])[0]
        oracle = exhaustive_axiom_check(model, slate, voters, 0.0, "unanimity")
        assert main.vacuous and oracle.vacuous

    def test_rejects_unsupported_axiom(self):
        with pytest.raises(InputError):
            exhaustive_axiom_check(_model([1.0]), [np.array([0.0]), np.array([1.0])],
                                   [], 0.0, "consistency")
