import ast
import math
from pathlib import Path

import numpy as np
import pytest

import prefaudit.cli
import prefaudit.oracle
from conftest import make_dataset, mirrored, random_records, voter_records
from prefaudit.axioms import audit_condorcet, audit_unanimity
from prefaudit.errors import InputError
from prefaudit.estimation import fit_mle, nll
from prefaudit.model import RewardModel, Voters
from prefaudit.oracle import (
    brute_force_mle,
    empirical_unanimous_gap,
    exhaustive_axiom_check,
    population_mean_gap,
    record_nll,
)
from prefaudit.population import DiagonalGaussian, Mixture, PointMass, sample_voters


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
            oracle = exhaustive_axiom_check(model, slate, voter_records(voters), eps, "unanimity")
            assert np.array_equal(main.dominated, oracle.dominated) and np.array_equal(main.violated, oracle.violated)
            assert main.passed == oracle.passed
            assert main.min_margin == oracle.min_margin
            assert main == oracle

    def test_matches_condorcet_field_for_field(self, rng):
        pop = DiagonalGaussian(mean=[1.0, 0.2], var=[0.1, 0.1])
        slate = [rng.normal(size=2) for _ in range(5)]
        model = _model(rng.normal(size=2))
        for eps in (0.0, 0.1):
            main = audit_condorcet(model, slate, pop, [eps])[0]
            oracle = exhaustive_axiom_check(model, slate, pop, eps, "condorcet")
            assert np.array_equal(main.dominated, oracle.dominated) and np.array_equal(main.violated, oracle.violated)
            assert main.passed == oracle.passed
            assert main.min_margin == oracle.min_margin
            assert main == oracle

    def test_adversarial_model_identical_violations(self):
        theta_star = np.array([1.0, -1.0])
        voters = sample_voters(PointMass(theta=theta_star), 3, seed=0)
        slate = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])]
        model = _model(-theta_star)
        main = audit_unanimity(model, slate, voters, [0.0])[0]
        oracle = exhaustive_axiom_check(model, slate, voter_records(voters), 0.0, "unanimity")
        assert not main.passed
        assert main.violations == oracle.violations

    def test_vacuous_flag_agrees(self):
        voters = Voters(ids=[0, 1], thetas=[[1.0, 0.0], [-1.0, 0.0]])
        slate = [np.array([1.0, 0.0]), np.array([0.0, 0.0])]
        model = _model([1.0, 0.0])
        main = audit_unanimity(model, slate, voters, [0.0])[0]
        oracle = exhaustive_axiom_check(model, slate, voter_records(voters), 0.0, "unanimity")
        assert main.vacuous and oracle.vacuous

    def test_rejects_unsupported_axiom(self):
        with pytest.raises(InputError):
            exhaustive_axiom_check(_model([1.0]), [np.array([0.0]), np.array([1.0])],
                                   [], 0.0, "consistency")

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_rejects_epsilon_not_finite_and_non_negative(self, epsilon):
        # at epsilon 0 this negated model fails; a NaN or infinite epsilon
        # would dominate nothing and report a vacuous pass
        voters = voter_records(sample_voters(PointMass(theta=[1.0, 0.0]), 1, seed=0))
        slate = [np.array([1.0, 0.0]), np.array([0.0, 0.0])]
        model = _model([-1.0, 0.0])
        assert not exhaustive_axiom_check(model, slate, voters, 0.0, "unanimity").passed
        for axiom, population in (("unanimity", voters), ("condorcet", PointMass(theta=[1.0, 0.0]))):
            with pytest.raises(InputError, match="epsilon"):
                exhaustive_axiom_check(model, slate, population, epsilon, axiom)

    def test_rejects_a_non_finite_slate_point(self):
        # a NaN point dominates nothing and is dominated by nothing, so
        # without the check this negated model would pass vacuously
        voters = voter_records(sample_voters(PointMass(theta=[1.0, 0.0]), 1, seed=0))
        slate = [np.array([1.0, 0.0]), np.array([np.nan, 0.0])]
        model = _model([-1.0, 0.0])
        for axiom, population in (("unanimity", voters), ("condorcet", PointMass(theta=[1.0, 0.0]))):
            with pytest.raises(InputError, match="slate point 1 has non-finite coordinates"):
                exhaustive_axiom_check(model, slate, population, 0.0, axiom)


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
        voters = voter_records(sample_voters(PointMass(theta=[1.0, 0.0]), 1, seed=0))
        assert empirical_unanimous_gap(voters, [1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_disagreeing_voters(self):
        voters = voter_records(sample_voters(PointMass(theta=[1.0, 0.0]), 1, seed=0))
        voters += voter_records(sample_voters(PointMass(theta=[-1.0, 0.0]), 1, seed=0))
        assert empirical_unanimous_gap(voters, [1.0, 0.0], [0.0, 0.0]) == -1.0

    def test_identical_alternatives(self):
        voters = voter_records(sample_voters(DiagonalGaussian(mean=[0.0], var=[1.0]), 10, seed=1))
        a = [0.6]
        assert empirical_unanimous_gap(voters, a, a) == 0.0

    def test_empty_voters(self):
        with pytest.raises(InputError):
            empirical_unanimous_gap([], [1.0], [0.0])

    def test_point_mass_matches_analytic(self, rng):
        spec = PointMass(theta=[0.5, -1.5])
        voters = voter_records(sample_voters(spec, 17, seed=2))
        for _ in range(20):
            a, b = rng.normal(size=2), rng.normal(size=2)
            assert empirical_unanimous_gap(voters, a, b) == population_mean_gap(spec, a, b)


def _prefaudit_imports(module) -> dict:
    """The names a module imports from each prefaudit module, by module name."""
    imported = {}
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("prefaudit") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("prefaudit")):
            name = (node.module or "").removeprefix("prefaudit").lstrip(".")
            imported.setdefault(name, set()).update(alias.name for alias in node.names)
    return imported


def test_oracle_shares_no_code_with_the_fast_paths():
    """The oracle may import the report types from axioms and the errors, and
    nothing else from prefaudit: not estimation's score or NLL, nor
    population's samplers, nor model's slate validator."""
    allowed = {"axioms": {"AxiomReport"}, "errors": None}
    imported = _prefaudit_imports(prefaudit.oracle)
    assert imported.keys() <= allowed.keys(), imported
    for module, names in imported.items():
        assert allowed[module] is None or names <= allowed[module], (module, names)


def test_verify_takes_no_likelihood_from_the_kernel_it_checks():
    assert "estimation" not in _prefaudit_imports(prefaudit.cli)


def test_record_nll_matches_the_fit_kernels_nll(rng):
    for _ in range(10):
        d = int(rng.integers(1, 4))
        records = random_records(rng, d, int(rng.integers(1, 40)))
        theta = rng.normal(size=d)
        assert math.isclose(record_nll(theta, records, 1e-2), nll(theta, records, 1e-2), rel_tol=1e-12)
