"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured value when the assertion holds."""

import json
import subprocess
import sys
import time

import numpy as np
from scipy.stats import kendalltau

from conftest import central_difference_gradient, cli_env, random_records, voter_records
from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
    sample_label,
)
from prefaudit.axioms import (
    ConsistencyScheme,
    audit_condorcet,
    audit_consistency,
    audit_unanimity,
)
from prefaudit.distortion import SearchSpec, worst_case_regret
from prefaudit.estimation import borda_scores, fit_mle, nll, nll_gradient, score
from prefaudit.model import RewardModel, btl_prob
from prefaudit.oracle import brute_force_mle, exhaustive_axiom_check
from prefaudit.population import (
    DiagonalGaussian,
    PointMass,
    UniformBox,
    sample_alternatives,
    sample_voters,
)


def _report(name, detail):
    print(f"ACCEPTANCE PASS: {name} ({detail})")


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def _recovery_setup(seed=0):
    """Shared fixture for criteria 3 and 4: point-mass theta*, d=4,
    20-alternative slate, ~20000 comparisons, lambda=1e-3.

    Slate coordinates are drawn from a uniform box and snapped to a 0.5
    lattice so every nonzero true score gap is a multiple of 0.25. A
    fully continuous slate almost surely contains pairs whose true gap
    sits arbitrarily close to an audit threshold, which no finite sample
    can sign-resolve; the lattice keeps gaps bounded away from 0 and 0.1
    while exercising the same code paths.
    """
    theta_star = np.array([0.5, -0.5, 1.0, 1.0])
    voters = sample_voters(PointMass(theta=theta_star), 20, seed=seed)
    raw = sample_alternatives(UniformBox(lo=[0.0] * 4, hi=[1.0] * 4), 20, seed=seed + 1)
    slate = [np.round(a * 2) / 2 for a in raw]
    data = generate_dataset(voters, slate, RoundRobin(repeats=106),
                            EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=seed + 2)
    model = fit_mle(data, lam=1e-3)
    assert model.converged, model.diagnostic
    return theta_star, voters, slate, data, model


def test_criterion_1_btl_correctness():
    with Timer() as t:
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x, y, c = rng.uniform(-50, 50, size=3)
            assert abs(btl_prob(x, y) + btl_prob(y, x) - 1.0) <= 1e-12
            assert abs(btl_prob(x + c, y + c) - btl_prob(x, y)) <= 1e-12
        draws = 10000
        for k in range(20):
            theta = rng.uniform(-1, 1, 2)
            a0, a1 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            r0, r1 = float(theta @ a0), float(theta @ a1)
            p = btl_prob(r1, r0)
            label_rng = np.random.Generator(np.random.Philox(key=100 + k))
            mean = np.mean([sample_label(r0, r1, label_rng) for _ in range(draws)])
            se = np.sqrt(p * (1 - p) / draws)
            assert abs(mean - p) <= 3 * se
    assert t.elapsed < 5
    _report("BTL correctness", f"1000 identity checks + 20 pairs x {draws} draws in {t.elapsed:.2f}s")


def test_criterion_2_gradient_fidelity():
    with Timer() as t:
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 51))
            records = random_records(rng, d, n)
            lam = float(rng.uniform(0, 0.1))
            theta = rng.normal(size=d)
            analytic = nll_gradient(theta, records, lam)
            fd = central_difference_gradient(theta, records, lam)
            rel = np.max(np.abs(analytic - fd)) / (1 + np.max(np.abs(analytic)))
            worst = max(worst, rel)
            assert rel <= 1e-6
    assert t.elapsed < 10
    _report("gradient fidelity", f"worst relative error {worst:.2e} over 100 instances in {t.elapsed:.2f}s")


def test_criterion_3_parameter_recovery():
    with Timer() as t:
        theta_star, _, slate, data, model = _recovery_setup()
        agree = total = 0
        for i in range(len(slate)):
            for j in range(i + 1, len(slate)):
                true_gap = float(theta_star @ (slate[i] - slate[j]))
                if abs(true_gap) > 0.5:
                    total += 1
                    fitted_gap = score(model, slate[i]) - score(model, slate[j])
                    agree += np.sign(fitted_gap) == np.sign(true_gap)
    assert total > 0
    rate = agree / total
    assert rate >= 0.99
    assert t.elapsed < 60
    _report("parameter recovery", f"sign agreement {rate:.3f} on {total} pairs, "
            f"{len(data)} records in {t.elapsed:.1f}s")


def test_criterion_4_axiom_audits():
    with Timer() as t:
        theta_star, voters, slate, data, model = _recovery_setup()
        pop = PointMass(theta=theta_star)
        scheme = ConsistencyScheme(num_blocks=2, num_partitions=10, seed=3)
        for eps in (0.0, 0.1):
            uni = audit_unanimity(model, slate, voters, [eps])[0]
            cond = audit_condorcet(model, slate, pop, [eps])[0]
            assert uni.passed and not uni.vacuous, f"unanimity eps={eps}"
            assert cond.passed and not cond.vacuous, f"condorcet eps={eps}"
        cons = audit_consistency(model, data, [0.0], scheme)[0]
        assert cons.passed and not cons.vacuous
        assert cons.metadata["skipped_partitions"] == 0

        corrupted = RewardModel(theta_hat=-model.theta_hat, lam=model.lam,
                                final_nll=model.final_nll, converged=True,
                                iterations=model.iterations)
        assert not audit_unanimity(corrupted, slate, voters, [0.0])[0].passed
        assert not audit_condorcet(corrupted, slate, pop, [0.0])[0].passed
        bad_cons = audit_consistency(corrupted, data, [0.0], scheme)[0]
        assert not bad_cons.passed and bad_cons.violations
    assert t.elapsed < 300
    _report("axiom audits", f"3 audits pass honest model, fail negated model in {t.elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    with Timer() as t:
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            slate = [rng.normal(size=d) for _ in range(int(rng.integers(2, 11)))]
            model = RewardModel(theta_hat=rng.normal(size=d), lam=1e-3, final_nll=1.0,
                                converged=True, iterations=1)
            eps = float(rng.choice([0.0, 0.1, 0.5]))
            if rng.random() < 0.5:
                voters = sample_voters(
                    DiagonalGaussian(mean=rng.normal(size=d), var=rng.uniform(0.01, 1, d)),
                    int(rng.integers(1, 8)), seed=int(rng.integers(0, 10000)))
                main = audit_unanimity(model, slate, voters, [eps])[0]
                oracle = exhaustive_axiom_check(model, slate, voter_records(voters), eps, "unanimity")
            else:
                pop = DiagonalGaussian(mean=rng.normal(size=d), var=rng.uniform(0.01, 1, d))
                main = audit_condorcet(model, slate, pop, [eps])[0]
                oracle = exhaustive_axiom_check(model, slate, pop, eps, "condorcet")
            assert np.array_equal(main.dominated, oracle.dominated) and np.array_equal(main.violated, oracle.violated)
            assert main.passed == oracle.passed

        for _ in range(50):
            d = int(rng.integers(1, 4))
            records = random_records(rng, d, int(rng.integers(3, 40)))
            model = fit_mle(records, lam=1e-2)
            opt = brute_force_mle(records, lam=1e-2)
            assert nll(opt, records, 1e-2) >= model.final_nll - 1e-9
    assert t.elapsed < 120
    _report("oracle equivalence", f"200 audit + 50 MLE cross-checks in {t.elapsed:.1f}s")


def test_criterion_6_borda_mle_agreement():
    with Timer() as t:
        theta_star = np.array([2.0, -1.5, 1.0])
        taus = []
        for seed in range(10):
            voters = sample_voters(PointMass(theta=theta_star), 5, seed=seed)
            slate = sample_alternatives(UniformBox(lo=[0.0] * 3, hi=[1.0] * 3), 15,
                                        seed=100 + seed)
            data = generate_dataset(voters, slate, RoundRobin(repeats=200),
                                    EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(),
                                    seed=200 + seed)
            assert len(data) >= 10000
            model = fit_mle(data, lam=1e-3)
            assert model.converged, f"seed {seed}: {model.diagnostic}"
            borda = borda_scores(data)
            borda_vals = [borda[i] for i in range(len(slate))]
            assert all(b is not None for b in borda_vals)
            fit_vals = [score(model, a) for a in slate]
            tau, _ = kendalltau(borda_vals, fit_vals)
            taus.append(tau)
            assert tau >= 0.9, f"seed {seed}: tau {tau:.3f}"
    assert t.elapsed < 120
    _report("Borda-MLE agreement", f"kendall tau min {min(taus):.3f} over 10 seeds in {t.elapsed:.1f}s")


def test_criterion_7_distortion_sanity():
    with Timer() as t:
        theta_star = np.array([1.6, -1.0])  # on the 21-point grid over [-2, 2]
        slate = [np.array(p) for p in
                 ([0.9, 0.1], [0.1, 0.9], [0.5, 0.5], [0.8, 0.8], [0.2, 0.3])]
        voters = sample_voters(PointMass(theta=theta_star), 1, seed=7)
        data = generate_dataset(voters, slate, RoundRobin(repeats=150),
                                EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=8)
        model = fit_mle(data, lam=1e-3)
        search = SearchSpec(grid_resolution=21, bound=2.0, w_mode="ones")

        zero = worst_case_regret(model, data, 0.0, search)
        assert zero.regret == 0.0

        regrets = []
        for delta in (0.0, 0.5, 2.0, 8.0):
            rep = worst_case_regret(model, data, delta, search)
            assert rep.regret is not None
            regrets.append(rep.regret)
        assert all(b >= a for a, b in zip(regrets, regrets[1:]))

        adversarial = worst_case_regret(model, data, 1e9, search)
        assert adversarial.regret > 0.0
    assert t.elapsed < 120
    _report("distortion sanity", f"regrets {['%.3g' % r for r in regrets]}, "
            f"adversarial {adversarial.regret:.3g} in {t.elapsed:.1f}s")


def test_criterion_8_reproducibility(tmp_path):
    config = {
        "dimension": 2,
        "seed": 31,
        "num_voters": 8,
        "num_alternatives": 6,
        "population": {"kind": "gaussian", "mean": [1.0, -0.5], "var": [0.1, 0.1]},
        "alternatives": {"kind": "uniform-box", "lo": 0, "hi": 1},
        "annotation": {"pairs": {"kind": "round-robin", "repeats": 60}},
        "audit": {"epsilons": [0.0, 0.1], "consistency": {"partitions": 3}},
        "distortion": {"delta": 1.0, "grid_resolution": 11},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    artifacts = ("dataset.records", "slate.json", "voters.json",
                 "model.json", "axioms.json", "distortion.json")
    with Timer() as t:
        for out, threads in (("a", "1"), ("b", "4")):
            env = cli_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            result = subprocess.run(
                [sys.executable, "-m", "prefaudit.cli",
                 "--config", str(cfg_path), "--out", str(tmp_path / out), "run"],
                capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
        for name in artifacts:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
    _report("reproducibility", f"{len(artifacts)} artifacts byte-identical across "
            f"thread counts in {t.elapsed:.1f}s")
