import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaudit.annotation import (
    PARTITION_BY_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.axioms import (
    AnchorResult,
    ConsistencyScheme,
    audit_condorcet,
    audit_consistency,
    audit_unanimity,
)
from prefaudit.errors import InputError
from prefaudit.estimation import fit_mle
from prefaudit.model import RewardModel, VoterParams
from prefaudit.oracle import exhaustive_axiom_check
from prefaudit.population import (
    DiagonalGaussian,
    Mixture,
    PointMass,
    UniformBox,
    sample_alternatives,
    sample_voters,
)
from prefaudit.reports import emit_table


def _model(theta):
    return RewardModel(theta_hat=theta, lam=1e-3, final_nll=1.0, converged=True, iterations=1)


SLATE_2D = [np.array([1.0, 0.0]), np.array([0.0, 0.0])]


class TestUnanimity:
    def test_point_mass_pass(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 5, seed=0)
        report = audit_unanimity(_model([1.0, 0.0]), SLATE_2D, voters, epsilons=[0.5])[0]
        assert report.passed and not report.vacuous
        assert report.anchors[0].dominated == (1,)

    def test_disagreeing_voters_vacuous(self):
        voters = [
            VoterParams(voter_id=0, theta=[1.0, 0.0]),
            VoterParams(voter_id=1, theta=[-1.0, 0.0]),
        ]
        report = audit_unanimity(_model([1.0, 0.0]), SLATE_2D, voters, epsilons=[0.0])[0]
        assert report.passed and report.vacuous
        assert all(not a.dominated for a in report.anchors)

    def test_negated_model_fails(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 5, seed=0)
        report = audit_unanimity(_model([-1.0, 0.0]), SLATE_2D, voters, epsilons=[0.5])[0]
        assert not report.passed
        assert (0, 1) in report.violations

    def test_empty_inputs(self):
        with pytest.raises(InputError):
            audit_unanimity(_model([1.0, 0.0]), SLATE_2D, [], [0.0])
        with pytest.raises(InputError):
            audit_unanimity(_model([1.0, 0.0]), [SLATE_2D[0]],
                            sample_voters(PointMass(theta=[1.0, 0.0]), 1, 0), [0.0])


class TestCondorcet:
    def test_gaussian_pass(self):
        pop = DiagonalGaussian(mean=[1.0, 0.0], var=[1.0, 1.0])
        report = audit_condorcet(_model([1.0, 0.0]), SLATE_2D, pop, epsilons=[0.5])[0]
        assert report.passed and not report.vacuous

    def test_duplicate_alternatives_never_dominate_each_other(self):
        pop = PointMass(theta=[1.0, 0.0])
        a = np.array([0.5, 0.5])
        slate = [a, np.array(a)]
        report = audit_condorcet(_model([1.0, 0.0]), slate, pop, epsilons=[0.0])[0]
        assert report.vacuous

    def test_zero_mean_mixture_vacuous(self):
        pop = Mixture(components=((0.5, [1.0, 0.0], [0.1, 0.1]),
                                  (0.5, [-1.0, 0.0], [0.1, 0.1])))
        report = audit_condorcet(_model([1.0, 0.0]), SLATE_2D, pop, epsilons=[0.0])[0]
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
        report = audit_consistency(trainer, data, slate, epsilons=[0.0],
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4))[0]
        assert report.passed and not report.vacuous
        assert report.metadata["skipped_partitions"] == 0

    def test_negated_full_model_fails(self):
        slate, data = self._dataset([2.0, -1.0])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        report = audit_consistency(trainer, data, slate, epsilons=[0.0],
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4),
                                   model=_model([-2.0, 1.0]))[0]
        assert not report.passed
        assert report.violations
        assert report.metadata["skipped_partitions"] == 0

    def test_degenerate_slate_vacuous(self):
        _, data = self._dataset([2.0, -1.0])
        a = np.array([0.5, 0.5])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        report = audit_consistency(trainer, data, [a, np.array(a)], epsilons=[0.0],
                                   scheme=ConsistencyScheme(num_partitions=2, seed=4))[0]
        assert report.passed and report.vacuous
        assert report.metadata["skipped_partitions"] == 0

    def test_determinism(self):
        slate, data = self._dataset([1.0, 1.0])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        scheme = ConsistencyScheme(num_partitions=3, seed=9)
        a = audit_consistency(trainer, data, slate, [0.1], scheme=scheme)[0]
        b = audit_consistency(trainer, data, slate, [0.1], scheme=scheme)[0]
        assert a.anchors == b.anchors and a.min_margin == b.min_margin
        assert a.metadata["skipped_partitions"] == 0

    def test_no_usable_partition_fails(self):
        slate, data = self._dataset([2.0, -1.0])

        def trainer(recs):
            return RewardModel(theta_hat=[2.0, -1.0], lam=1e-3, final_nll=1.0,
                               converged=False, iterations=10, diagnostic="stalled")

        report = audit_consistency(trainer, data, slate, epsilons=[0.0],
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4),
                                   model=_model([2.0, -1.0]))[0]
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
        report = audit_consistency(trainer, data, slate, epsilons=[0.0],
                                   scheme=ConsistencyScheme(num_partitions=0),
                                   model=_model([2.0, -1.0]))[0]
        assert not report.passed
        assert report.metadata["diagnostic"] == "no usable voter partition of 0: none was requested"

    def test_negative_seed(self):
        slate, data = self._dataset([1.0, 1.0])
        trainer = lambda recs: fit_mle(recs, lam=1e-3)
        with pytest.raises(InputError, match="seed"):
            audit_consistency(trainer, data, slate, [0.1],
                              scheme=ConsistencyScheme(num_partitions=1, seed=-1))


class TestEpsilonMonotonicity:
    def test_dominated_sets_shrink(self):
        voters = sample_voters(DiagonalGaussian(mean=[1.0, -0.5], var=[0.2, 0.2]), 15, seed=3)
        slate = [np.array([x / 4, 1 - x / 4]) for x in range(5)]
        model = _model([0.8, -0.3])
        for eps1, eps2 in [(0.0, 0.1), (0.1, 0.5)]:
            r1 = audit_unanimity(model, slate, voters, [eps1])[0]
            r2 = audit_unanimity(model, slate, voters, [eps2])[0]
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
        assert audit_unanimity(model, slate, voters, [0.0])[0].passed
        assert audit_condorcet(model, slate, pop, [0.0])[0].passed


class TestEpsilonValidation:
    def test_non_finite_or_negative_epsilon_rejected_before_any_fit(self):
        slate, data = TestConsistency._dataset([2.0, -1.0])
        voters = sample_voters(PointMass(theta=[2.0, -1.0]), 3, seed=0)
        pop = PointMass(theta=[2.0, -1.0])
        model = _model([2.0, -1.0])

        def trainer(recs):
            raise AssertionError("a block model was fitted before epsilon was checked")

        for epsilons in ([float("nan")], [float("inf")], [float("-inf")], [0.1, -1.0]):
            with pytest.raises(InputError, match="epsilon"):
                audit_unanimity(model, slate, voters, epsilons)
            with pytest.raises(InputError, match="epsilon"):
                audit_condorcet(model, slate, pop, epsilons)
            with pytest.raises(InputError, match="epsilon"):
                audit_consistency(trainer, data, slate, epsilons, model=model)


class TestKernelCosts:
    def test_unanimity_memory_stays_quadratic_in_the_slate(self):
        """No voters x m x m temporary: 400 voters over 200 alternatives
        would need 122 MiB for it; the running minimum needs a few m x m."""
        voters = sample_voters(DiagonalGaussian(mean=[1.0, -0.5], var=[0.1, 0.1]), 400, seed=0)
        slate = sample_alternatives(UniformBox(lo=[0, 0], hi=[1, 1]), 200, seed=1)
        model = _model([1.0, -0.5])
        tracemalloc.start()
        try:
            reports = audit_unanimity(model, slate, voters, [0.0, 0.1, 0.5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 3
        assert peak < 8 * 2**20

    def test_condorcet_dimension_mismatch(self):
        slate = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        with pytest.raises(InputError, match="population dimension"):
            audit_condorcet(_model([1.0, 0.0, 0.0]), slate, PointMass(theta=[1.0, 0.0]), [0.0])


# Slate points and point-mass thetas are multiples of 1/4 in [-2, 2], so
# every reward and gap below is exact in float64. The fast unanimity gap
# is theta.a - theta.a' and the oracle's theta.(a - a'); with arbitrary
# floats the two can round apart at a tie (see CHANGES.md).
_quarters = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _audit_case(draw):
    d = draw(st.integers(1, 3))
    point = st.lists(_quarters, min_size=d, max_size=d)
    points = draw(st.lists(point, min_size=1, max_size=8))
    copies = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=4))
    slate = [np.array(p) for p in points + [points[i] for i in copies]]
    order = draw(st.permutations(range(len(slate))))
    slate = [slate[i] for i in order]
    kind = draw(st.sampled_from(["point-mass", "gaussian", "mixture"]))
    if kind == "point-mass":
        pop = PointMass(theta=draw(point))
    elif kind == "gaussian":
        pop = DiagonalGaussian(mean=draw(point), var=[draw(st.sampled_from([0.0, 0.1, 1.0]))] * d)
    else:
        w = draw(st.integers(1, 7)) / 8
        pop = Mixture(components=((w, draw(point), [0.1] * d), (1 - w, draw(point), [0.5] * d)))
    # an even voter count, so two blocks can each hold >= 40% of the voters
    voters = sample_voters(pop, draw(st.sampled_from([2, 4, 6])), seed=draw(st.integers(0, 2**32)))
    # every voter labels >= 1 pair
    data = generate_dataset(voters, slate, RoundRobin(repeats=len(voters)), PARTITION_BY_VOTER,
                            TrueRewardLabels(), seed=3)
    model = _model(draw(point))
    epsilons = [0.0] + draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.1]), max_size=3))
    return slate, pop, voters, data, model, epsilons


def _consistency(data, slate, model, epsilons):
    trainer = lambda recs: fit_mle(recs, lam=1e-2)
    return audit_consistency(trainer, data, slate, epsilons, model=model,
                             scheme=ConsistencyScheme(num_partitions=2, seed=5))


def _permuted(report, perm):
    """The report an audit of slate [s[perm[k]] for k] must give, from the report on s."""
    new_index = {old: new for new, old in enumerate(perm)}
    by_old = {a.anchor: a for a in report.anchors}
    anchors = tuple(
        AnchorResult(
            anchor=k,
            dominated=tuple(sorted(new_index[j] for j in by_old[old].dominated)),
            violations=tuple(sorted((k, new_index[j]) for _, j in by_old[old].violations)),
            vacuous=by_old[old].vacuous,
        )
        for k, old in enumerate(perm)
    )
    return replace(report, anchors=anchors)


class TestDominanceKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(_audit_case())
    def test_matches_the_exhaustive_oracle(self, case):
        slate, pop, voters, data, model, epsilons = case
        uni = audit_unanimity(model, slate, voters, epsilons)
        cond = audit_condorcet(model, slate, pop, epsilons)
        assert len(uni) == len(cond) == len(epsilons)
        for eps, u, c in zip(epsilons, uni, cond):
            # AxiomReport equality covers every field but metadata, min_margin included
            assert u == exhaustive_axiom_check(model, slate, voters, eps, "unanimity")
            assert c == exhaustive_axiom_check(model, slate, pop, eps, "condorcet")

    @settings(max_examples=40, deadline=None)
    @given(_audit_case(), st.data())
    def test_permuting_the_slate_permutes_every_field(self, case, draws):
        slate, pop, voters, data, model, epsilons = case
        perm = draws.draw(st.permutations(range(len(slate))))
        shuffled = [slate[i] for i in perm]
        pairs = [
            (audit_unanimity(model, slate, voters, epsilons),
             audit_unanimity(model, shuffled, voters, epsilons)),
            (audit_condorcet(model, slate, pop, epsilons),
             audit_condorcet(model, shuffled, pop, epsilons)),
            (_consistency(data, slate, model, epsilons),
             _consistency(data, shuffled, model, epsilons)),
        ]
        for before, after in pairs:
            for b, a in zip(before, after, strict=True):
                assert a == _permuted(b, perm)
                assert a.metadata == b.metadata

    @settings(max_examples=40, deadline=None)
    @given(_audit_case())
    def test_one_call_equals_one_call_per_epsilon(self, case):
        slate, pop, voters, data, model, epsilons = case
        audits = [
            lambda eps: audit_unanimity(model, slate, voters, eps),
            lambda eps: audit_condorcet(model, slate, pop, eps),
            lambda eps: _consistency(data, slate, model, eps),
        ]
        for audit in audits:
            together = audit(epsilons)
            apart = [r for eps in epsilons for r in audit([eps])]
            assert together == apart
            assert [r.metadata for r in together] == [r.metadata for r in apart]
            assert len({id(r.metadata) for r in together}) == len(together)
