import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefaudit.axioms
from prefaudit.annotation import (
    PARTITION_BY_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.axioms import (
    AnchorResult,
    ConsistencyScheme,
    _dominance_reports,
    audit_condorcet,
    audit_consistency,
    audit_unanimity,
)
from prefaudit.errors import InputError
from prefaudit.estimation import DEFAULT_GRAD_TOL, _fit_counts
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

    @pytest.mark.parametrize("thetas", [[[1.0, 0.0, 0.5]], [[1.0, 0.0], [1.0, 0.0, 0.5]]],
                             ids=["every-voter", "one-voter"])
    def test_voters_of_another_dimension_fail_loudly(self, thetas):
        voters = [VoterParams(voter_id=i, theta=t) for i, t in enumerate(thetas)]
        with pytest.raises(InputError, match="dimension mismatch"):
            audit_unanimity(_model([1.0, 0.0]), SLATE_2D, voters, [0.0])

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
    def _dataset(theta_star, n_voters=8, repeats=60, seed=0,
                 slate=([1.0, 0.0], [0.6, 0.4], [0.0, 1.0])):
        voters = sample_voters(PointMass(theta=theta_star), n_voters, seed=seed)
        return generate_dataset(voters, slate, RoundRobin(repeats=repeats),
                                PARTITION_BY_VOTER, TrueRewardLabels(), seed=seed + 1)

    def test_identical_voters_pass(self):
        data = self._dataset([2.0, -1.0])
        report = audit_consistency(data, epsilons=[0.0], lam=1e-3,
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4))[0]
        assert report.passed and not report.vacuous
        assert report.metadata["skipped_partitions"] == 0

    def test_negated_full_model_fails(self):
        data = self._dataset([2.0, -1.0])
        report = audit_consistency(data, epsilons=[0.0], lam=1e-3,
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4),
                                   model=_model([-2.0, 1.0]))[0]
        assert not report.passed
        assert report.violations
        assert report.metadata["skipped_partitions"] == 0

    def test_degenerate_slate_vacuous(self):
        a = np.array([0.5, 0.5])
        data = self._dataset([2.0, -1.0], slate=[a, np.array(a)])
        report = audit_consistency(data, epsilons=[0.0], lam=1e-3,
                                   scheme=ConsistencyScheme(num_partitions=2, seed=4))[0]
        assert report.passed and report.vacuous
        assert report.metadata["skipped_partitions"] == 0

    def test_determinism(self):
        data = self._dataset([1.0, 1.0])
        scheme = ConsistencyScheme(num_partitions=3, seed=9)
        a = audit_consistency(data, [0.1], scheme=scheme, lam=1e-3)[0]
        b = audit_consistency(data, [0.1], scheme=scheme, lam=1e-3)[0]
        assert a.anchors == b.anchors and a.min_margin == b.min_margin
        assert a.metadata["skipped_partitions"] == 0

    def test_no_usable_partition_fails(self):
        # a block fit of one iteration never converges, so every partition is skipped
        data = self._dataset([2.0, -1.0])
        report = audit_consistency(data, epsilons=[0.0], lam=1e-3, max_iters=1,
                                   scheme=ConsistencyScheme(num_partitions=3, seed=4),
                                   model=_model([2.0, -1.0]))[0]
        assert not report.passed
        assert report.metadata["skipped_partitions"] == 3
        reason = "a block fit did not converge (gradient tolerance 1e-08 not reached in 1 iterations)"
        assert report.metadata["diagnostic"] == f"no usable voter partition of 3: {reason}"
        assert report.metadata["block_grad_norm"] is None
        table = emit_table([report])
        assert "FAIL" in table and "VACUOUS" not in table
        assert reason in table

    def test_block_fits_that_converge_on_their_last_allowed_step_are_used(self, monkeypatch):
        fits = []

        def spy(*args):
            fits.extend(models := _fit_counts(*args))
            return models

        monkeypatch.setattr(prefaudit.axioms, "_fit_counts", spy)
        data = self._dataset([2.0, -1.0])
        scheme = ConsistencyScheme(num_partitions=3, seed=4)
        audit_consistency(data, [0.0], scheme=scheme, lam=1e-3, model=_model([2.0, -1.0]))
        last = max(f.iterations for f in fits)
        skipped = [audit_consistency(data, [0.0], scheme=scheme, lam=1e-3, max_iters=k,
                                     model=_model([2.0, -1.0]))[0].metadata["skipped_partitions"]
                   for k in (last - 1, last)]
        assert skipped[0] > 0 and skipped[1] == 0

    def test_zero_partitions_fail(self):
        data = self._dataset([2.0, -1.0])
        report = audit_consistency(data, epsilons=[0.0], lam=1e-3,
                                   scheme=ConsistencyScheme(num_partitions=0),
                                   model=_model([2.0, -1.0]))[0]
        assert not report.passed
        assert report.metadata["diagnostic"] == "no usable voter partition of 0: none was requested"

    def test_negative_lambda_rejected_before_any_fit(self, monkeypatch):
        def fit(*args):
            raise AssertionError("a block model was fitted")

        monkeypatch.setattr(prefaudit.axioms, "_fit_counts", fit)
        with pytest.raises(InputError, match="lambda must be >= 0"):
            audit_consistency(self._dataset([1.0, 1.0]), [0.1], lam=-1e-3)

    def test_negative_seed(self):
        data = self._dataset([1.0, 1.0])
        with pytest.raises(InputError, match="seed"):
            audit_consistency(data, [0.1], lam=1e-3,
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
    def test_non_finite_or_negative_epsilon_rejected_before_any_fit(self, monkeypatch):
        data = TestConsistency._dataset([2.0, -1.0])
        slate = data.slate
        voters = sample_voters(PointMass(theta=[2.0, -1.0]), 3, seed=0)
        pop = PointMass(theta=[2.0, -1.0])
        model = _model([2.0, -1.0])

        def fit(*args):
            raise AssertionError("a block model was fitted before epsilon was checked")

        monkeypatch.setattr(prefaudit.axioms, "_fit_counts", fit)
        for epsilons in ([float("nan")], [float("inf")], [float("-inf")], [0.1, -1.0], []):
            with pytest.raises(InputError, match="epsilon"):
                audit_unanimity(model, slate, voters, epsilons)
            with pytest.raises(InputError, match="epsilon"):
                audit_condorcet(model, slate, pop, epsilons)
            with pytest.raises(InputError, match="epsilon"):
                audit_consistency(data, epsilons, model=model)


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


def _consistency(data, model, epsilons):
    return audit_consistency(data, epsilons, model=model, lam=1e-2,
                             scheme=ConsistencyScheme(num_partitions=2, seed=5))


def _reindexed(data, perm):
    """The same records over the slate [data.slate[perm[k]] for k]."""
    new_index = np.argsort(perm)
    return replace(data, slate=data.slate[perm], i0=new_index[data.i0], i1=new_index[data.i1])


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
            (_consistency(data, model, epsilons),
             _consistency(_reindexed(data, perm), model, epsilons)),
        ]
        for before, after in pairs:
            for b, a in zip(before, after, strict=True):
                assert a == _permuted(b, perm)
                # the block fits sum their pairs in the slate's row order, so only
                # their final gradients' rounding may differ: each under grad_tol
                grads = [r.metadata.pop("block_grad_norm", 0.0) for r in (a, b)]
                assert all(g <= DEFAULT_GRAD_TOL for g in grads)
                assert a.metadata == b.metadata

    @settings(max_examples=40, deadline=None)
    @given(_audit_case())
    def test_one_call_equals_one_call_per_epsilon(self, case):
        slate, pop, voters, data, model, epsilons = case
        audits = [
            lambda eps: audit_unanimity(model, slate, voters, eps),
            lambda eps: audit_condorcet(model, slate, pop, eps),
            lambda eps: _consistency(data, model, eps),
        ]
        for audit in audits:
            together = audit(epsilons)
            apart = [r for eps in epsilons for r in audit([eps])]
            assert together == apart
            assert [r.metadata for r in together] == [r.metadata for r in apart]
            assert len({id(r.metadata) for r in together}) == len(together)


# Gap and score entries: exact ties with the epsilons below, +inf (the
# unanimity gap before any voter) and -inf (the consistency gap with no
# usable partition)
_entries = st.sampled_from([-math.inf, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, math.inf])
_finite = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])


def _naive_dominance(gap, score_gaps, eps):
    """One anchor at a time, one pair at a time: (anchors, min_margin)."""
    m = len(gap)
    anchors, margins = [], []
    for i in range(m):
        dominated, violations = [], []
        for j in range(m):
            if i != j and gap[i][j] > eps:
                dominated.append(j)
                margins.append(score_gaps[i][j] - eps)
                if not score_gaps[i][j] > eps:
                    violations.append((i, j))
        anchors.append(AnchorResult(anchor=i, dominated=tuple(dominated), violations=tuple(violations),
                                    vacuous=not dominated))
    return tuple(anchors), (min(margins) if margins else None)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda m: st.tuples(
    st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=m, max_size=m),
    st.lists(st.lists(st.one_of(_finite, _entries), min_size=m, max_size=m), min_size=m, max_size=m),
)), st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=3))
def test_dominance_kernel_matches_a_naive_double_loop(matrices, more_epsilons):
    gap, score_gaps = matrices
    epsilons = [0.0, *more_epsilons]
    reports = _dominance_reports("unanimity", epsilons, np.array(gap), np.array(score_gaps), {"k": 1})
    assert len(reports) == len(epsilons)
    for eps, report in zip(epsilons, reports):
        anchors, min_margin = _naive_dominance(gap, score_gaps, eps)
        assert report.anchors == anchors
        assert report.violations == tuple(v for a in anchors for v in a.violations)
        assert report.vacuous == all(a.vacuous for a in anchors)
        assert report.passed == all(not a.violations for a in anchors)
        assert all(type(j) is int for a in report.anchors for j in a.dominated)
        assert report.min_margin == min_margin
        assert (report.epsilon, report.slate_size, report.metadata) == (eps, len(gap), {"k": 1})
