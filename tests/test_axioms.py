import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefaudit.axioms
from conftest import voter_records
from prefaudit.annotation import (
    PARTITION_BY_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.axioms import (
    AxiomReport,
    ConsistencyScheme,
    _dominance_reports,
    audit_condorcet,
    audit_consistency,
    audit_unanimity,
)
from prefaudit.errors import InputError
from prefaudit.estimation import DEFAULT_GRAD_TOL, _fit_counts, fit_mle
from prefaudit.model import RewardModel, Voters
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


@st.composite
def _tie_case(draw):
    """A float theta and a slate of the origin and points theta ties with it in
    exact arithmetic (multiples of theta_j e_i - theta_i e_j), some shifted by a
    random point: their float rewards are tiny and of either sign."""
    d = draw(st.integers(2, 6))
    coordinate = st.floats(-2, 2, allow_nan=False, allow_subnormal=False)
    vector = st.lists(coordinate, min_size=d, max_size=d).map(np.array)
    theta = draw(vector)
    slate = [np.zeros(d)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        point = np.zeros(d)
        point[i], point[j] = theta[j], -theta[i]
        slate.append(point * draw(coordinate) + draw(st.sampled_from([0.0, 1.0])) * draw(vector))
    return theta, slate, _model(draw(vector))


class TestUnanimity:
    def test_point_mass_pass(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 5, seed=0)
        report = audit_unanimity(_model([1.0, 0.0]), SLATE_2D, voters, epsilons=[0.5])[0]
        assert report.passed and not report.vacuous
        assert report.dominated.tolist() == [[False, True], [False, False]]

    def test_disagreeing_voters_vacuous(self):
        voters = Voters(ids=[0, 1], thetas=[[1.0, 0.0], [-1.0, 0.0]])
        report = audit_unanimity(_model([1.0, 0.0]), SLATE_2D, voters, epsilons=[0.0])[0]
        assert report.passed and report.vacuous
        assert not report.dominated.any()

    def test_negated_model_fails(self):
        voters = sample_voters(PointMass(theta=[1.0, 0.0]), 5, seed=0)
        report = audit_unanimity(_model([-1.0, 0.0]), SLATE_2D, voters, epsilons=[0.5])[0]
        assert not report.passed
        assert (0, 1) in report.violations

    @pytest.mark.parametrize("thetas", [[[1.0, 0.0, 0.5]], [[1.0, 0.0], [1.0, 0.0, 0.5]]],
                             ids=["every-voter", "one-voter"])
    def test_voters_of_another_dimension_fail_loudly(self, thetas):
        # one voter of another dimension fails as the Voters is built
        with pytest.raises(InputError, match="dimension mismatch"):
            audit_unanimity(_model([1.0, 0.0]), SLATE_2D, Voters(ids=range(len(thetas)), thetas=thetas), [0.0])

    def test_empty_inputs(self):
        with pytest.raises(InputError):
            audit_unanimity(_model([1.0, 0.0]), SLATE_2D, Voters(ids=[], thetas=[]), [0.0])
        with pytest.raises(InputError):
            audit_unanimity(_model([1.0, 0.0]), [SLATE_2D[0]],
                            sample_voters(PointMass(theta=[1.0, 0.0]), 1, 0), [0.0])

    def test_one_voter_at_an_exact_tie_agrees_with_the_oracle(self):
        # theta . (0.1, 0.2) is 0 in exact arithmetic; a one-row matrix product
        # rounds it to -1.67e-18, the oracle's 1-D dot to +1.67e-18
        slate = [(0.0, 0.0), (1 / 3, 0.7), (0.1, 0.2)]
        voters = Voters(ids=[0], thetas=[[0.2, -0.1]])
        model = _model([0.2, -0.1])
        report = audit_unanimity(model, slate, voters, [0.0])[0]
        assert report == exhaustive_axiom_check(model, slate, voter_records(voters), 0.0, "unanimity")

    @settings(max_examples=200, deadline=None)
    @given(_tie_case())
    def test_one_voter_equals_that_voter_listed_twice(self, case):
        theta, slate, model = case
        once, twice = Voters(ids=[0], thetas=[theta]), Voters(ids=[0, 1], thetas=[theta, theta])
        epsilons = [0.0, 0.5]
        assert audit_unanimity(model, slate, once, epsilons) == audit_unanimity(model, slate, twice, epsilons)


# Coordinates of slate points and voter thetas, with magnitudes whose
# products overflow, so voter rewards can be +-inf and their gaps NaN
_big = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0, 1e200, -1e200, 1e308, -1e308])


@st.composite
def _unanimity_case(draw):
    """A slate and voters of one of two kinds, a model whose scores stay
    finite, and epsilons with repeats. Clustered: 1-60 voters around a common
    mean over 2-12 points of a box, where pass 1 often leaves open a pair
    some other voter disagrees on. Extreme: 2-5 points, 1-30 voters (so often
    more than m^2) drawn with repeats from 1-8 thetas or all one theta (a
    point mass), with coordinates whose rewards can overflow."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        d, m, n = draw(st.integers(2, 3)), draw(st.integers(2, 12)), draw(st.integers(1, 60))
        slate = list(rng.uniform(0, 1, (m, d)))
        thetas = list(rng.normal(0, 1, d) + rng.normal(0, 0.4, (n, d)))
        picks = range(n)
    else:
        d, m = draw(st.integers(1, 3)), draw(st.integers(2, 5))
        vector = st.lists(st.one_of(_big, st.floats(-4, 4, allow_nan=False)), min_size=d, max_size=d).map(np.array)
        slate = draw(st.lists(vector, min_size=m, max_size=m))
        thetas = draw(st.lists(vector, min_size=1, max_size=8))
        n = draw(st.integers(1, 30))
        picks = [0] * n if draw(st.booleans()) else draw(st.lists(st.integers(0, len(thetas) - 1), min_size=n, max_size=n))
    voters = Voters(ids=range(len(picks)), thetas=[thetas[k] for k in picks])
    model = _model(draw(st.lists(st.sampled_from([-0.25, 0.0, 0.25]), min_size=d, max_size=d)))
    epsilons = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]), min_size=1, max_size=4))
    return slate, voters, model, epsilons


class TestTwoPassUnanimity:
    @staticmethod
    def _check(slate, voters, model, epsilons):
        m = len(slate)
        gap = np.full((m, m), np.inf)
        with np.errstate(invalid="ignore", over="ignore"):  # rewards of +-inf, and inf - inf
            for theta in voters.thetas:
                r = np.array([float(theta @ a) for a in slate])
                gap = np.minimum(gap, r[:, None] - r[None, :])
            reports = audit_unanimity(model, slate, voters, epsilons)
        s = np.array([float(model.theta_hat @ a) for a in slate])
        for eps, report in zip(epsilons, reports, strict=True):
            dominated, violated, _, min_margin = _naive_dominance(gap, s[:, None] - s[None, :], eps)
            assert report == AxiomReport("unanimity", eps, dominated, violated, not violated.any(), min_margin)

    @settings(max_examples=300, deadline=None)
    @given(_unanimity_case())
    def test_matches_a_running_minimum_over_every_voter(self, case):
        self._check(*case)

    def test_a_large_slate_matches_a_running_minimum_over_every_voter(self):
        """The large-n benchmark's shape: 400 voters, 200 alternatives, most
        pairs closed by the 7 extreme voters and thousands left to pass 2."""
        voters = sample_voters(DiagonalGaussian(mean=[1.0, -0.5], var=[0.1, 0.1]), 400, seed=0)
        slate = list(sample_alternatives(UniformBox(lo=[0, 0], hi=[1, 1]), 200, seed=1))
        self._check(slate, voters, _model([1.0, -0.4]), [0.0, 0.1, 0.5])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 40), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_the_reward_table_is_every_voters_1d_dots(self, d, m, n, seed):
        """slate x voters, each entry as np.dot(thetas[:, None], slate.T)[:, 0] gives it."""
        rng = np.random.default_rng(seed)
        slate, thetas = rng.uniform(-3, 3, (m, d)), rng.uniform(-3, 3, (n, d))
        seen = []
        gap = prefaudit.axioms._unanimity_gap

        def capture(rewards, floor):
            seen.append(rewards)
            return gap(rewards, floor)

        with mock.patch.object(prefaudit.axioms, "_unanimity_gap", capture):
            audit_unanimity(_model(thetas[0]), slate, Voters(ids=range(n), thetas=thetas), [0.0])
        want = np.dot(thetas[:, None], slate.T)[:, 0].T
        assert len(seen) == 1 and seen[0].shape == (m, n) and seen[0].tobytes() == want.tobytes()


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
        report = audit_consistency(fit_mle(data, lam=1e-3), data, [0.0], ConsistencyScheme(num_partitions=3, seed=4))[0]
        assert report.passed and not report.vacuous
        assert report.metadata["skipped_partitions"] == 0

    def test_negated_full_model_fails(self):
        data = self._dataset([2.0, -1.0])
        report = audit_consistency(_model([-2.0, 1.0]), data, [0.0], ConsistencyScheme(num_partitions=3, seed=4))[0]
        assert not report.passed
        assert report.violations
        assert report.metadata["skipped_partitions"] == 0

    def test_degenerate_slate_vacuous(self):
        a = np.array([0.5, 0.5])
        data = self._dataset([2.0, -1.0], slate=[a, np.array(a)])
        report = audit_consistency(fit_mle(data, lam=1e-3), data, [0.0], ConsistencyScheme(num_partitions=2, seed=4))[0]
        assert report.passed and report.vacuous
        assert report.metadata["skipped_partitions"] == 0

    def test_determinism(self):
        data = self._dataset([1.0, 1.0])
        scheme = ConsistencyScheme(num_partitions=3, seed=9)
        a = audit_consistency(fit_mle(data, lam=1e-3), data, [0.1], scheme)[0]
        b = audit_consistency(fit_mle(data, lam=1e-3), data, [0.1], scheme)[0]
        assert a == b
        assert a.metadata["skipped_partitions"] == 0

    def test_no_usable_partition_fails(self):
        # a block fit of one iteration never converges, so every partition is skipped
        data = self._dataset([2.0, -1.0])
        report = audit_consistency(_model([2.0, -1.0]), data, [0.0], ConsistencyScheme(num_partitions=3, seed=4),
                                   max_iters=1)[0]
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
        audit_consistency(_model([2.0, -1.0]), data, [0.0], scheme)
        last = max(f.iterations for f in fits)
        skipped = [audit_consistency(_model([2.0, -1.0]), data, [0.0], scheme, max_iters=k)[0]
                   .metadata["skipped_partitions"] for k in (last - 1, last)]
        assert skipped[0] > 0 and skipped[1] == 0

    def test_zero_partitions_fail(self):
        data = self._dataset([2.0, -1.0])
        report = audit_consistency(_model([2.0, -1.0]), data, [0.0], ConsistencyScheme(num_partitions=0))[0]
        assert not report.passed
        assert report.metadata["diagnostic"] == "no usable voter partition of 0: none was requested"

    def test_negative_lambda_rejected_before_any_fit(self, monkeypatch):
        """The blocks are fitted at the model's lambda, which the model checks."""
        def fit(*args):
            raise AssertionError("a block model was fitted")

        monkeypatch.setattr(prefaudit.axioms, "_fit_counts", fit)
        with pytest.raises(InputError, match="lambda must be >= 0"):
            model = RewardModel(theta_hat=[1.0, 1.0], lam=-1e-3, final_nll=1.0, converged=True, iterations=1)
            audit_consistency(model, self._dataset([1.0, 1.0]), [0.1])

    def test_the_blocks_are_fitted_at_the_models_lambda(self, monkeypatch):
        lams = []

        def spy(deltas, counts, lam, *args):
            lams.append(lam)
            return _fit_counts(deltas, counts, lam, *args)

        monkeypatch.setattr(prefaudit.axioms, "_fit_counts", spy)
        data = self._dataset([2.0, -1.0])
        report = audit_consistency(fit_mle(data, lam=1e-2), data, [0.0], ConsistencyScheme(num_partitions=3, seed=4))[0]
        assert lams and set(lams) == {1e-2}
        assert report.passed and report.metadata["skipped_partitions"] == 0

    def test_negative_seed(self):
        data = self._dataset([1.0, 1.0])
        with pytest.raises(InputError, match="seed"):
            audit_consistency(_model([1.0, 1.0]), data, [0.1], ConsistencyScheme(num_partitions=1, seed=-1))


class TestEpsilonMonotonicity:
    def test_dominated_sets_shrink(self):
        voters = sample_voters(DiagonalGaussian(mean=[1.0, -0.5], var=[0.2, 0.2]), 15, seed=3)
        slate = [np.array([x / 4, 1 - x / 4]) for x in range(5)]
        model = _model([0.8, -0.3])
        for eps1, eps2 in [(0.0, 0.1), (0.1, 0.5)]:
            r1 = audit_unanimity(model, slate, voters, [eps1])[0]
            r2 = audit_unanimity(model, slate, voters, [eps2])[0]
            assert not (r2.dominated & ~r1.dominated).any()


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
                audit_consistency(model, data, epsilons)


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
    return audit_consistency(replace(model, lam=1e-2), data, epsilons, ConsistencyScheme(num_partitions=2, seed=5))


def _reindexed(data, perm):
    """The same records over the slate [data.slate[perm[k]] for k]."""
    new_index = np.argsort(perm)
    return replace(data, slate=data.slate[perm], i0=new_index[data.i0], i1=new_index[data.i1])


def _permuted(report, perm):
    """The report an audit of slate [s[perm[k]] for k] must give, from the report
    on s: pair (k, l) of the new slate is pair (perm[k], perm[l]) of the old."""
    pairs = np.ix_(perm, perm)
    return replace(report, dominated=report.dominated[pairs], violated=report.violated[pairs])


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
            assert u == exhaustive_axiom_check(model, slate, voter_records(voters), eps, "unanimity")
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
    """One pair at a time: (dominated mask, violated mask, violated pairs in
    row-major order, min_margin)."""
    m = len(gap)
    dominated, violated = np.zeros((m, m), dtype=bool), np.zeros((m, m), dtype=bool)
    violations, margins = [], []
    for i in range(m):
        for j in range(m):
            if i != j and gap[i][j] > eps:
                dominated[i, j] = True
                margins.append(score_gaps[i][j] - eps)
                if not score_gaps[i][j] > eps:
                    violated[i, j] = True
                    violations.append((i, j))
    return dominated, violated, tuple(violations), (min(margins) if margins else None)


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
        dominated, violated, violations, min_margin = _naive_dominance(gap, score_gaps, eps)
        assert np.array_equal(report.dominated, dominated) and np.array_equal(report.violated, violated)
        # each anchor's view is its row of both masks as tuples of ints
        columns = [[tuple(j for j, bit in enumerate(row) if bit) for row in mask] for mask in (dominated, violated)]
        assert report.anchors == tuple(zip(*columns))
        assert all(type(j) is int for anchor in report.anchors for part in anchor for j in part)
        assert report.violations == violations
        assert report.vacuous == (not dominated.any())
        assert report.passed == (not violated.any())
        assert report.min_margin == min_margin
        assert (report.epsilon, report.slate_size, report.metadata) == (eps, len(gap), {"k": 1})


def _report(**changes):
    """A two-alternative report: 0 dominates 1, and the pair is violated."""
    fields = dict(axiom="condorcet", epsilon=0.1, dominated=[[False, True], [False, False]],
                  violated=[[False, True], [False, False]], passed=False, min_margin=-0.5, metadata={"k": 1})
    return AxiomReport(**{**fields, **changes})


def test_the_masks_are_read_only_copies():
    given = np.array([[False, True], [False, False]])
    report = _report(dominated=given)
    given[0, 1] = False
    assert report.dominated[0, 1]
    for mask in (report.dominated, report.violated):
        assert mask.dtype == bool and mask.shape == (2, 2)
        with pytest.raises(ValueError, match="read-only"):
            mask[1, 0] = True


def test_equality_ignores_metadata_and_sees_one_flipped_violated_bit():
    report = _report()
    assert report == _report(metadata={"other": 2}) and report != replace(report, min_margin=-0.25)
    # every other field equal, the one violated pair cleared
    flipped = _report(violated=[[False, False], [False, False]])
    assert report != flipped and np.array_equal(report.dominated, flipped.dominated)


@pytest.mark.parametrize("changes", [
    {"dominated": [[False, True]]},
    {"violated": [[False, False, False]] * 3},
    {"violated": [[False, False], [True, False]]},
], ids=["not-square", "shapes-differ", "violated-not-dominated"])
def test_masks_that_are_not_one_dominance_relation_are_rejected(changes):
    with pytest.raises(InputError, match="masks"):
        _report(**changes)
