import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import central_difference_gradient, coordinate_dataset, make_dataset, mirrored, random_records, take
from prefaudit.annotation import (
    EACH_PAIR_RANDOM_VOTER,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.axioms import FIT_BLOCK, _block_models, audit_consistency
from prefaudit.config import config_from_dict
from prefaudit.errors import InputError
import prefaudit.estimation
from prefaudit.estimation import (
    DEFAULT_GRAD_TOL, _fit_counts, _gradient, _nll_rows, _rowwise, borda_scores, fit_mle, nll, nll_gradient, score,
    scores,
)
from prefaudit.model import Dataset, RewardModel
from prefaudit.oracle import brute_force_mle
from prefaudit.pipeline import DATASET_FILE, SLATE_FILE, run_pipeline
from prefaudit.population import PointMass, UniformBox, sample_alternatives, sample_voters
from prefaudit.serialize import model_to_dict, read_model, read_records, read_slate, write_records

# d=3 mixture population with proxy labels, as in the grid-d3 benchmark workload
GRID_D3 = {
    "dimension": 3,
    "seed": 42,
    "num_voters": 50,
    "num_alternatives": 20,
    "population": {"kind": "mixture", "components": [
        {"weight": 0.7, "mean": [1.0, -0.5, 0.5], "var": [0.1, 0.1, 0.1]},
        {"weight": 0.3, "mean": [-0.5, 1.0, 0.0], "var": [0.1, 0.1, 0.1]},
    ]},
    "alternatives": {"kind": "uniform-box", "lo": 0, "hi": 1},
    "annotation": {"pairs": {"kind": "round-robin", "repeats": 10},
                   "labels": {"kind": "proxy", "w": [1.0, 0.5, 1.5]}},
}


class TestNll:
    def test_zero_theta_gives_n_ln2(self, rng):
        records = random_records(rng, 3, 20)
        assert nll(np.zeros(3), records, 0.0) == pytest.approx(20 * math.log(2), abs=1e-12)

    def test_unit_gap_log_sigmoid(self):
        # single record, winner gap <theta, delta> = 1: -ln sigma(1)
        records = make_dataset([([0.0], [1.0], 1)])
        assert nll([1.0], records, 0.0) == pytest.approx(0.3132616875182228, abs=1e-10)

    def test_zero_theta_zero_penalty(self, rng):
        records = random_records(rng, 2, 7)
        assert nll(np.zeros(2), records, 1.0) == pytest.approx(7 * math.log(2), abs=1e-12)

    def test_empty_dataset(self):
        with pytest.raises(InputError):
            nll([1.0], coordinate_dataset([], [], [], []), 0.0)

    @pytest.mark.parametrize("call", [
        lambda data, theta: nll(theta, data),
        lambda data, theta: nll_gradient(theta, data),
        lambda data, theta: fit_mle(data, init=theta),
    ], ids=["nll", "nll_gradient", "fit_mle"])
    @pytest.mark.parametrize("d, theta", [(2, 0.5), (2, [[1.0], [2.0]]), (1, [[1.0]]), (2, [1.0, 2.0, 3.0])])
    def test_theta_of_the_wrong_shape(self, rng, call, d, theta):
        with pytest.raises(InputError, match=r"of shape \(.*\) differs from data dimension"):
            call(random_records(rng, d, 5), theta)


class TestGradient:
    def test_zero_theta_half_delta(self):
        records = make_dataset([([0.0, 0.0], [2.0, -4.0], 1)])
        grad = nll_gradient(np.zeros(2), records, 0.0)
        assert np.allclose(grad, [-1.0, 2.0], atol=1e-15)  # -0.5 * delta

    def test_symmetric_dataset_cancels(self, rng):
        # each record plus a copy with the opposite winner: deltas cancel
        records = random_records(rng, 3, 10)
        grad = nll_gradient(np.zeros(3), mirrored(records), 0.0)
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_matches_central_differences(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 51))
            records = random_records(rng, d, n)
            lam = float(rng.uniform(0, 0.1))
            theta = rng.normal(size=d)
            analytic = nll_gradient(theta, records, lam)
            fd = central_difference_gradient(theta, records, lam)
            scale = 1 + np.max(np.abs(analytic))
            assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale


class TestFitMle:
    def test_separable_single_record_reports_divergence(self):
        model = fit_mle(make_dataset([([0.0], [1.0], 1)]), lam=0.0)
        assert not model.converged
        assert model.diagnostic

    def test_symmetric_data_fits_origin(self, rng):
        records = random_records(rng, 2, 15)
        model = fit_mle(mirrored(records), lam=1e-3)
        assert model.converged
        assert np.max(np.abs(model.theta_hat)) < 1e-6

    def test_recovers_sign_structure(self):
        theta_star = np.array([1.0, 0.0])
        voters = sample_voters(PointMass(theta=theta_star), 1, seed=0)
        slate = sample_alternatives(UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0]), 20, seed=1)
        data = generate_dataset(voters, slate, RoundRobin(repeats=106),
                                EACH_PAIR_RANDOM_VOTER, TrueRewardLabels(), seed=2)
        model = fit_mle(data, lam=1e-3)
        agree = total = 0
        for i in range(len(slate)):
            for j in range(i + 1, len(slate)):
                true_gap = float(theta_star @ (slate[i] - slate[j]))
                if abs(true_gap) > 0.5:
                    total += 1
                    fitted_gap = score(model, slate[i]) - score(model, slate[j])
                    agree += np.sign(fitted_gap) == np.sign(true_gap)
        assert total > 0
        assert agree / total >= 0.99

    def test_monotone_descent(self, rng):
        records = random_records(rng, 4, 40)
        model = fit_mle(records, lam=1e-3)
        hist = np.array(model.nll_history)
        assert np.all(np.diff(hist) <= 0)
        assert model.final_nll <= hist[0]

    def test_permutation_invariance(self, rng):
        records = random_records(rng, 3, 30)
        model_a = fit_mle(records, lam=1e-2)
        order = np.arange(len(records))
        rng.shuffle(order)
        model_b = fit_mle(take(records, order), lam=1e-2)
        assert np.max(np.abs(model_a.theta_hat - model_b.theta_hat)) < 1e-5

    def test_final_nll_not_above_init(self, rng):
        records = random_records(rng, 2, 25)
        init = rng.normal(size=2)
        model = fit_mle(records, lam=1e-3, init=init)
        assert model.final_nll <= nll(init, records, 1e-3)


def _bt_records(rng, theta_star, n):
    """Records labeled by the Bradley-Terry model at theta_star."""
    rows = []
    for _ in range(n):
        a0, a1 = rng.uniform(-1, 1, theta_star.size), rng.uniform(-1, 1, theta_star.size)
        p_a1 = 1.0 / (1.0 + math.exp(-float(theta_star @ (a1 - a0))))
        rows.append((a0, a1, int(rng.random() < p_a1)))
    return make_dataset(rows)


def _numpy_gradient(theta, records, lam):
    """NLL gradient from the record fields, apart from the estimation kernels."""
    a0, a1 = records.slate[records.i0], records.slate[records.i1]
    deltas = np.array([x1 - x0 if label == 1 else x0 - x1 for x0, x1, label in zip(a0, a1, records.label)])
    p_lose = 1.0 / (1.0 + np.exp(deltas @ theta))
    return -(p_lose[:, None] * deltas).sum(axis=0) + 2.0 * lam * theta


class TestNewtonFit:
    def test_agrees_with_brute_force_grid(self):
        rng = np.random.default_rng(7)
        resolution, bound = 11, 4.0
        step = 2 * bound / (resolution - 1)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            records = _bt_records(rng, rng.uniform(-1.5, 1.5, d), int(rng.integers(30, 80)))
            model = fit_mle(records, lam=0.1)
            opt = brute_force_mle(records, lam=0.1, resolution=resolution, bound=bound)
            assert model.converged
            assert model.final_nll <= nll(opt, records, 0.1)
            assert np.max(np.abs(model.theta_hat - opt)) <= step

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        rows=st.lists(
            st.tuples(st.lists(st.floats(-1, 1), min_size=8, max_size=8), st.integers(0, 1)),
            min_size=1, max_size=40),
        lam=st.floats(1e-3, 1.0),
    )
    def test_numpy_gradient_within_grad_tol(self, d, rows, lam):
        records = make_dataset([(x[:d], x[4:4 + d], label) for x, label in rows])
        model = fit_mle(records, lam=lam)
        assert model.converged
        grad = _numpy_gradient(model.theta_hat, records, lam)
        assert np.max(np.abs(grad)) <= DEFAULT_GRAD_TOL

    @pytest.mark.parametrize("block", [
        # two voter blocks of the seed-42 consistency audit, in the audit's
        # order, whose gradient-descent fits stopped at max_iters=10000
        [15, 4, 5, 42, 0, 46, 12, 3, 17, 9, 6, 45, 14, 26, 31, 41, 27, 48, 23, 16,
         19, 35, 21, 22, 33],
        [45, 2, 39, 48, 49, 44, 35, 32, 42, 0, 25, 16, 6, 40, 47, 31, 9, 10, 1, 46,
         4, 22, 36, 37, 19],
    ])
    def test_grid_d3_block_converges(self, tmp_path, block):
        run_pipeline(config_from_dict(GRID_D3), tmp_path, stages=("simulate",))
        data = read_records(tmp_path / DATASET_FILE, read_slate(tmp_path / SLATE_FILE))
        records = take(data, np.concatenate([np.flatnonzero(data.voter == v) for v in block]))
        model = fit_mle(records, lam=1e-3)
        assert model.converged, model.diagnostic
        assert model.iterations <= 20

    def test_singular_hessian_falls_back_to_gradient(self):
        # lam=0 and every delta on the first axis: the Hessian's second row is zero
        records = make_dataset([([0.0, 0.0], [1.0, 0.0], 1)] * 3 + [([0.0, 0.0], [1.0, 0.0], 0)])
        model = fit_mle(records, lam=0.0)
        assert model.converged, model.diagnostic
        assert model.theta_hat == pytest.approx([math.log(3.0), 0.0], abs=1e-7)


@st.composite
def _repeating_slate_records(draw):
    """Up to 60 labelled records by up to 4 voters over a d=2 slate that holds
    some of its points twice, so that a records file names other rows."""
    pool = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]
    slate = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8).filter(lambda s: len(set(map(tuple, s))) > 1))
    row = st.integers(0, len(slate) - 1)
    records = draw(st.lists(st.tuples(st.integers(0, 3), row, row, st.integers(0, 1)), min_size=1, max_size=60))
    voter, i0, i1, label = zip(*records)
    return Dataset(voter=voter, label=label, slate=slate, i0=i0, i1=i1)


def _fit_bits(model):
    return (model.theta_hat.tobytes(), model.final_nll, model.converged, model.iterations,
            model.grad_norm, model.nll_history, model.diagnostic)


class TestCountKernelInvariance:
    @settings(max_examples=60, deadline=None)
    @given(_repeating_slate_records(), st.data())
    def test_the_fit_depends_only_on_the_pair_counts(self, data, draws):
        """Bit for bit the same fit after shuffling the records, and after a
        write/read round trip, which names each point by its first slate row."""
        fitted = _fit_bits(fit_mle(data, lam=1e-2))
        permuted = take(data, draws.draw(st.permutations(range(len(data)))))
        assert _fit_bits(fit_mle(permuted, lam=1e-2)) == fitted
        with tempfile.TemporaryDirectory() as out:
            write_records(Path(out) / "records", data)
            back = read_records(Path(out) / "records", data.slate)
        assert _fit_bits(fit_mle(back, lam=1e-2)) == fitted


def _repeated(slate, records, repeats):
    """A one-voter dataset holding each (i0, i1, label) record ``repeats`` times."""
    i0, i1, label = (np.tile(x, repeats) for x in zip(*records))
    return Dataset(voter=np.zeros(len(label), dtype=np.int64), label=label, slate=slate, i0=i0, i1=i1)


@st.composite
def _repeated_records(draw):
    """Up to 4 records over 2-4 slate points in d <= 3, with coordinates up to
    1 or up to 1e3, each record repeated up to 100,000 times: at lam=0 the
    large, heavily repeated ones stall or take near-singular Newton steps."""
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1e-3, 1.0]))
    point = st.lists(st.integers(-1000, 1000).map(lambda x: x * scale), min_size=d, max_size=d)
    slate = draw(st.lists(point, min_size=2, max_size=4))
    row = st.integers(0, len(slate) - 1)
    records = draw(st.lists(st.tuples(row, row, st.integers(0, 1)), min_size=1, max_size=4))
    return _repeated(slate, records, draw(st.sampled_from([1, 1000, 100_000])))


# at lam=0 and grad_tol=1e-12 this fit stalls in iteration 7
_STALLS_EARLY = _repeated([[58.0, 12.0, -38.0], [-20.0, -84.0, 26.0]], [(1, 0, 0), (1, 0, 0), (0, 1, 0)], 10_000)


class TestStoppingRules:
    """A fit stops converged (max-abs gradient <= grad_tol), stalled (its line
    search found no descent) or out of iterations, and reports which."""

    def test_a_fit_that_meets_the_tolerance_on_its_last_step_converged(self, rng):
        data = random_records(rng, 3, 40)
        full = fit_mle(data, lam=1e-3)
        assert full.converged and full.iterations > 1
        assert _fit_bits(fit_mle(data, lam=1e-3, max_iters=full.iterations)) == _fit_bits(full)

    @pytest.mark.parametrize("lam", [1e-3, 0.0])
    def test_a_bounded_fit_stops_on_the_unbounded_fit_path(self, rng, lam):
        data = random_records(rng, 3, 40)
        full = fit_mle(data, lam=lam)
        for k in range(1, full.iterations + 1):
            assert fit_mle(data, lam=lam, max_iters=k).final_nll == full.nll_history[k]

    def test_a_stalled_fit_reports_its_stall(self):
        # lam=0, coordinates of about 1e3 and 100,000 repeats: the loss's rounding
        # hides the last descent long before the gradient reaches 1e-12
        data = _repeated([[-487.0, 149.0], [-65.0, 39.0], [585.0, -988.0]], [(1, 0, 0), (0, 2, 0), (1, 0, 1)], 100_000)
        model = fit_mle(data, lam=0.0, max_iters=200, grad_tol=1e-12)
        assert not model.converged and model.iterations < 200
        assert model.diagnostic == ("gradient tolerance 1e-12 not reached: the line search found no descent "
                                    f"in iteration {model.iterations}")
        assert model.grad_norm == np.max(np.abs(nll_gradient(model.theta_hat, data, 0.0)))

    def test_a_newton_step_whose_loss_overflows_is_refused(self):
        # lam=0 and 2 pair directions in d=3: a near-null Newton step of about
        # 1e217 predicts a decrease under the loss's rounding
        data = _repeated([[-402.0, -9.0, -692.0], [-343.0, -824.0, -443.0], [-343.0, -561.0, -193.0]],
                         [(0, 1, 1), (1, 2, 1), (1, 2, 0)], 10_000)
        model = fit_mle(data, lam=0.0, max_iters=200, grad_tol=1e-12)
        assert np.all(np.isfinite(model.theta_hat)) and np.all(np.isfinite(model.nll_history))
        assert np.all(np.diff(model.nll_history) <= 0)
        assert "line search found no descent" in model.diagnostic

    @settings(max_examples=100, deadline=None)
    @given(_repeated_records(), st.sampled_from([0.0, 1e-3]), st.integers(1, 8), st.sampled_from([1e-8, 1e-12]))
    @example(_STALLS_EARLY, 0.0, 8, 1e-12)
    def test_every_fit_reports_how_it_stopped(self, data, lam, max_iters, grad_tol):
        model = fit_mle(data, lam=lam, max_iters=max_iters, grad_tol=grad_tol)
        separated = "separated by the fitted direction" in model.diagnostic
        assert model.converged == (model.grad_norm <= grad_tol and not separated)
        assert model.iterations <= max_iters and len(model.nll_history) == model.iterations + 1
        assert model.final_nll == model.nll_history[-1]


class TestBatchedFits:
    def test_each_block_of_a_batch_matches_its_own_fit(self, tmp_path):
        """The grid-d3 voters in 4 random partitions of 2 blocks, fitted
        FIT_BLOCK // 20^2 = 5 blocks at a time over the union of their pairs."""
        run_pipeline(config_from_dict(GRID_D3), tmp_path, stages=("simulate",))
        data = read_records(tmp_path / DATASET_FILE, read_slate(tmp_path / SLATE_FILE))
        by_voter = [np.flatnonzero(data.voter == v) for v in range(50)]
        blocks = [perm[b::2] for perm in (np.random.default_rng(k).permutation(50) for k in range(4)) for b in (0, 1)]
        models = _block_models(data, by_voter, blocks, 1e-3, 100, DEFAULT_GRAD_TOL)
        assert len(models) == 8 and FIT_BLOCK // len(data.slate) ** 2 == 5
        for block, model in zip(blocks, models):
            alone = fit_mle(take(data, np.concatenate([by_voter[v] for v in block])), lam=1e-3, max_iters=100)
            assert np.max(np.abs(model.theta_hat - alone.theta_hat)) <= 1e-12
            assert (model.converged, model.iterations) == (alone.converged, alone.iterations)
            assert model.converged and model.grad_norm <= DEFAULT_GRAD_TOL

    def test_a_rank_deficient_or_separable_block_leaves_its_batch_mates_alone(self):
        """At lam=0: block 0 has no data on the second axis (a singular Hessian,
        so gradient steps), block 1 is separated by its fit, block 2 is neither."""
        deltas = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        counts = np.array([[3.0, 1.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0], [3.0, 1.0, 2.0, 1.0]])
        batch = _fit_counts(deltas, counts, 0.0, 10000, DEFAULT_GRAD_TOL, np.zeros((3, 2)))
        alone = [_fit_counts(deltas, c[None], 0.0, 10000, DEFAULT_GRAD_TOL, np.zeros((1, 2)))[0] for c in counts]
        for model, own in zip(batch, alone):
            assert np.max(np.abs(model.theta_hat - own.theta_hat)) <= 1e-12
            assert (model.converged, model.iterations, model.diagnostic) == (own.converged, own.iterations,
                                                                              own.diagnostic)
        singular, separated, regular = batch
        assert singular.converged and singular.theta_hat == pytest.approx([math.log(3.0), 0.0], abs=1e-7)
        assert singular.iterations > regular.iterations  # gradient steps converge linearly
        assert not separated.converged and "separated by the fitted direction" in separated.diagnostic
        assert regular.converged and regular.theta_hat == pytest.approx([math.log(3.0), math.log(2.0)], abs=1e-7)


@st.composite
def _rowwise_cases(draw):
    """(a, b) as the kernels pass them: B of 1-64 rows against K of 1-600 pair
    rows in d of 1-7, entries of either sign with magnitudes 1e-3 to 1e3, and
    b as deltas.T (F-ordered) or as the C-ordered deltas or products."""
    batch, k, d = draw(st.integers(1, 64)), draw(st.integers(1, 600)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 3, shape)

    deltas = values(k, d)
    layout = draw(st.sampled_from(["deltas.T", "deltas", "products"]))
    if layout == "deltas.T":
        return values(batch, d), deltas.T
    if layout == "deltas":
        return values(batch, k), deltas
    upper = np.nonzero(np.tri(d, dtype=bool).T)
    return values(batch, k), deltas[:, upper[0]] * deltas[:, upper[1]]


@settings(max_examples=80, deadline=None)
@given(_rowwise_cases())
def test_rowwise_equals_a_product_per_row(case):
    """Bit for bit, so a batch of B rows equals B separate B = 1 calls."""
    a, b = case
    got = _rowwise(a, b)
    assert got.shape == (len(a), b.shape[1])
    assert got.tobytes() == np.array([np.matmul(x, b) for x in a]).tobytes()


def _masked_gradient(thetas, deltas, counts, lam):
    """The gradient and Hessian weights as written with masked divides:
    q = e / (1 + e) where z >= 0 and 1 / (1 + e) elsewhere, e = exp(-|z|)."""
    z = np.matmul(thetas[:, None], deltas.T)[:, 0]
    won = z >= 0
    e = np.exp(-np.abs(z))
    q = np.empty_like(z)
    np.divide(e, e + 1.0, out=q, where=won)
    np.divide(1.0, e + 1.0, out=q, where=~won)
    cq = q * counts
    return 2.0 * lam * thetas - np.matmul(cq[:, None], deltas)[:, 0], (1.0 - q) * cq


def _same_bits(a, b) -> bool:
    """Equal shapes, NaN where the other is NaN, and equal bits elsewhere (so 0.0 != -0.0)."""
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


# d = 1 and deltas of +-1, so z = theta * delta exactly: +-0.0, |z| > 745 (e
# underflows to 0), NaN, and values around 0 and the underflow
_z_values = st.one_of(
    st.sampled_from([0.0, -0.0, 745.5, -745.5, 800.0, -800.0, 1e300, -1e300, float("nan")]),
    st.floats(-50, 50, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_z_values, min_size=1, max_size=6), st.lists(st.sampled_from([1.0, -1.0, 2.0]), min_size=1, max_size=5),
       st.booleans(), st.sampled_from([0.0, 1e-3]), st.integers(0, 2**32 - 1))
def test_gradient_equals_the_masked_divides_bit_for_bit(thetas, signs, per_row, lam, seed):
    thetas, deltas = np.array(thetas)[:, None], np.array(signs)[:, None]
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, (len(thetas), len(deltas)) if per_row else len(deltas)).astype(np.float64)
    got, want = _gradient(thetas, deltas, counts, lam), _masked_gradient(thetas, deltas, counts, lam)
    assert all(_same_bits(g, w) for g, w in zip(got, want, strict=True))


def _three_call_nll_rows(z, thetas, counts, lam):
    """The NLL rows over z with max(-z, 0) taken by a negate and a maximum, then added."""
    t = np.log1p(np.exp(-np.abs(z)))
    t += np.maximum(np.negative(z), 0.0)
    t *= counts
    return np.add.reduce(t, axis=1) + lam * np.add.reduce(thetas * thetas, axis=1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.booleans(), st.sampled_from([0.0, 1e-3]), st.data())
def test_nll_rows_subtract_the_negative_part_bit_for_bit(batch, k, per_row, lam, data):
    """z is set directly: the stacked product of theta and D gives +0.0
    where its one term is -0.0, so it never yields z = -0.0 at d = 1."""
    inf = float("inf")
    values = st.one_of(_z_values, st.sampled_from([inf, -inf]))
    z = np.array(data.draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=batch, max_size=batch)))
    counts = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=k, max_size=k)))
    if per_row:
        counts = np.array(data.draw(st.permutations(np.resize(counts, batch * k).tolist()))).reshape(batch, k)
    thetas = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=batch, max_size=batch)))[:, None]
    with np.errstate(invalid="ignore"):  # an infinite term times a zero count
        with mock.patch.object(prefaudit.estimation, "_rowwise", lambda a, b: z.copy()):
            got = _nll_rows(thetas, np.empty((k, 1)), counts, lam)
        assert _same_bits(got, _three_call_nll_rows(z, thetas, counts, lam))


def test_hessian_products_are_the_gathered_product_in_its_layout(monkeypatch):
    """The products _fit_counts passes to the Hessian equal deltas[:, i] *
    deltas[:, j] over the upper triangle bit for bit, F-ordered like the
    gathered product (the Hessian's matmul rounds by the layout)."""
    rng = np.random.default_rng(3)
    deltas = rng.uniform(-1, 1, (40, 3))
    seen = []

    def rowwise(a, b):
        seen.append(b)
        return _rowwise(a, b)

    monkeypatch.setattr(prefaudit.estimation, "_rowwise", rowwise)
    _fit_counts(deltas, rng.integers(1, 5, (2, 40)).astype(np.float64), 1e-3, 2, DEFAULT_GRAD_TOL, np.zeros((2, 3)))
    upper = np.nonzero(np.tri(3, dtype=bool).T)
    gathered = deltas[:, upper[0]] * deltas[:, upper[1]]
    products = [b for b in seen if b.shape == gathered.shape]
    assert products and all(b.flags.f_contiguous and b.tobytes("A") == gathered.tobytes("A") for b in products)


_NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("lam", _NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda data, lam: RewardModel(theta_hat=[1.0], lam=lam, final_nll=0.0, converged=True, iterations=0),
    lambda data, lam: nll([1.0], data, lam),
    lambda data, lam: nll_gradient([1.0], data, lam),
    lambda data, lam: fit_mle(data, lam),
    lambda data, lam: audit_consistency(data, [0.0], lam=lam),
], ids=["RewardModel", "nll", "nll_gradient", "fit_mle", "audit_consistency"])
def test_a_non_finite_lambda_is_rejected(rng, call, lam):
    with pytest.raises(InputError, match="lambda must be >= 0 and finite"):
        call(random_records(rng, 1, 5, voter_ids=(0, 1)), lam)


@pytest.mark.parametrize("lam", _NON_FINITE, ids=["nan", "inf", "-inf"])
def test_a_model_file_with_a_non_finite_lambda_names_its_path(tmp_path, lam):
    path = tmp_path / "model.json"
    model = RewardModel(theta_hat=[1.0], lam=0.0, final_nll=0.0, converged=True, iterations=0)
    path.write_text(json.dumps({**model_to_dict(model), "lambda": lam}))  # NaN and Infinity as json writes them
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: lambda must be >= 0 and finite"):
        read_model(path)


class TestBordaScores:
    def test_win_rate_counting(self):
        a, b, c = [1.0], [0.0], [0.5]
        records = Dataset(voter=[0] * 4, slate=[a, b, c], i0=[1, 0, 2, 0], i1=[0, 1, 0, 2], label=[
            1,  # a beats b
            0,  # a beats b
            1,  # a beats c
            1,  # c beats a
        ])
        scores = borda_scores(records)
        assert scores[0] == 0.75

    def test_never_compared_is_undefined(self):
        records = Dataset(voter=[0], slate=[[0.0], [1.0], [2.0]], i0=[0], i1=[1], label=[1])
        scores = borda_scores(records)
        assert scores[2] is None

    def test_deterministic_winner(self):
        records = Dataset(voter=[0] * 5, slate=[[1.0], [0.0]], i0=[1] * 5, i1=[0] * 5, label=[1] * 5)
        scores = borda_scores(records)
        assert scores[0] == 1.0 and scores[1] == 0.0

    def test_empty_data(self):
        with pytest.raises(InputError):
            borda_scores(Dataset(voter=[], label=[], slate=[[1.0], [2.0]], i0=[], i1=[]))

    def test_matches_a_per_record_count(self, rng):
        slate = [rng.normal(size=2) for _ in range(6)]
        slate.append(slate[2].copy())  # a point the slate holds twice
        slate.append(np.array([9.0, 9.0]))  # a point no record names
        pick = rng.integers(0, len(slate) - 1, size=(200, 2))
        data = Dataset(voter=[0] * 200, label=rng.integers(0, 2, 200), slate=slate, i0=pick[:, 0], i1=pick[:, 1])
        wins, seen = [0] * len(slate), [0] * len(slate)
        for i0, i1, label in zip(data.i0, data.i1, data.label):
            winner, loser = (i1, i0) if label == 1 else (i0, i1)
            wins[winner] += 1
            seen[winner] += 1
            seen[loser] += 1
        expected = {i: (wins[i] / seen[i] if seen[i] else None) for i in range(len(slate))}
        assert borda_scores(data) == expected
        assert expected[7] is None and all(expected[i] is not None for i in range(7))

    def test_a_repeated_point_credits_the_row_each_record_names(self):
        """Rows 0 and 2 hold the same point; each gets only its own records.
        Matching records to rows by their points gave row 0 all of them."""
        slate = [[0.0], [1.0], [0.0]]
        records = Dataset(voter=[0] * 3, slate=slate, i0=[0, 2, 2], i1=[1, 1, 1], label=[0, 1, 0])
        assert borda_scores(records) == {0: 1.0, 1: 1 / 3, 2: 0.5}


class TestScore:
    def test_dot_product(self):
        model = RewardModel(theta_hat=[1.0, -1.0], lam=0.0, final_nll=0.0,
                            converged=True, iterations=0)
        assert score(model, [2.0, 3.0]) == -1.0

    def test_zero_model(self, rng):
        model = RewardModel(theta_hat=[0.0, 0.0], lam=0.0, final_nll=0.0,
                            converged=True, iterations=0)
        for _ in range(5):
            assert score(model, rng.normal(size=2)) == 0.0

    def test_translation_covariance(self, rng):
        model = RewardModel(theta_hat=rng.normal(size=3), lam=0.0, final_nll=0.0,
                            converged=True, iterations=0)
        a, b, c = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        lhs = score(model, a) - score(model, b)
        rhs = score(model, a + c) - score(model, b + c)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_dimension_mismatch(self):
        model = RewardModel(theta_hat=[1.0], lam=0.0, final_nll=0.0,
                            converged=True, iterations=0)
        with pytest.raises(InputError):
            score(model, [1.0, 2.0])


# -0.0, 0.0 and magnitudes from 1e-3 to 1e3
_mixed = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.tuples(st.floats(-1, 1), st.integers(-3, 3)).map(lambda p: p[0] * 10.0 ** p[1]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.data())
def test_scores_equal_score_per_row_bit_for_bit(d, data):
    theta = data.draw(st.lists(_mixed, min_size=d, max_size=d))
    slate = np.array(data.draw(st.lists(st.lists(_mixed, min_size=d, max_size=d), min_size=1, max_size=12)))
    model = RewardModel(theta_hat=theta, lam=0.0, final_nll=0.0, converged=True, iterations=0)
    assert scores(model, slate).tobytes() == np.array([score(model, a) for a in slate]).tobytes()
