
import ast
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefaudit
from conftest import coordinate_dataset, take
from prefaudit.annotation import (
    PARTITION_BY_VOTER,
    ProxyLabels,
    RoundRobin,
    TrueRewardLabels,
    generate_dataset,
)
from prefaudit.axioms import audit_condorcet, audit_unanimity
from prefaudit.errors import InputError
from prefaudit.model import Dataset, RewardModel, VoterParams, Voters, btl_prob, feature_vector, slate_array
from prefaudit.population import PointMass
from prefaudit.serialize import read_voters, write_voters


TRUE = TrueRewardLabels()


def _rewards(scheme, theta, *points):
    """One voter's row of the scheme's reward table over ``points``."""
    return scheme.rewards(np.array([theta], dtype=float), np.array(points, dtype=float))[0]


class TestFeatureVector:
    def test_rejects_nan(self):
        with pytest.raises(InputError):
            feature_vector([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(InputError):
            feature_vector([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            feature_vector([])

    def test_read_only(self):
        v = feature_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v[0] = 3.0


class TestSlateArray:
    def test_read_only_c_contiguous_float64_copy(self):
        points = [np.array([1, 2]), np.array([3, 4]), np.array([5, 6])]
        slate = slate_array(points)
        assert slate.shape == (3, 2) and slate.dtype == np.float64
        assert slate.flags.c_contiguous and not slate.flags.writeable
        assert slate.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        points[0][0] = 9
        assert slate[0, 0] == 1.0
        assert slate_array(np.asfortranarray(slate)).flags.c_contiguous

    def test_a_slate_array_passes_through_unchanged(self):
        slate = slate_array([[0.25, -0.0], [1e-300, 3.0]])
        assert slate_array(slate).tobytes() == slate.tobytes()

    @pytest.mark.parametrize("points", [
        [[0.5, 0.5]], [], [0.5, 0.5], [[], []], [[[0.5], [0.5]], [[0.5], [0.5]]],
    ], ids=["one-point", "empty", "one-dimensional", "zero-dimension", "three-dimensional"])
    def test_rejects_a_shape_other_than_m_by_d(self, points):
        with pytest.raises(InputError, match=r"m >= 2 points of dimension d >= 1"):
            slate_array(points)

    def test_ragged_points_are_a_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimension mismatch") as err:
            slate_array([[0.1, 0.2], [0.3]])
        assert "differ in dimension" in str(err.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_point_and_names_it(self, bad):
        with pytest.raises(InputError, match="slate point 2 has non-finite coordinates"):
            slate_array([[0.1, 0.2], [0.3, 0.3], [0.5, bad]])


BAD_SLATES = {
    "nan-point": [[0.1, 0.2], [float("nan"), 0.5], [0.3, 0.3]],
    "ragged": [[0.1, 0.2], [0.3]],
    "one-point": [[0.5, 0.5]],
}


def _slate_entry_points():
    """Every public function that takes a slate, as slate -> result, on d=2 inputs."""
    voters = Voters(ids=[0, 1], thetas=[[1.0, -0.5], [1.0, -0.5]])
    model = RewardModel(theta_hat=[1.0, -0.5], lam=1e-3, final_nll=1.0, converged=True, iterations=1)
    return {
        "generate_dataset": lambda slate: generate_dataset(
            voters, slate, RoundRobin(), PARTITION_BY_VOTER, TrueRewardLabels(), seed=0),
        "audit_unanimity": lambda slate: audit_unanimity(model, slate, voters, [0.0]),
        "audit_condorcet": lambda slate: audit_condorcet(model, slate, PointMass(theta=[1.0, -0.5]), [0.0]),
        "Dataset": lambda slate: Dataset(voter=[0], label=[1], slate=slate, i0=[0], i1=[1]),
    }


@pytest.mark.parametrize("case", sorted(BAD_SLATES))
@pytest.mark.parametrize("entry", sorted(_slate_entry_points()))
def test_every_slate_entry_point_rejects_what_slate_array_rejects(entry, case):
    """Each entry point raises slate_array's own error; without it, the
    unanimity and Condorcet audits pass a slate with a NaN point."""
    with pytest.raises(InputError) as want:
        slate_array(BAD_SLATES[case])
    with pytest.raises(InputError) as got:
        _slate_entry_points()[entry](BAD_SLATES[case])
    assert str(got.value) == str(want.value)


class TestReward:
    def test_hand_computed_dot_product(self):
        assert _rewards(TRUE, [1, -1], [2, 3]).tolist() == [-1.0]

    def test_zero_theta(self):
        assert _rewards(TRUE, [0, 0, 0], [4, 5, 6]).tolist() == [0.0]

    def test_unit_vectors(self):
        assert _rewards(TRUE, [1, 0], [1, 0]).tolist() == [1.0]

    def test_table_shape(self):
        thetas = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert TRUE.rewards(thetas, points).tolist() == [[1.0, 3.0], [4.0, 8.0], [3.0, 7.0]]

    def test_linearity(self, rng):
        for _ in range(50):
            theta = rng.normal(size=4)
            a, b = rng.normal(size=4), rng.normal(size=4)
            alpha, beta = rng.normal(), rng.normal()
            lhs, ra, rb = _rewards(TRUE, theta, alpha * a + beta * b, a, b)
            assert lhs == pytest.approx(alpha * ra + beta * rb, abs=1e-9)


class TestProxyReward:
    def test_all_ones_reduces_to_reward(self):
        proxy = _rewards(ProxyLabels(w=[1, 1]), [1, 1], [2, 3])
        assert proxy.tolist() == _rewards(TRUE, [1, 1], [2, 3]).tolist() == [5.0]

    def test_hand_computed_weighted_product(self):
        assert _rewards(ProxyLabels(w=[2, 0]), [1, 1], [2, 3]).tolist() == [4.0]

    def test_zero_weights(self):
        assert _rewards(ProxyLabels(w=[0, 0]), [1, -1], [7, 9]).tolist() == [0.0]

    def test_all_ones_exact_equality(self, rng):
        ones = ProxyLabels(w=np.ones(3))
        for _ in range(50):
            theta = rng.normal(size=3)
            a = rng.normal(size=3)
            assert np.array_equal(_rewards(ones, theta, a), _rewards(TRUE, theta, a))


class TestBtlProb:
    def test_equal_rewards(self):
        assert btl_prob(3.7, 3.7) == 0.5

    def test_sigmoid_of_one(self):
        # closed-form sigmoid evaluated independently: 1/(1+e^-1)
        assert btl_prob(1, 0) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_complement(self):
        assert btl_prob(0, 1) == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            btl_prob(float("inf"), 0.0)

    def test_no_overflow_at_extreme_rewards(self):
        assert btl_prob(1000.0, -1000.0) == 1.0
        assert btl_prob(-1000.0, 1000.0) == pytest.approx(0.0, abs=1e-300)

    def test_normalization(self, rng):
        for _ in range(200):
            x, y = rng.uniform(-50, 50, size=2)
            assert abs(btl_prob(x, y) + btl_prob(y, x) - 1.0) <= 1e-12

    def test_translation_invariance(self, rng):
        for _ in range(200):
            x, y, c = rng.uniform(-20, 20, size=3)
            assert abs(btl_prob(x + c, y + c) - btl_prob(x, y)) <= 1e-12


class TestDataset:
    def test_rejects_bad_label(self):
        with pytest.raises(InputError):
            coordinate_dataset([0], [2], [[1.0]], [[2.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InputError):
            coordinate_dataset([0], [1], [[1.0]], [[2.0, 3.0]])

    def test_proxy_requires_weights(self):
        with pytest.raises(InputError):
            coordinate_dataset([0], [1], [[1.0]], [[2.0]], scheme="proxy")

    def test_rejects_weights_of_the_wrong_length(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            coordinate_dataset([0], [1], [[1.0]], [[2.0]], scheme="proxy", w=[1.0, 2.0])

    def test_rejects_non_finite_coordinate(self):
        with pytest.raises(InputError, match="slate point 3 has non-finite coordinates"):
            coordinate_dataset([0, 0], [1, 0], [[1.0], [0.0]], [[2.0], [float("inf")]])

    @pytest.mark.parametrize("i0, i1, record", [([0, 2], [1, 0], 1), ([0, 1], [-1, 0], 0), ([3, 1], [0, 1], 0)])
    def test_rejects_a_slate_index_out_of_range(self, i0, i1, record):
        with pytest.raises(InputError, match=f"^record {record}: slate indices .* not in \\[0, 2\\)$"):
            Dataset(voter=[0, 0], label=[1, 0], slate=[[1.0], [2.0]], i0=i0, i1=i1)

    def test_columns_are_read_only(self):
        data = coordinate_dataset([3], [0], [[1.0]], [[2.0]])
        for column in (data.voter, data.label, data.slate, data.i0, data.i1):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_equality_compares_points_not_slate_rows(self):
        slate = [[0.0], [1.0], [0.0]]  # rows 0 and 2 hold the same point
        data = Dataset(voter=[0, 1], label=[1, 0], slate=slate, i0=[0, 2], i1=[1, 1])
        assert data == Dataset(voter=[0, 1], label=[1, 0], slate=slate, i0=[2, 0], i1=[1, 1])
        assert data != Dataset(voter=[0, 1], label=[1, 0], slate=slate, i0=[1, 2], i1=[0, 1])


@st.composite
def _repeating_slate_datasets(draw):
    """A dataset over a slate that repeats a point, so that distinct rows hold
    equal points and some (winner, loser) pairs have a zero delta, with up to
    80 records drawn with repeats (a row may even be compared with itself)."""
    pool = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]][:draw(st.integers(1, 3))]
    slate = draw(st.lists(st.sampled_from(pool), min_size=len(pool) + 1, max_size=8))
    row = st.integers(0, len(slate) - 1)
    records = draw(st.lists(st.tuples(row, row, st.integers(0, 1)), min_size=1, max_size=80))
    i0, i1, label = zip(*records)
    return Dataset(voter=[0] * len(records), label=label, slate=slate, i0=i0, i1=i1)


def _first_row_pairs(data, rows) -> Counter:
    """The records (of ``rows``) per (winner, loser) pair, each point named by
    the first slate row holding it, as a records file read back names it."""
    points = data.slate.tolist()
    first = [points.index(p) for p in points]
    winner, loser = (a[rows].tolist() for a in data.winner_loser())
    return Counter((first[w], first[lo]) for w, lo in zip(winner, loser))


def _rows_of(data, pairs) -> bytes:
    """The winner-minus-loser rows of ``pairs``, one 1-D subtraction each."""
    return np.array([data.slate[w] - data.slate[lo] for w, lo in pairs]).reshape(-1, data.dim).tobytes()


@settings(max_examples=80, deadline=None)
@given(_repeating_slate_datasets(), st.data())
def test_pair_table_holds_the_distinct_winner_loser_pairs_in_row_major_order(data, extra):
    """Pairs of points, each named by the first slate row holding it, as a
    records file read back names them."""
    deltas, counts = data.pair_table()
    expected = _first_row_pairs(data, slice(None))
    pairs = sorted(expected)  # row-major, each pair once
    assert deltas.tobytes() == _rows_of(data, pairs)
    assert counts.dtype == np.float64 and counts.tolist() == [[expected[p] for p in pairs]]
    assert counts.sum() == len(data)
    permuted = take(data, extra.draw(st.permutations(range(len(data)))))
    assert all(np.array_equal(a, b) for a, b in zip(permuted.pair_table(), (deltas, counts)))


@settings(max_examples=80, deadline=None)
@given(_repeating_slate_datasets(), st.data())
def test_pair_table_counts_each_group_on_the_union_of_their_pairs(data, extra):
    """Each group's row is its own records' table on the union's columns and 0
    elsewhere; the union is row-major, each pair once; the result does not
    depend on the order of the records."""
    rows = st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=2 * len(data))
    groups = [np.array(g) for g in extra.draw(st.lists(rows, min_size=1, max_size=4))]
    deltas, counts = data.pair_table(groups)
    union = sorted(set().union(*(_first_row_pairs(data, g) for g in groups)))
    assert deltas.tobytes() == _rows_of(data, union)
    assert counts.shape == (len(groups), len(union))
    for group, row in zip(groups, counts):
        own = sorted(_first_row_pairs(data, group))
        columns = [union.index(p) for p in own]
        own_deltas, own_counts = take(data, group).pair_table()
        assert deltas[columns].tobytes() == own_deltas.tobytes()
        assert row[columns].tolist() == own_counts[0].tolist()
        assert not np.delete(row, columns).any()
    order = extra.draw(st.permutations(range(len(data))))
    moved = np.argsort(order)  # record r of data is record moved[r] of the permuted data
    permuted = take(data, order).pair_table([moved[g] for g in groups])
    assert all(np.array_equal(a, b) for a, b in zip(permuted, (deltas, counts)))


def _identifiers(path: Path) -> set:
    """Every name a module defines, imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
            names.add(node.name)
    return names


def test_only_the_dataset_builds_a_pair_table():
    """Every fit reads its pairs from Dataset.pair_table, so model.py alone
    knows how records become cells of the m x m table."""
    for path in sorted(Path(prefaudit.__file__).parent.glob("*.py")):
        names = _identifiers(path)
        assert not names & {"pair_counts", "_pair_cells", "_pair_rows"}, path.name
        assert path.name == "model.py" or "_first_rows" not in names, path.name
        assert path.name != "axioms.py" or "bincount" not in names


@pytest.mark.parametrize("column, value", [
    ("i0", 0.7), ("voter", 0.5), ("i1", "1"), ("voter", float("nan")), ("voter", 2**70), ("voter", 2**63),
    ("voter_id", "x"), ("voter_id", 1.5), ("voter_id", None), ("voter_id", [0]), ("voter_id", True),
    ("voter_id", 2**70),
])
def test_ids_must_be_integers_in_the_int64_range(column, value, tmp_path):
    """A float, string, NaN or out-of-range id is an InputError, never a truncated
    or wrapped id, in a Dataset column, a VoterParams, a Voters and a voters.json entry."""
    if column == "voter_id":
        with pytest.raises(InputError, match="^voter_id"):
            VoterParams(voter_id=value, theta=[1.0])
        with pytest.raises(InputError, match="^voter_id"):
            Voters(ids=[value], thetas=[[1.0]])
        path = tmp_path / "voters.json"
        path.write_text(json.dumps([{"voter_id": value, "theta": [1.0]}]))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: voter_id"):
            read_voters(path)
    else:
        columns = {"voter": [0], "i0": [0], "i1": [1], column: [value]}
        with pytest.raises(InputError, match=f"^{column}: need integers in the int64 range"):
            Dataset(label=[1], slate=[[0.0], [1.0]], **columns)


def test_numpy_integer_ids_are_accepted(tmp_path):
    voter = VoterParams(voter_id=np.int32(3), theta=[1.0])
    assert type(voter.voter_id) is int
    write_voters(tmp_path / "voters.json", Voters(ids=np.array([3], dtype=np.int32), thetas=[[1.0]]))
    assert read_voters(tmp_path / "voters.json").ids.tolist() == [3]
    data = Dataset(voter=np.array([2**63 - 1], dtype=np.uint64), label=[1], slate=[[0.0], [1.0]], i0=[0], i1=[1])
    assert data.voter.tolist() == [2**63 - 1]


class TestVoters:
    def test_holds_read_only_copies(self):
        thetas = np.array([[1.0, -0.5], [0.25, 2.0]])
        voters = Voters(ids=np.array([7, 3], dtype=np.int32), thetas=thetas)
        thetas[0, 0] = 9.0  # the Voters holds its own copy
        assert len(voters) == 2
        assert voters.ids.dtype == np.int64 and voters.ids.tolist() == [7, 3]
        assert voters.thetas.dtype == np.float64 and voters.thetas.tolist() == [[1.0, -0.5], [0.25, 2.0]]
        for column in (voters.ids, voters.thetas):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    @pytest.mark.parametrize("ids, thetas, message", [
        ([], [], r"^theta: need m >= 1 points of dimension d >= 1, got shape \(0,\)$"),
        ([0], [[]], r"^theta: need m >= 1 points of dimension d >= 1, got shape \(1, 0\)$"),
        ([0, 1], [1.0, 2.0], r"^theta: need m >= 1 points of dimension d >= 1, got shape \(2,\)$"),
        ([0, 1], [[1.0, 2.0], [3.0]], "^dimension mismatch: theta points differ in dimension$"),
        ([0, 1], [[1.0, 2.0], [3.0, float("inf")]], "^theta point 1 has non-finite coordinates$"),
        ([0], [[1.0], [2.0]], r"^voter_id: need shape \(2,\), one per voter, got \(1,\)$"),
        ([0, 1.5], [[1.0], [2.0]], "^voter_id: need integers in the int64 range"),
    ], ids=["no-voters", "no-dimensions", "one-dimensional", "ragged", "non-finite", "too-few-ids", "float-id"])
    def test_invalid_voters_are_input_errors(self, ids, thetas, message):
        with pytest.raises(InputError, match=message):
            Voters(ids=ids, thetas=thetas)

    @pytest.mark.parametrize("ids, repeated", [([4, 4], 4), ([5, 3, 3, 5], 3), ([2**63 - 1, 0, 2**63 - 1], 2**63 - 1)])
    def test_ids_must_be_unique(self, ids, repeated):
        """A repeated id would merge two voters' records; the error names the
        first id that an earlier voter already holds."""
        with pytest.raises(InputError, match=f"^voter_id {repeated} repeats an earlier voter's$"):
            Voters(ids=ids, thetas=[[float(k)] for k in range(len(ids))])

    def test_voters_json_with_a_repeated_id_names_the_file(self, tmp_path):
        path = tmp_path / "voters.json"
        path.write_text(json.dumps([{"voter_id": v, "theta": [1.0, -0.5]} for v in (0, 1, 1)]))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: voter_id 1 repeats an earlier voter's$"):
            read_voters(path)

    def test_voters_json_rejects_a_boolean_id_beside_integers(self, tmp_path):
        path = tmp_path / "voters.json"
        path.write_text(json.dumps([{"voter_id": 0, "theta": [1.0]}, {"voter_id": True, "theta": [2.0]}]))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: voter_id: need integers"):
            read_voters(path)

    def test_round_trip_through_voters_json(self, tmp_path):
        voters = Voters(ids=[9, 2**63 - 1, 0], thetas=[[0.1, -0.0], [5e-324, 1e16], [-1e-7, 2.5]])
        write_voters(tmp_path / "voters.json", voters)
        back = read_voters(tmp_path / "voters.json")
        assert back.ids.tolist() == voters.ids.tolist()
        assert back.thetas.tobytes() == voters.thetas.tobytes()


TWO_POINTS = [[0.0], [1.0]]
RAGGED = [[0], [1, 2]]


@pytest.mark.parametrize("build, named", [
    (lambda: feature_vector("ab"), "feature vector: .*'ab'"),
    (lambda: feature_vector([1, "x"]), r"feature vector: .*\[1, 'x'\]"),
    (lambda: feature_vector([[1.0], [2.0, 3.0]]), r"feature vector: .*\[\[1.0\], \[2.0, 3.0\]\]"),
    (lambda: PointMass(theta="ab"), "feature vector: .*'ab'"),
    (lambda: VoterParams(voter_id=0, theta="ab"), "feature vector: .*'ab'"),
    (lambda: RewardModel(theta_hat="ab", lam=0.0, final_nll=0.0, converged=True, iterations=1),
     "feature vector: .*'ab'"),
    (lambda: ProxyLabels(w="ab"), "feature vector: .*'ab'"),
    (lambda: slate_array([["a"], ["b"]]), r"slate: .*\[\['a'\], \['b'\]\]"),
    (lambda: slate_array([RAGGED, RAGGED]), r"slate: .*\[\[\[0\], \[1, 2\]\], \[\[0\], \[1, 2\]\]\]"),
    (lambda: Dataset(voter=RAGGED, label=[1, 0], slate=TWO_POINTS, i0=[0, 0], i1=[1, 1]), r"voter: .*\[\[0\], \[1, 2\]\]"),
    (lambda: Dataset(voter=[0, 1], label=RAGGED, slate=TWO_POINTS, i0=[0, 0], i1=[1, 1]), r"label: .*\[\[0\], \[1, 2\]\]"),
    (lambda: Dataset(voter=[0, 1], label=[1, 0], slate=TWO_POINTS, i0=RAGGED, i1=[1, 1]), r"i0: .*\[\[0\], \[1, 2\]\]"),
], ids=["string", "string-item", "ragged", "point-mass", "voter", "reward-model", "proxy-labels", "slate",
        "ragged-slate-point", "voter-column", "label-column", "i0-column"])
def test_non_numeric_or_ragged_input_is_an_input_error_naming_it(build, named):
    """What numpy cannot make one array of numbers is an InputError naming the
    value or the column, not numpy's bare ValueError."""
    with pytest.raises(InputError, match=f"^{named}$"):
        build()
