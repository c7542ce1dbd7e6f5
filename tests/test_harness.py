import ast
import builtins
import csv
import importlib
import importlib.util
import inspect
import io
import json
import math
import pkgutil
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env, coordinate_dataset
import prefaudit
import prefaudit.cli
import prefaudit.axioms
import prefaudit.estimation
import prefaudit.pipeline
import prefaudit.serialize
from prefaudit.annotation import RoundRobin, UniformRandomPairs
from prefaudit.axioms import AxiomReport, ConsistencyScheme, _row_indices
from prefaudit.config import DEFAULTS, config_from_dict, load_config
from prefaudit.distortion import DistortionReport, SearchSpec
from prefaudit.errors import ConfigError, InputError
from prefaudit.estimation import DEFAULT_GRAD_TOL, DEFAULT_LAMBDA, DEFAULT_MAX_ITERS, fit_mle
from prefaudit.model import Dataset, RewardModel, Voters
from prefaudit.pipeline import STAGES, RunDir, child_seed, run_pipeline
from prefaudit.reports import ROW_FIELDS, emit_rows, emit_table, parse_rows, rows_from_reports
from prefaudit.serialize import (
    RECORDS_CHUNK,
    _index_texts,
    _row_texts,
    axiom_report_from_dict,
    distortion_report_from_dict,
    distortion_report_to_dict,
    load_json,
    model_from_dict,
    model_to_dict,
    read_model,
    read_records,
    read_slate,
    read_voters,
    write_axiom_reports,
    write_records,
    write_slate,
    write_voters,
)

MINIMAL = {
    "dimension": 2,
    "seed": 11,
    "population": {"kind": "point-mass", "theta": [1.0, -0.5]},
    "alternatives": {"kind": "uniform-box", "lo": 0, "hi": 1},
}

SMALL_RUN = {
    **MINIMAL,
    "num_voters": 6,
    "num_alternatives": 5,
    "annotation": {"pairs": {"kind": "round-robin", "repeats": 40}},
    "audit": {"epsilons": [0.0], "consistency": {"partitions": 2}},
    "distortion": {"delta": 1.0, "grid_resolution": 11},
}


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def _assert_wire_round_trip(obj, to_dict, from_dict, keys, unwritten=()):
    """to_dict(obj) has exactly the given keys, and from_dict of its JSON
    text equals obj on every field but the unwritten ones, compare=False
    fields included.
    """
    d = to_dict(obj)
    assert set(d) == keys
    back = from_dict(json.loads(json.dumps(d)))
    for name in _field_names(type(obj)) - set(unwritten):
        want, got = getattr(obj, name), getattr(back, name)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and np.array_equal(got, want), name
        else:
            assert got == want and type(got) is type(want), name


class TestLoadConfig:
    def test_minimal_gets_documented_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = load_config(path)
        assert cfg.lam == 1e-3
        assert cfg.epsilons == (0.0, 0.1, 0.5)
        assert cfg.consistency == ConsistencyScheme(num_blocks=2, min_fraction=0.4, num_partitions=10)
        # the echo carries every applied default
        assert cfg.raw["estimation"]["lambda"] == 1e-3
        assert cfg.raw["audit"]["consistency"]["partitions"] == 10

    def test_negative_variance_names_the_field(self):
        raw = dict(MINIMAL)
        raw["population"] = {"kind": "gaussian", "mean": [0, 0], "var": [1, -1]}
        with pytest.raises(ConfigError, match="config.population"):
            config_from_dict(raw)

    def test_bad_mixture_weights(self):
        raw = dict(MINIMAL)
        raw["population"] = {
            "kind": "mixture",
            "components": [
                {"weight": 0.5, "mean": [0, 0], "var": [1, 1]},
                {"weight": 0.4, "mean": [1, 1], "var": [1, 1]},
            ],
        }
        with pytest.raises(ConfigError, match="config.population"):
            config_from_dict(raw)

    @pytest.mark.parametrize("section, given, path", [
        ("estimation", {"lamda": 0.1}, "config.estimation.lamda"),
        ("audit", {"epsilon": [0.1]}, "config.audit.epsilon"),
        ("audit", {"consistency": {"partition": 3}}, "config.audit.consistency.partition"),
        ("distortion", {"grid_resoluton": 3}, "config.distortion.grid_resoluton"),
    ])
    def test_unknown_field_names_its_path(self, section, given, path):
        raw = {**MINIMAL, section: given}
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: unknown field$"):
            config_from_dict(raw)

    @pytest.mark.parametrize("annotation, path, kind", [
        ({"pairs": {"kind": "round-robin", "repeat": 60}},
         "config.annotation.pairs.repeat", "pair scheme 'round-robin'"),
        ({"pairs": {"kind": "uniform-random", "count": 10, "repeats": 2}},
         "config.annotation.pairs.repeats", "pair scheme 'uniform-random'"),
        ({"labels": {"kind": "true-reward", "w": [1.0, 1.0]}},
         "config.annotation.labels.w", "label scheme 'true-reward'"),
        ({"labels": {"kind": "proxy", "w": [1.0, 1.0], "weights": [1.0, 1.0]}},
         "config.annotation.labels.weights", "label scheme 'proxy'"),
    ])
    def test_unknown_scheme_field_names_its_path(self, annotation, path, kind):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: unknown field for {re.escape(kind)}$"):
            config_from_dict({**MINIMAL, "annotation": annotation})

    def test_unknown_annotation_field_names_its_path(self):
        with pytest.raises(ConfigError, match=r"^config\.annotation\.pair: unknown field$"):
            config_from_dict({**MINIMAL, "annotation": {"pair": {"kind": "round-robin"}}})

    def test_scheme_missing_required_field(self):
        with pytest.raises(ConfigError, match=r"^config\.annotation\.pairs\.count: missing"):
            config_from_dict({**MINIMAL, "annotation": {"pairs": {"kind": "uniform-random"}}})

    def test_echo_holds_only_the_chosen_kinds_fields(self):
        cfg = config_from_dict({**MINIMAL, "annotation": {
            "pairs": {"kind": "uniform-random", "count": 30},
            "labels": {"kind": "proxy", "w": [1.0, 0.5]},
        }})
        assert cfg.pair_scheme == UniformRandomPairs(count=30)
        assert cfg.raw["annotation"]["pairs"] == {"kind": "uniform-random", "count": 30}
        assert cfg.raw["annotation"]["labels"] == {"kind": "proxy", "w": [1.0, 0.5]}
        default = config_from_dict(MINIMAL)
        assert default.pair_scheme == RoundRobin(repeats=1)
        assert default.raw["annotation"]["pairs"] == {"kind": "round-robin", "repeats": 1}
        assert default.raw["annotation"]["labels"] == {"kind": "true-reward"}

    @pytest.mark.parametrize("section, given, message", [
        ("population", {"kind": "gaussian", "mean": [0, 0], "var": [1, 1], "varr": [1, 1]},
         "config.population.varr: unknown field for population kind 'gaussian'"),
        ("alternatives", {"kind": "uniform-box", "lo": 0, "hi": 1, "high": 2},
         "config.alternatives.high: unknown field for alternative space kind 'uniform-box'"),
        ("population", {"kind": "mixture", "components": [
            {"weight": 0.5, "mean": [0, 0], "var": [1, 1]},
            {"weight": 0.5, "wieght": 0.5, "mean": [1, 1], "var": [1, 1]}]},
         "config.population.components[1].wieght: unknown field"),
        ("population", {"kind": "mixture", "components": [{"mean": [0, 0], "var": [1, 1]}]},
         "config.population.components[0].weight: missing required field"),
    ])
    def test_spec_fields_are_checked(self, section, given, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict({**MINIMAL, section: given})

    def test_unknown_top_level_field_names_it(self):
        with pytest.raises(ConfigError, match=r"^config\.num_voter: unknown field$"):
            config_from_dict({**MINIMAL, "num_voter": 500})

    @pytest.mark.parametrize("override, message", [
        ({"num_voters": "ten"}, "config.num_voters: expected integer, got 'ten'"),
        ({"seed": 1.7}, "config.seed: expected integer, got 1.7"),
        ({"dimension": True}, "config.dimension: expected integer, got True"),
        ({"population": {"kind": "point-mass", "theta": "ab"}},
         "config.population.theta: expected array of number, got 'ab'"),
        ({"population": {"kind": "point-mass", "theta": [1.0, "x"]}},
         "config.population.theta[1]: expected number, got 'x'"),
        ({"alternatives": {"kind": "uniform-box", "lo": "0", "hi": 1}},
         "config.alternatives.lo: expected number or array of number, got '0'"),
        ({"estimation": {"lambda": "0.1"}}, "config.estimation.lambda: expected number, got '0.1'"),
        ({"distortion": {"enabled": "no"}}, "config.distortion.enabled: expected boolean, got 'no'"),
        ({"annotation": {"pairs": {"kind": "uniform-random", "count": 2.5}}},
         "config.annotation.pairs.count: expected integer, got 2.5"),
    ])
    def test_wrong_json_type_names_its_path(self, override, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict({**MINIMAL, **override})

    def test_documented_configs_load(self):
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text()
        configs = [json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))]
        workloads = json.loads((root / "perfbench" / "workloads.json").read_text())
        configs += [w["config"] for w in workloads["workloads"].values()]
        assert len(configs) == 3
        for raw in configs:
            cfg = config_from_dict(raw)
            # the echo is itself a config that loads to the same echo
            assert config_from_dict(cfg.raw).raw == cfg.raw

    @pytest.mark.parametrize("override, message", [
        ({"annotation": {"labels": {"kind": "proxy", "w": [1.0, 0.5, 1.5]}}},
         "config.annotation.labels.w: length 3 != experiment dimension 2"),
        ({"num_voters": -3}, "config.num_voters: must be >= 1, got -3"),
        ({"num_alternatives": 1}, "config.num_alternatives: must be >= 2, got 1"),
        ({"annotation": {"pairs": {"kind": "round-robin", "repeats": -2}}},
         "config.annotation.pairs: repeats must be >= 1, got -2"),
        ({"annotation": {"pairs": {"kind": "uniform-random", "count": 0}}},
         "config.annotation.pairs: count must be >= 1, got 0"),
        ({"estimation": {"grad_tol": -1}}, "config.estimation.grad_tol: must be finite and > 0, got -1"),
        ({"estimation": {"grad_tol": float("nan")}},
         "config.estimation.grad_tol: must be finite and > 0, got nan"),
        ({"estimation": {"max_iters": 0}}, "config.estimation.max_iters: must be >= 1, got 0"),
        ({"estimation": {"lambda": float("nan")}}, "config.estimation.lambda: must be finite and >= 0, got nan"),
        ({"audit": {"consistency": {"min_fraction": float("nan")}}},
         "config.audit.consistency: min_fraction must be in [0, 1/2] for 2 blocks, got nan"),
        ({"audit": {"consistency": {"partitions": -1}}},
         "config.audit.consistency: number of partitions must be >= 0, got -1"),
        ({"audit": {"consistency": {"blocks": 1}}},
         "config.audit.consistency: number of blocks must be >= 2, got 1"),
        ({"distortion": {"delta": float("nan")}}, "config.distortion.delta: must be >= 0, got nan"),
        ({"distortion": {"random_samples": -5}}, "config.distortion: random_samples must be >= 1, got -5"),
        ({"distortion": {"grid_resolution": 1}}, "config.distortion: grid_resolution must be >= 2, got 1"),
        ({"distortion": {"bound": float("inf")}},
         "config.distortion: bound must be finite and positive, got inf"),
        ({"distortion": {"w_mode": "bogus"}}, "config.distortion: unknown w_mode 'bogus'"),
        ({"distortion": {"w_lo": 3.0}}, "config.distortion: need finite w_lo <= w_hi, got 3.0 and 2.0"),
        ({"audit": {"consistency": {"min_fraction": 0.6}}},
         "config.audit.consistency: min_fraction must be in [0, 1/2] for 2 blocks, got 0.6"),
        ({"alternatives": {"kind": "explicit-slate", "points": [[0.5, 0.5]]}},
         "config.alternatives.points: need at least 2 distinct points, got 1"),
        ({"alternatives": {"kind": "explicit-slate", "points": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]}},
         "config.alternatives.points: need at least 2 distinct points, got 1"),
        ({"alternatives": {"kind": "uniform-box", "lo": 0.5, "hi": 0.5}},
         "config.alternatives.hi: need hi > lo on some coordinate, got hi == lo on every coordinate"),
        ({"alternatives": {"kind": "gaussian", "mean": [0.5, 0.5], "var": [0, 0]}},
         "config.alternatives.var: need a positive entry, got 0 on every coordinate"),
        ({"audit": {"epsilons": []}}, "config.audit.epsilons: need at least one entry"),
        ({"population": {"kind": "mixture", "components": [
            {"weight": 0.5, "mean": [0, 0], "var": [1, 1]},
            {"weight": float("nan"), "mean": [1, 1], "var": [1, 1]}]}},
         "config.population: mixture weights must be positive"),
        ({"population": {"kind": "mixture", "components": [
            {"weight": 0.5, "mean": [0, 0], "var": [1, 1]},
            {"weight": 0.5, "mean": [1, 1], "var": [1, -1]}]}},
         "config.population: gaussian variance entries must be >= 0"),
        ({"population": {"kind": "mixture", "components": [
            {"weight": 1.0, "mean": [0, 0], "var": [1, 1, 1]}]}},
         "config.population: gaussian mean and variance dimensions differ"),
    ])
    def test_out_of_range_value_names_its_path(self, override, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict({**MINIMAL, **override})

    def test_non_finite_epsilon_names_its_path(self, tmp_path):
        # Python's json reads NaN and Infinity, so a config file can carry them
        for token in ("NaN", "Infinity", "-Infinity"):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(MINIMAL)[:-1] + f', "audit": {{"epsilons": [0.1, {token}]}}}}')
            with pytest.raises(ConfigError, match=r"^config\.audit\.epsilons: "):
                load_config(path)
            with pytest.raises(ConfigError, match=r"^config\.audit\.epsilons: "):
                config_from_dict({**MINIMAL, "audit": {"epsilons": [float(token.lower())]}})

    def test_round_robin_repeats_is_used(self):
        cfg = config_from_dict(SMALL_RUN)
        assert cfg.pair_scheme == RoundRobin(repeats=40)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="config.distortion: must be a JSON object"):
            config_from_dict({**MINIMAL, "distortion": 5})

    def test_missing_seed(self):
        raw = {k: v for k, v in MINIMAL.items() if k != "seed"}
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(raw)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "dimension": 2,\n  oops\n}')
        with pytest.raises(ConfigError, match=":3"):
            load_config(path)


class TestRecordWireFormat:
    def test_round_trip_exact(self, tmp_path, rng):
        rows = []
        for _ in range(20):
            rows.append((int(rng.integers(0, 5)), rng.normal(size=3), rng.normal(size=3),
                         int(rng.integers(0, 2))))
        voter, a0, a1, label = zip(*rows)
        datasets = [
            coordinate_dataset(voter, label, a0, a1),
            coordinate_dataset([0], [1], [[0.1, 0.2, 0.3]], [[1.0, 2.0, 3.0]], scheme="proxy", w=[0.5, 1.5, 2.5]),
        ]
        path = tmp_path / "data.records"
        for records in datasets:
            write_records(path, records)
            back = read_records(path, records.slate)
            assert back == records
            for name in ("i0", "i1"):
                assert back.slate[getattr(back, name)].tobytes() == records.slate[getattr(records, name)].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 5), proxy=st.booleans())
    def test_line_round_trip_is_exact(self, data, d, n, proxy):
        vec = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d)
        rows = st.lists(vec, min_size=n, max_size=n)
        records = coordinate_dataset(
            data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n)),
            data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
            data.draw(rows), data.draw(rows),
            scheme="proxy" if proxy else "true-reward",
            w=data.draw(vec) if proxy else None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.records"
            write_records(path, records)
            back = read_records(path, records.slate)
        assert back == records
        for name in ("voter", "label", "w"):
            assert getattr(back, name) is None or getattr(back, name).tobytes() == getattr(records, name).tobytes()
        for name in ("i0", "i1"):
            assert back.slate[getattr(back, name)].tobytes() == records.slate[getattr(records, name)].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), proxy=st.booleans(), n=st.integers(1, 30) | st.sampled_from(
        [RECORDS_CHUNK - 1, RECORDS_CHUNK, RECORDS_CHUNK + 1, 2 * RECORDS_CHUNK + 1]))
    def test_write_equals_a_per_line_writer(self, data, d, n, proxy):
        """Slates with repeated points, and with 0.0 beside -0.0, and repeated,
        negative, non-contiguous and 2**31-or-larger voter ids, in files of up to
        and past a chunk of records and of two, write the bytes of a writer that
        formats every field of every line, and read back as the dataset."""
        coordinate = st.sampled_from([0.0, -0.0, 1.0, 1 / 3]) | st.floats(allow_nan=False, allow_infinity=False)
        vec = st.lists(coordinate, min_size=d, max_size=d)
        slate = data.draw(st.lists(vec, min_size=2, max_size=4))
        # a small pool of ids, so voters repeat, with both ends of the int64 range
        pool = [-2**63, -1, 7, 2**31, 2**63 - 1, *data.draw(st.lists(st.integers(-2**63, 2**63 - 1), max_size=2))]
        row = st.integers(0, len(slate) - 1)
        # up to 30 drawn records, repeated in turn to fill n (drawing 1,025 is slow)
        drawn = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 1), row, row), min_size=1,
                                   max_size=min(n, 30)))
        voter, label, i0, i1 = zip(*(drawn[k % len(drawn)] for k in range(n)))
        records = Dataset(voter=voter, label=label, slate=slate, i0=i0, i1=i1,
                          scheme="proxy" if proxy else "true-reward", w=data.draw(vec) if proxy else None)

        def coords(a):
            return ",".join(f"{float(x):.17g}" for x in a)

        tail = f" w={coords(records.w)}" if proxy else ""
        expected = "".join(
            f"voter={v} label={y} scheme={records.scheme} a0={coords(slate[i])} a1={coords(slate[j])}{tail}\n"
            for v, y, i, j in zip(records.voter, records.label, records.i0, records.i1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.records"
            write_records(path, records)
            text = path.read_text()
            # as lines first: pytest explains a differing line cheaply, a 1,025-line string slowly
            assert text.splitlines() == expected.splitlines()
            assert text == expected
            back = read_records(path, records.slate)
        # each point reads back as the first slate row that holds its bytes
        first = {}
        for k, p in enumerate(records.slate):
            first.setdefault(p.tobytes(), k)
        assert back.i0.tolist() == [first[records.slate[i].tobytes()] for i in records.i0]
        assert back.i1.tolist() == [first[records.slate[i].tobytes()] for i in records.i1]
        assert back == records

    def test_malformed_json_names_the_path(self, tmp_path):
        path = tmp_path / "axioms.json"
        path.write_text("[{")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: "):
            load_json(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "data.records"
        path.write_text("voter=0 label=1 scheme=true-reward a0=1 a1=2\n"
                        "voter=0 label=x scheme=true-reward a0=1 a1=2\n")
        with pytest.raises(InputError, match=":2: malformed record line"):
            read_records(path, [[1.0], [2.0]])

    def test_mixed_schemes_name_the_line(self, tmp_path):
        path = tmp_path / "data.records"
        path.write_text("voter=0 label=1 scheme=proxy a0=1 a1=2 w=0.5\n"
                        "voter=1 label=0 scheme=proxy a0=1 a1=2 w=0.5\n"
                        "voter=2 label=0 scheme=true-reward a0=1 a1=2\n")
        with pytest.raises(InputError, match=":3: record disagrees with the first record"):
            read_records(path, [[1.0], [2.0]])

    @pytest.mark.parametrize("line, name", [
        ("voter=0 label=1 scheme=true-reward a0=3 a1=2", "a0"),  # not in the slate
        ("voter=0 label=1 scheme=true-reward a0=1 a1=-0", "a1"),  # -0.0 is not the slate's 0.0
        ("voter=0 label=1 scheme=true-reward a0=1,2 a1=2", "a0"),  # of another dimension
        ("voter=0 label=1 scheme=true-reward a0=1 a1=nan", "a1"),
    ])
    def test_a_point_the_slate_does_not_hold_names_the_line(self, tmp_path, line, name):
        path = tmp_path / "data.records"
        path.write_text(f"voter=0 label=1 scheme=true-reward a0=1 a1=2\n{line}\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:2: {name} is not a point of the slate$"):
            read_records(path, [[1.0], [2.0], [0.0]])

    @pytest.mark.parametrize("read", [
        lambda path: read_records(path, [[1.0], [2.0]]), read_slate, read_voters, read_model,
    ], ids=["read_records", "read_slate", "read_voters", "read_model"])
    def test_missing_file_names_the_path(self, tmp_path, read):
        path = tmp_path / "missing"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: No such file"):
            read(path)

    def test_line_shape(self, tmp_path):
        path = tmp_path / "data.records"
        write_records(path, coordinate_dataset([3], [0], [[1.0]], [[2.0]]))
        line = path.read_text()
        assert line.startswith("voter=3 label=0 scheme=true-reward")

    def test_each_write_holds_at_most_a_chunk_of_records(self, tmp_path, monkeypatch):
        """write_records never joins the whole file: 2 * RECORDS_CHUNK + 1
        records go out as two writes of RECORDS_CHUNK lines and one of one."""
        lines = []

        def recording_open(path, mode="r"):
            fh = builtins.open(path, mode)
            write = fh.write
            fh.write = lambda text: (lines.append(text.count("\n")), write(text))[1]
            return fh

        monkeypatch.setattr(prefaudit.serialize, "open", recording_open, raising=False)
        n = 2 * RECORDS_CHUNK + 1
        records = Dataset(voter=np.arange(n) % 7, label=np.arange(n) % 2, slate=[[0.0], [1.0]],
                          i0=np.zeros(n, dtype=int), i1=np.ones(n, dtype=int))
        write_records(tmp_path / "data.records", records)
        assert lines == [RECORDS_CHUNK, RECORDS_CHUNK, 1]
        assert read_records(tmp_path / "data.records", records.slate) == records


# Finite floats, with the ones whose text is easiest to get wrong: a signed
# zero, the smallest subnormal, and the edges of repr's fixed notation
_json_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 9999999999999998.0, 0.0001]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(_json_floats, min_size=d, max_size=d), min_size=2, max_size=6)), st.data())
def test_slate_and_voters_files_hold_the_indented_json_encoders_text(rows, data):
    """write_slate and write_voters fill one row template; their files must be
    byte for byte what json.dump with indent=2 and sorted keys writes."""
    n = data.draw(st.integers(1, len(rows)))
    ids = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n, unique=True)
                    | st.just([2**63 - 1 - k for k in range(n)]))
    want = {"slate.json": rows, "voters.json": [{"voter_id": i, "theta": t} for i, t in zip(ids, rows)]}
    with tempfile.TemporaryDirectory() as tmp:
        write_slate(Path(tmp) / "slate.json", np.array(rows))
        write_voters(Path(tmp) / "voters.json", Voters(ids=ids, thetas=rows[:n]))
        for name, value in want.items():
            assert (Path(tmp) / name).read_text() == json.dumps(value, indent=2, sort_keys=True) + "\n", name


class TestDistortionReportWireFormat:
    @pytest.mark.parametrize("report", [
        DistortionReport(slate_size=4, learned_winner=2, regret=0.125,
                         worst_theta=np.array([0.1, -2.0]), worst_w=np.array([1.0, 0.5]),
                         delta=0.5, metadata={"consistent_count": 3, "best_nll": 12.5}),
        DistortionReport(slate_size=3, learned_winner=0, regret=None,
                         worst_theta=None, worst_w=None, delta=0.0, metadata={}),
    ])
    def test_round_trip(self, report):
        _assert_wire_round_trip(report, distortion_report_to_dict, distortion_report_from_dict,
                                _field_names(DistortionReport))


class TestChildSeed:
    def test_stable(self):
        assert child_seed(42, "voters") == child_seed(42, "voters")

    def test_distinct_across_stages(self):
        seeds = {child_seed(42, s) for s in ("voters", "alternatives", "annotate", "consistency")}
        assert len(seeds) == 4

    def test_distinct_across_roots(self):
        assert child_seed(1, "voters") != child_seed(2, "voters")


class TestPipeline:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = config_from_dict(SMALL_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_pipeline(cfg, out1)
        run_pipeline(cfg, out2)
        for name in ("dataset.records", "slate.json", "voters.json",
                     "model.json", "axioms.json", "distortion.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_manifest_records_defaults_and_seeds(self, tmp_path):
        cfg = config_from_dict(SMALL_RUN)
        run = run_pipeline(cfg, tmp_path / "run")
        manifest = run.manifest
        assert manifest["config"]["estimation"]["lambda"] == 1e-3
        assert manifest["seeds"]["voters"] == child_seed(11, "voters")
        assert set(manifest["stages"]) == {"simulate", "fit", "audit", "distort"}
        # the search's counts, as its report's metadata holds them
        distort, metadata = manifest["stages"]["distort"], run.distortion.metadata
        assert distort == {"regret": run.distortion.regret, "learned_winner": run.distortion.learned_winner,
                           "hypotheses_evaluated": metadata["hypotheses_evaluated"],
                           "consistent_count": metadata["consistent_count"]}
        assert 1 <= distort["consistent_count"] <= distort["hypotheses_evaluated"] == 11 ** cfg.dimension

    def test_manifest_records_stage_seconds(self, tmp_path):
        manifest = run_pipeline(config_from_dict(SMALL_RUN), tmp_path / "run").manifest
        seconds = manifest["stage_seconds"]
        assert list(seconds) == list(STAGES)
        assert all(s >= 0 for s in seconds.values())
        assert sum(seconds.values()) <= manifest["wall_clock_s"]
        written = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert written["stage_seconds"] == seconds
        assert "stage_seconds" not in written["stages"]

    def test_block_models_are_fitted_once_for_every_epsilon(self, tmp_path, monkeypatch):
        fits = []  # the number of fits in each call of the kernel

        def counting_fit(deltas, counts, *args):
            fits.append(len(counts))
            return fit_counts(deltas, counts, *args)

        fit_counts = prefaudit.estimation._fit_counts
        monkeypatch.setattr(prefaudit.estimation, "_fit_counts", counting_fit)
        monkeypatch.setattr(prefaudit.axioms, "_fit_counts", counting_fit)
        raw = {**SMALL_RUN, "audit": {"epsilons": [0.0, 0.1, 0.5], "consistency": {"partitions": 3}}}
        run = run_pipeline(config_from_dict(raw), tmp_path / "run", stages=("simulate", "fit", "audit"))
        assert run.manifest["stages"]["audit"]["reports"] == 9
        reports = json.loads((tmp_path / "run" / "axioms.json").read_text())
        assert all(r["metadata"]["skipped_partitions"] == 0 for r in reports if r["axiom"] == "consistency")
        # the main fit, then 3 partitions x 2 blocks in one batch, whatever the number of epsilons
        assert fits == [1, 3 * 2]

    def test_manifest_reports_the_final_gradients(self, tmp_path):
        run = run_pipeline(config_from_dict(SMALL_RUN), tmp_path / "run", stages=("simulate", "fit", "audit"))
        stages = run.manifest["stages"]
        assert 0 < stages["fit"]["grad_norm"] == run.model.grad_norm <= 1e-8
        consistency = [r for r in run.axioms if r.axiom == "consistency"]
        assert 0 < stages["audit"]["block_grad_norm"] == consistency[0].metadata["block_grad_norm"] <= 1e-8
        assert json.loads((tmp_path / "run" / "model.json").read_text())["grad_norm"] == run.model.grad_norm

    def test_disabled_distortion_skipped(self, tmp_path):
        raw = dict(SMALL_RUN)
        raw["distortion"] = {"enabled": False}
        run = run_pipeline(config_from_dict(raw), tmp_path / "run")
        assert run.manifest["stages"]["distort"] == {"skipped": True}
        assert run.distortion is None
        assert not (tmp_path / "run" / "distortion.json").exists()


_TEXT = st.sampled_from(['"quoted"', "back\\slash", "θ̂ ≠ 0 — é", ""]) | st.text(max_size=8)


@st.composite
def _axiom_report(draw):
    """A report over a slate of up to 60: no dominated pair, some, or every
    one, each violated with some chance, and metadata with escaped text."""
    m = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dominated = (rng.random((m, m)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))) & ~np.eye(m, dtype=bool)
    violated = dominated & (rng.random((m, m)) < draw(st.sampled_from([0.0, 0.2, 1.0])))
    value = _TEXT | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()
    return AxiomReport(
        axiom=draw(_TEXT), epsilon=draw(st.floats(0, 1e300)), dominated=dominated, violated=violated,
        passed=not violated.any(),
        min_margin=draw(st.sampled_from([None, -0.0, 1e300]) | st.floats(allow_nan=False, allow_infinity=False)),
        metadata=draw(st.dictionaries(_TEXT, value | st.lists(value, max_size=2), max_size=3)))


def _entry(report) -> dict:
    """The axioms.json entry of a report, built from its masks alone."""
    head = {"axiom": report.axiom, "epsilon": report.epsilon, "metadata": report.metadata,
            "min_margin": report.min_margin, "passed": report.passed, "slate_size": len(report.dominated),
            "vacuous": not report.dominated.any()}
    anchors = [{"anchor": i, "dominated": np.flatnonzero(dom).tolist(), "vacuous": not dom.any(),
                "violations": [[i, j] for j in np.flatnonzero(bad).tolist()]}
               for i, (dom, bad) in enumerate(zip(report.dominated, report.violated))]
    return {**head, "anchors": anchors}


def _written_entry(report) -> dict:
    """The axioms.json entry write_axiom_reports writes for a report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "axioms.json"
        write_axiom_reports(path, [report])
        return load_json(path)[0]


@st.composite
def _mask(draw):
    """A square bool mask of 1-12 or 99-110 rows (index texts of 1 to 3 digits):
    cells set at some density, then some rows cleared and some filled."""
    m = draw(st.integers(1, 12) | st.integers(99, 110))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((m, m)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    mask[rng.random(m) < draw(st.sampled_from([0.0, 0.3]))] = False
    mask[rng.random(m) < draw(st.sampled_from([0.0, 0.3]))] = True
    return mask


# an axioms.json entry over 2 alternatives: 0 dominates 1, and the pair is violated
ENTRY = {"axiom": "condorcet", "epsilon": 0.0, "metadata": {}, "min_margin": -0.5, "passed": False,
         "slate_size": 2, "vacuous": False,
         "anchors": [{"anchor": 0, "dominated": [1], "vacuous": False, "violations": [[0, 1]]},
                     {"anchor": 1, "dominated": [], "vacuous": True, "violations": []}]}


class TestReports:
    @staticmethod
    def _reports(tmp_path):
        cfg = config_from_dict(SMALL_RUN)
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        return [axiom_report_from_dict(d) for d in json.loads((out / "axioms.json").read_text())]

    def test_rows_round_trip(self, tmp_path):
        reports = self._reports(tmp_path)
        rows = rows_from_reports(reports)
        assert parse_rows(emit_rows(rows)) == rows

    def test_rows_text_equals_a_dict_writers(self):
        """emit_rows formats each row's epsilon and margin, also where they
        equal the row before's as other objects (so 0.0 and -0.0 stay apart),
        and quotes as csv.DictWriter does."""
        eps, third = 0.1, 1 / 3  # one report's rows share these objects
        cells = [(eps, None), (eps, None), (eps, third), (0.0, -0.0), (-0.0, 0.0), (-0.0, 0.0), (0.5, third)]
        rows = [{"axiom": 'a,"b"' if k == 2 else "unanimity", "epsilon": e, "anchor": k, "status": "FAIL",
                 "dominated": "1;2", "violations": f"{k}>1;{k}>2", "margin": m} for k, (e, m) in enumerate(cells)]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS)
        writer.writeheader()
        for r in rows:
            writer.writerow({**r, "epsilon": f"{r['epsilon']:.17g}",
                             "margin": "" if r["margin"] is None else f"{r['margin']:.17g}"})
        assert emit_rows(rows) == buf.getvalue()
        assert parse_rows(emit_rows(rows)) == rows

    def test_table_marks_status(self, tmp_path):
        reports = self._reports(tmp_path)
        table = emit_table(reports)
        assert any(tok in table for tok in ("PASS", "FAIL", "VACUOUS"))

    def test_report_dict_round_trip(self, tmp_path):
        failed = AxiomReport(
            axiom="consistency", epsilon=0.1,
            dominated=[[False, True, True], [False, False, False], [False, True, False]],
            violated=[[False, False, True], [False, False, False], [False, False, False]],
            passed=False, min_margin=-0.25,
            metadata={"diagnostic": "no usable voter partition of 2", "skipped_partitions": 2},
        )
        keys = {"axiom", "epsilon", "slate_size", "anchors", "passed", "min_margin", "metadata", "vacuous"}
        for report in [*self._reports(tmp_path), failed]:
            _assert_wire_round_trip(report, _written_entry, axiom_report_from_dict, keys)
            entry = _written_entry(report)
            assert entry == _entry(report)
            for anchor in entry["anchors"]:
                assert set(anchor) == {"anchor", "dominated", "vacuous", "violations"}

    @pytest.mark.parametrize("anchors, message", [
        (ENTRY["anchors"][::-1], r"anchors must be 0\.\.1 in order"),
        (ENTRY["anchors"][:1], r"anchors must be 0\.\.1 in order"),
        ([{**ENTRY["anchors"][0], "dominated": [7], "violations": []}, ENTRY["anchors"][1]],
         r"anchor 0: a dominated index is outside \[0, 2\)"),
        ([{**ENTRY["anchors"][0], "dominated": [-1], "violations": []}, ENTRY["anchors"][1]],
         r"anchor 0: a dominated index is outside \[0, 2\)"),
        ([{**ENTRY["anchors"][0], "violations": [[5, -1]]}, ENTRY["anchors"][1]],
         r"anchor 0: violations must be distinct \[0, j\] with j in its dominated list"),
        ([ENTRY["anchors"][0], {**ENTRY["anchors"][1], "violations": [[1, 0]]}],
         r"anchor 1: violations must be distinct \[1, j\] with j in its dominated list"),
        ([{**ENTRY["anchors"][0], "violations": [[0, 1], [0, 1]]}, ENTRY["anchors"][1]],
         r"anchor 0: violations must be distinct \[0, j\] with j in its dominated list"),
        ([{**ENTRY["anchors"][0], "dominated": [1, 1]}, ENTRY["anchors"][1]],
         r"anchor 0: dominated \[1, 1\] is not increasing or holds the anchor"),
        ([ENTRY["anchors"][0], {**ENTRY["anchors"][1], "dominated": [1], "vacuous": False}],
         r"anchor 1: dominated \[1\] is not increasing or holds the anchor"),
        ([{**ENTRY["anchors"][0], "vacuous": True}, ENTRY["anchors"][1]],
         r"anchor 0: vacuous is True beside dominated \[1\]"),
        ([ENTRY["anchors"][0], {**ENTRY["anchors"][1], "vacuous": False}],
         r"anchor 1: vacuous is False beside dominated \[\]"),
        ([ENTRY["anchors"][0], {**ENTRY["anchors"][1], "margin": 0.5}], "anchor 1: keys must be"),
    ], ids=["out-of-order", "too-few", "index-above", "index-negative", "violation-elsewhere",
            "violation-not-dominated", "violation-twice", "index-twice", "anchor-dominates-itself",
            "vacuous-beside-dominated", "not-vacuous-beside-none", "unknown-key"])
    def test_the_reader_rejects_a_malformed_anchor(self, anchors, message):
        assert axiom_report_from_dict(ENTRY) == AxiomReport(
            axiom="condorcet", epsilon=0.0, dominated=[[False, True], [False, False]],
            violated=[[False, True], [False, False]], passed=False, min_margin=-0.5)
        with pytest.raises(InputError, match=f"^{message}"):
            axiom_report_from_dict({**ENTRY, "anchors": anchors})

    @pytest.mark.parametrize("column", [1.0, True, "1", [1], None])
    def test_the_reader_rejects_a_violation_column_that_is_not_an_integer(self, column):
        anchors = [{**ENTRY["anchors"][0], "violations": [[0, column]]}, ENTRY["anchors"][1]]
        with pytest.raises(InputError, match=r"^anchor 0: violations must be distinct \[0, j\]"):
            axiom_report_from_dict({**ENTRY, "anchors": anchors})

    def test_the_reader_reads_an_all_violated_report_back(self, tmp_path):
        every = ~np.eye(200, dtype=bool)
        report = AxiomReport(axiom="condorcet", epsilon=0.0, dominated=every, violated=every, passed=False,
                             min_margin=-1.0)
        write_axiom_reports(tmp_path / "axioms.json", [report])
        assert [axiom_report_from_dict(d) for d in load_json(tmp_path / "axioms.json")] == [report]

    @pytest.mark.parametrize("entry, message", [
        ({**ENTRY, "vacuous": True}, "vacuous is True, but 1 pairs are dominated"),
        ({**ENTRY, "anchors": [{**ENTRY["anchors"][0], "dominated": [], "vacuous": True, "violations": []},
                               ENTRY["anchors"][1]], "passed": True}, "vacuous is False, but 0 pairs are dominated"),
    ], ids=["vacuous-beside-a-dominated-pair", "not-vacuous-beside-none"])
    def test_the_reader_rejects_a_report_vacuous_flag_that_disagrees_with_the_anchors(self, entry, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            axiom_report_from_dict(entry)

    @pytest.mark.parametrize("missing", ["slate_size", "anchors", "vacuous", "epsilon", "passed"])
    def test_the_reader_rejects_a_missing_or_unknown_report_key(self, missing):
        with pytest.raises((KeyError, TypeError), match=missing):
            axiom_report_from_dict({k: v for k, v in ENTRY.items() if k != missing})
        with pytest.raises(TypeError, match="unexpected keyword argument 'anchor_count'"):
            axiom_report_from_dict({**ENTRY, "anchor_count": 2})

    def test_axiom_reports_file_round_trip(self, tmp_path):
        vacuous = AxiomReport(
            axiom="unanimity", epsilon=0.0, dominated=np.zeros((2, 2), dtype=bool),
            violated=np.zeros((2, 2), dtype=bool), passed=True, min_margin=None, metadata={"voter_count": 3},
        )
        quoted = AxiomReport(
            axiom="consistency", epsilon=0.5, dominated=[[False, True], [False, False]],
            violated=[[False, True], [False, False]], passed=False, min_margin=-0.75,
            metadata={"diagnostic": 'a block fit did not converge ("max_iters" — θ̂ ≠ 0\\)', "skipped_partitions": 1},
        )
        for reports in ([*self._reports(tmp_path), vacuous, quoted], [vacuous], []):
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            write_axiom_reports(first, reports)
            write_axiom_reports(second, reports)
            assert first.read_bytes() == second.read_bytes()
            value = load_json(first)
            assert value == [_entry(r) for r in reports]
            back = [axiom_report_from_dict(d) for d in value]
            assert back == reports
            assert [r.metadata for r in back] == [r.metadata for r in reports]
            # [, a line per report and per anchor, ]
            lines = first.read_text().splitlines()
            assert len(lines) == 2 + len(reports) + sum(len(r.dominated) for r in reports)

    @settings(max_examples=100, deadline=None)
    @given(reports=st.lists(_axiom_report(), max_size=3))
    def test_axiom_reports_file_equals_a_json_module_writer(self, reports):
        """The file holds the bytes of a writer built from json.dumps alone, one
        call per report head and per anchor, in the same layout."""
        def dumps(value):
            return json.dumps(value, sort_keys=True, separators=(",", ":"))

        blocks = []
        for r in reports:
            head = _entry(r)
            anchors = [dumps(anchor) for anchor in head.pop("anchors")]
            blocks.append(f'\n{dumps(head)[:-1]},"anchors":[' + ",".join("\n" + a for a in anchors) + "]}")
        expected = "[" + ",".join(blocks) + "\n]\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "axioms.json"
            write_axiom_reports(path, reports)
            assert path.read_bytes() == expected.encode()

    @settings(max_examples=100, deadline=None)
    @given(masks=st.lists(_mask(), min_size=1, max_size=3), sep=st.sampled_from([",", ";"]))
    def test_row_texts_join_each_anchors_index_lists(self, masks, sep):
        """Over reports whose slate sizes differ, each mask's row texts are its
        anchors' column indices joined by sep, and the CSV rows cut from them
        are the rows built anchor by anchor."""
        reports = [AxiomReport(axiom="unanimity", epsilon=0.5, dominated=mask, violated=mask & mask.T,
                               passed=not (mask & mask.T).any(), min_margin=None) for mask in masks]
        texts = _index_texts(reports)
        assert texts == [str(k) for k in range(max(map(len, masks)))]
        for r in reports:
            for mask, column in ((r.dominated, 0), (r.violated, 1)):
                want = [sep.join(map(str, row)) for row in _row_indices(mask)]
                assert _row_texts(mask, texts, sep) == want == [sep.join(map(str, a[column])) for a in r.anchors]
        assert rows_from_reports(reports) == [
            {"axiom": r.axiom, "epsilon": r.epsilon, "anchor": i,
             "status": "FAIL" if bad else "PASS" if dom else "VACUOUS", "dominated": ";".join(map(str, dom)),
             "violations": ";".join(f"{i}>{j}" for j in bad), "margin": None}
            for r in reports for i, (dom, bad) in enumerate(r.anchors)]

    def test_model_dict_round_trip(self):
        model = RewardModel(theta_hat=[0.5, -1.25], lam=1e-3, final_nll=12.5, converged=False,
                            iterations=7, diagnostic="gradient tolerance 1e-06 not reached in 7 iterations",
                            grad_norm=3.5e-3, nll_history=(14.0, 13.0, 12.5))
        keys = _field_names(RewardModel) - {"lam", "nll_history"} | {"lambda"}
        _assert_wire_round_trip(model, model_to_dict, model_from_dict, keys, unwritten=["nll_history"])
        assert model_from_dict(model_to_dict(model)).nll_history == ()
        # a model.json written before the fit reported its final gradient still reads
        assert "grad_norm" not in MODEL_JSON and model_from_dict(MODEL_JSON).grad_norm is None


MODEL_JSON = {"theta_hat": [1.0, -0.5], "lambda": 1e-3, "final_nll": 1.0, "converged": True,
              "iterations": 3, "diagnostic": ""}


# Loads a config ("load") or runs it, printing the reports as a "table" or as
# "rows", then prints whether numpy.ma was imported
_NUMPY_MA_PROBE = """
import sys
from prefaudit.cli import main
from prefaudit.config import load_config
if sys.argv[1] == "load":
    load_config(sys.argv[2])
else:
    main(["--config", sys.argv[2], "--out", sys.argv[3], "--format", sys.argv[1], "run"])
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("case", ["explicit-slate", "grid-d3", "large-n", "large-n-rows"])
def test_no_run_imports_numpy_ma(tmp_path, case):
    """numpy.ma costs 10-14 ms of a fresh process; numpy 2.4 imports it on
    the first np.unique without return_index. A whole `prefaudit run` of each
    benchmark workload, printing either report format, must not."""
    if case == "explicit-slate":
        action, raw = "load", {**MINIMAL, "alternatives": {"kind": "explicit-slate", "points": [[0.0, 1.0], [1.0, 0.0]]}}
    else:
        workloads = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json").read_text())
        action = "rows" if case.endswith("-rows") else "table"
        raw = workloads["workloads"][case.removesuffix("-rows")]["config"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    result = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE, action, str(cfg_path), str(tmp_path / "out")],
                            capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


class TestCli:
    @staticmethod
    def _run(args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "prefaudit.cli", *args],
            capture_output=True, text=True, cwd=cwd, env=cli_env(),
        )

    def test_run_and_verify(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        result = self._run(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "run"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "distortion" in result.stdout
        result = self._run(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "verify"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout

    def test_verify_on_a_new_directory_reads_back_no_records(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        reads = []
        read = prefaudit.pipeline.read_records

        def counted(path, slate):
            reads.append(path)
            return read(path, slate)

        monkeypatch.setattr(prefaudit.pipeline, "read_records", counted)
        assert prefaudit.cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "verify"]) == 0
        assert "brute-force MLE grid NLL" in capsys.readouterr().out
        assert reads == []

    def test_verify_checks_the_margin_and_calls_each_audit_once(self, tmp_path, monkeypatch, capsys):
        config = config_from_dict(SMALL_RUN)
        run_pipeline(config, tmp_path / "run", stages=("simulate", "fit"))
        calls = []

        def counted(audit):
            def wrapped(*args):
                calls.append(audit.__name__)
                return audit(*args)
            return wrapped

        for name in ("audit_unanimity", "audit_condorcet"):
            monkeypatch.setattr(prefaudit.cli, name, counted(getattr(prefaudit.cli, name)))
        assert prefaudit.cli._verify(config, RunDir(tmp_path / "run")) == 0
        assert sorted(calls) == ["audit_condorcet", "audit_unanimity"]

        oracle = prefaudit.cli.exhaustive_axiom_check

        def shifted_margin(*args):
            report = oracle(*args)
            return replace(report, min_margin=report.min_margin + 1e-12)

        monkeypatch.setattr(prefaudit.cli, "exhaustive_axiom_check", shifted_margin)
        capsys.readouterr()
        assert prefaudit.cli._verify(config, RunDir(tmp_path / "run")) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["unanimity audit vs exhaustive oracle (eps=0): FAIL",
                              "condorcet audit vs exhaustive oracle (eps=0): FAIL"]

    def test_verify_fails_a_final_nll_off_by_one_part_in_a_million(self, tmp_path, capsys):
        """The fit's final_nll is checked against the oracle's own NLL at
        theta_hat, so a model.json whose final_nll is 1e-6 too high fails
        though the grid optimum still lies above it."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        args = ["--config", str(cfg_path), "--out", str(tmp_path / "out"), "verify"]
        assert prefaudit.cli.main(args) == 0
        model = load_json(tmp_path / "out" / "model.json")
        model["final_nll"] *= 1 + 1e-6
        (tmp_path / "out" / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        assert prefaudit.cli.main(args) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("fit NLL ") and lines[0].endswith("(rtol 1e-9): FAIL")
        assert [line for line in lines if line.endswith("FAIL")] == lines[:1]

    def test_verify_checks_the_model_at_its_own_lambda(self, tmp_path, capsys):
        """A run fitted at lambda 1e-3 verifies under a config that says 1e-2:
        both NLL checks take the lambda the model was fitted at."""
        out = tmp_path / "out"
        run_pipeline(config_from_dict({**SMALL_RUN, "estimation": {"lambda": 1e-3}}), out)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_RUN, "estimation": {"lambda": 1e-2}}))
        capsys.readouterr()
        assert prefaudit.cli.main(["--config", str(cfg_path), "--out", str(out), "verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and all(line.endswith(": OK") for line in lines)

    def test_stage_commands_write_what_run_writes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        for stage in STAGES:
            result = self._run(["--config", str(cfg_path), "--out", str(staged), stage], tmp_path)
            assert result.returncode == 0, result.stderr
        result = self._run(["--config", str(cfg_path), "--out", str(whole), "run"], tmp_path)
        assert result.returncode == 0, result.stderr
        for name in ("dataset.records", "slate.json", "voters.json",
                     "model.json", "axioms.json", "distortion.json"):
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), name

    def test_rows_format(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        out = str(tmp_path / "out")
        result = self._run(["--config", str(cfg_path), "--out", out, "run"], tmp_path)
        assert result.returncode == 0, result.stderr
        result = self._run(["--config", str(cfg_path), "--out", out, "--format", "rows", "audit"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "axiom,epsilon,anchor,status,dominated,violations,margin"

    def test_validation_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        bad = dict(SMALL_RUN)
        bad["population"] = {"kind": "gaussian", "mean": [0, 0], "var": [-1, 1]}
        cfg_path.write_text(json.dumps(bad))
        result = self._run(["--config", str(cfg_path), "run"], tmp_path)
        assert result.returncode == 1
        assert "config.population" in result.stderr

    def test_run_rejects_an_explicit_slate_of_one_distinct_point(self, tmp_path):
        # sampled with replacement, it would be a slate of 5 copies of one
        # alternative: every audit VACUOUS and regret 0, with exit 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_RUN, "alternatives": {
            "kind": "explicit-slate", "points": [[0.5, 0.5]]}}))
        result = self._run(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "run"], tmp_path)
        assert result.returncode == 1
        assert result.stderr == "error: config.alternatives.points: need at least 2 distinct points, got 1\n"
        assert not (tmp_path / "out" / "distortion.json").exists()

    @pytest.mark.parametrize("alternatives, message", [
        ({"kind": "uniform-box", "lo": 0.5, "hi": 0.5},
         "config.alternatives.hi: need hi > lo on some coordinate, got hi == lo on every coordinate"),
        ({"kind": "gaussian", "mean": [0.5, 0.5], "var": [0, 0]},
         "config.alternatives.var: need a positive entry, got 0 on every coordinate"),
    ], ids=["box", "gaussian"])
    def test_run_rejects_an_alternative_space_of_one_point(self, tmp_path, alternatives, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_RUN, "alternatives": alternatives}))
        result = self._run(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "run"], tmp_path)
        assert result.returncode == 1
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out" / "distortion.json").exists()

    def test_run_prints_its_reports_without_reading_its_directory(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        out = tmp_path / "out"
        opened = []
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if "r" in mode or "+" in mode:
                opened.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        assert prefaudit.cli.main(["--config", str(cfg_path), "--out", str(out), "run"]) == 0
        reads = [Path(f) for f in opened if not isinstance(f, int)]
        monkeypatch.undo()
        assert cfg_path in reads  # the recorder sees the program's reads
        assert [f for f in reads if out in f.parents] == []
        axioms = [axiom_report_from_dict(d) for d in json.loads((out / "axioms.json").read_text())]
        distortion = distortion_report_from_dict(json.loads((out / "distortion.json").read_text()))
        assert capsys.readouterr().out == emit_table(axioms, distortion)

    def test_run_without_distortion_prints_no_earlier_regret(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        out = tmp_path / "out"
        assert prefaudit.cli.main(["--config", str(cfg_path), "--out", str(out), "--seed", "5", "run"]) == 0
        assert "distortion   delta=" in capsys.readouterr().out
        cfg_path.write_text(json.dumps({**SMALL_RUN, "distortion": {"enabled": False}}))
        assert prefaudit.cli.main(["--config", str(cfg_path), "--out", str(out), "run"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("axiom ") and "distortion" not in printed
        assert not (out / "distortion.json").exists()
        assert json.loads((out / "manifest.json").read_text())["stages"]["distort"] == {"skipped": True}

    @pytest.mark.parametrize("leftover", [None, "{not json"], ids=["valid", "malformed"])
    def test_audit_prints_only_its_own_reports(self, tmp_path, leftover):
        # audit run alone does not echo the distortion.json another run wrote
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        out = tmp_path / "out"
        run_pipeline(config_from_dict(SMALL_RUN), out)
        if leftover is not None:
            (out / "distortion.json").write_text(leftover)
        result = self._run(["--config", str(cfg_path), "--out", str(out), "audit"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout.startswith("axiom ") and "distortion" not in result.stdout

    @pytest.mark.parametrize("stage, name, content, message", [
        pytest.param("audit", "slate.json", [[0.1, 0.2], [float("nan"), 0.5], [0.3, 0.3]],
                     "non-finite", id="audit-nan-slate"),
        pytest.param("distort", "slate.json", [[0.1, 0.2], [float("nan"), 0.5], [0.3, 0.3]],
                     "non-finite", id="distort-nan-slate"),
        pytest.param("distort", "slate.json", {"points": [[0.1, 0.2], [0.3, 0.3]]},
                     "non-empty JSON list", id="distort-object-slate"),
        pytest.param("distort", "slate.json", [[0.1, 0.2], [0.3]],
                     "differ in dimension", id="distort-ragged-slate"),
        pytest.param("audit", "slate.json", [[0.5, 0.5]], "m >= 2", id="audit-one-point-slate"),
        pytest.param("distort", "slate.json", [[0.5, 0.5]], "m >= 2", id="distort-one-point-slate"),
        pytest.param("audit", "voters.json", [{"voter_id": 0, "theta": [1.0, -0.5]},
                                              {"voter_id": 1, "theta": [1.0]}],
                     "differ in dimension", id="audit-ragged-voters"),
        pytest.param("audit", "voters.json", [[1.0, -0.5]], "must be an object", id="audit-list-voters"),
        pytest.param("audit", "model.json", {**MODEL_JSON, "theta": [1.0, -0.5]},
                     "unexpected keyword argument 'theta'", id="audit-model-unknown-key"),
        pytest.param("distort", "model.json", {k: v for k, v in MODEL_JSON.items() if k != "final_nll"},
                     "'final_nll'", id="distort-model-without-final-nll"),
        pytest.param("audit", "model.json", [1.0, -0.5], "not a mapping", id="audit-list-model"),
    ])
    def test_stage_alone_rejects_a_corrupted_file(self, tmp_path, stage, name, content, message):
        out = tmp_path / "out"
        run_pipeline(config_from_dict(SMALL_RUN), out, stages=("simulate", "fit"))
        (out / name).write_text(json.dumps(content))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        result = self._run(["--config", str(cfg_path), "--out", str(out), stage], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {out / name}: ")
        assert message in result.stderr

    def test_audit_with_voters_of_another_dimension_fails_loudly(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(config_from_dict(SMALL_RUN), out, stages=("simulate", "fit"))
        (out / "voters.json").write_text(json.dumps([{"voter_id": 0, "theta": [1.0, -0.5, 0.25]}]))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        result = self._run(["--config", str(cfg_path), "--out", str(out), "audit"], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error: dimension mismatch: ")
        assert "Traceback" not in result.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_stage"] == "audit"
        assert manifest["error"].startswith("dimension mismatch: ")

    def test_stage_alone_on_an_empty_directory_names_the_missing_input(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        out = tmp_path / "empty"
        out.mkdir()
        result = self._run(["--config", str(cfg_path), "--out", str(out), "distort"], tmp_path)
        assert result.returncode == 1
        assert result.stderr == f"error: {out / 'model.json'}: No such file or directory\n"

    def test_a_model_that_did_not_converge_is_named_on_stderr(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        out = tmp_path / "out"
        assert prefaudit.cli.main(["--config", str(cfg_path), "--out", str(out), "run"]) == 0
        assert capsys.readouterr().err == ""
        cfg_path.write_text(json.dumps({**SMALL_RUN, "estimation": {"max_iters": 1}}))
        args = ["--config", str(cfg_path), "--out", str(out)]
        assert prefaudit.cli.main([*args, "simulate"]) == 0
        assert capsys.readouterr().err == ""
        skipped = tmp_path / "skipped.json"
        skipped.write_text(json.dumps({**SMALL_RUN, "distortion": {"enabled": False}}))
        empty = tmp_path / "empty"
        assert prefaudit.cli.main(["--config", str(skipped), "--out", str(empty), "distort"]) == 0
        assert capsys.readouterr().err == ""
        for command in ["fit", "audit", "distort", "run", "verify"]:
            prefaudit.cli.main([*args, command])
            diagnostic = json.loads((out / "model.json").read_text())["diagnostic"]
            assert diagnostic
            err = capsys.readouterr().err.splitlines()
            assert err[0] == f"warning: the reward model did not converge: {diagnostic}", command

    @pytest.mark.parametrize("case", ["config-directory", "config-not-utf8", "out-is-a-file"])
    def test_os_and_encoding_errors_name_the_path(self, tmp_path, capsys, case):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        if case == "config-directory":
            cfg_path = tmp_path
        elif case == "config-not-utf8":
            cfg_path.write_bytes(b'{"dimension": "\xff"}')
        else:
            out.write_text("")
        assert prefaudit.cli.main(["--config", str(cfg_path), "--out", str(out), "run"]) == 1
        err = capsys.readouterr().err
        named = out if case == "out-is-a-file" else cfg_path
        assert err.startswith(f"error: {named}: ") and err.count("\n") == 1, err

    def test_seed_override_changes_dataset(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        result = self._run(["--config", str(cfg_path), "--out", a, "simulate"], tmp_path)
        assert result.returncode == 0, result.stderr
        result = self._run(["--config", str(cfg_path), "--out", b, "--seed", "99", "simulate"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert Path(a, "dataset.records").read_text() != Path(b, "dataset.records").read_text()


def test_benchmark_tracer_hooks_exist():
    """Every (module, attribute) the benchmark's tracer wraps is a callable."""
    tracer = _perfbench_module("tracer")
    assert tracer.WRAPPED
    for module, attr, _, _ in tracer.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_benchmark_traced_run_produces_every_layer_metric(tmp_path, monkeypatch):
    """One traced run yields every per-layer metric BENCHMARK.json names,
    each finite (``trace.overhead_s`` is computed by run.py, not here)."""
    tracer = _perfbench_module("tracer")
    for module, attr, _, _ in tracer.WRAPPED:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # undone after the test
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_RUN))
    result = tracer.traced_run(str(cfg_path), str(tmp_path / "out"), str(tmp_path / "spans.json"), "small", 0)
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["per_layer"] if m["name"] != "trace.overhead_s"]
    assert len(names) > 20
    assert [n for n in names if n not in result["layers"]] == []
    assert [n for n in names if not math.isfinite(result["layers"][n])] == []
    assert math.isfinite(result["traced_s"])


def _perfbench_module(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("alternatives", [6, 60])  # the oracle branch, then the numpy one
def test_benchmark_output_checks_pass(tmp_path, alternatives):
    """Every output check the benchmark gates a run on passes on a small run."""
    checks = _perfbench_module("checks")
    raw = {**SMALL_RUN, "num_alternatives": alternatives,
           "annotation": {"pairs": {"kind": "uniform-random", "count": 600}},
           "audit": {"epsilons": [0.0, 0.1], "consistency": {"partitions": 2}}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    run_pipeline(load_config(cfg_path), out)
    results = checks.output_checks(out, cfg_path, [checks.artifact_digests(out)])
    branch = "exhaustive oracle" if alternatives <= checks.ORACLE_MAX_SLATE else "numpy recomputation"
    assert sum(branch in name for name, _ in results) == 4  # unanimity and condorcet per epsilon
    assert [name for name, ok in results if not ok] == []


@pytest.mark.parametrize("workload", ["grid-d3", "large-n"])
def test_benchmark_workloads_pass_every_output_check(tmp_path, capsys, workload):
    """``prefaudit run`` on each benchmark workload at seed 42 passes every
    output check the benchmark gates a run on, with perfbench/checks.py
    loaded from its file as it stands: grid-d3 goes through the exhaustive
    oracle and its VoterParams, large-n through the numpy recomputation. An
    API change that breaks the benchmark fails here."""
    checks = _perfbench_module("checks")
    workloads = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json").read_text())
    config = {**workloads["workloads"][workload]["config"], "seed": 42}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert prefaudit.cli.main(["--config", str(cfg_path), "--out", str(out), "run"]) == 0
    assert capsys.readouterr().out.startswith("axiom ")
    results = checks.output_checks(out, cfg_path, [checks.artifact_digests(out)])
    branch = "exhaustive oracle" if workload == "grid-d3" else "numpy recomputation"
    assert sum(branch in name for name, _ in results) == 2 * len(config["audit"]["epsilons"])
    assert [name for name, ok in results if not ok] == []


def test_public_surface_resolves(capsys):
    """The README's Python snippet runs, and every name in every module's
    ``__all__`` exists, so a deleted export cannot linger in either."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    snippets = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert snippets
    for snippet in snippets:
        exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out
    modules = _modules()
    assert len(modules) > 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_no_source_or_readme_names_the_per_anchor_report_api():
    """Each axiom report holds two masks: the per-anchor result type and the
    report-to-dict encoder are gone from the package and its README."""
    root = Path(prefaudit.__file__).resolve().parent
    texts = {path.name: path.read_text() for path in [*root.glob("*.py"), root.parents[1] / "README.md"]}
    assert len(texts) > 10
    assert [name for name, text in texts.items() if re.search(r"AnchorResult|axiom_report_to_dict", text)] == []


def _modules():
    return [prefaudit] + [importlib.import_module(f"prefaudit.{m.name}")
                          for m in pkgutil.iter_modules(prefaudit.__path__)]


def _public_callables():
    """(qualified name, callable) for every public callable but the exception classes."""
    callables = [
        (f"{module.__name__}.{name}", obj)
        for module in _modules() for name in getattr(module, "__all__", ())
        # an exception class has no signature to inspect
        if callable(obj := getattr(module, name)) and not (isinstance(obj, type) and issubclass(obj, Exception))
    ]
    assert len(callables) > 30
    return callables


def test_no_public_callable_takes_both_data_and_a_slate():
    """A function given a Dataset reads the slate the data carries, so no
    caller can hand it alternatives the data never compared."""
    both = [name for name, obj in _public_callables()
            if {"data", "slate"} <= inspect.signature(obj).parameters.keys()]
    assert both == []


def test_every_audit_takes_the_model_first_and_none_takes_a_lambda_beside_it():
    """An audit reads lambda from the model it audits, so no caller can
    retrain the audited rule at another lambda."""
    callables = _public_callables()
    audits = [(name, obj) for name, obj in callables
              if name.rpartition(".")[2].startswith("audit_") or name.endswith(".worst_case_regret")]
    assert {name.rpartition(".")[2] for name, _ in audits} == {
        "audit_unanimity", "audit_condorcet", "audit_consistency", "worst_case_regret"}
    assert [name for name, obj in audits if next(iter(inspect.signature(obj).parameters)) != "model"] == []
    both = [name for name, obj in callables if {"model", "lam"} <= inspect.signature(obj).parameters.keys()]
    assert both == []


def test_each_config_default_equals_the_library_default_it_feeds():
    est, cons, dist = DEFAULTS["estimation"], DEFAULTS["audit"]["consistency"], DEFAULTS["distortion"]
    assert (est["lambda"], est["grad_tol"], est["max_iters"]) == (DEFAULT_LAMBDA, DEFAULT_GRAD_TOL, DEFAULT_MAX_ITERS)
    scheme = ConsistencyScheme()
    assert (cons["blocks"], cons["min_fraction"], cons["partitions"]) == (
        scheme.num_blocks, scheme.min_fraction, scheme.num_partitions)
    keys = ("grid_resolution", "bound", "w_mode", "w_lo", "w_hi", "random_samples")
    assert {key: dist[key] for key in keys} == {key: getattr(SearchSpec(), key) for key in keys}


def test_the_oracles_import_no_private_name_of_the_package():
    """oracle.py shares no code with the fast kernels: it imports no
    underscore-prefixed name from any prefaudit module."""
    source = Path(prefaudit.__file__).with_name("oracle.py").read_text()
    imports = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)]
    package = [node for node in imports if node.level > 0 or (node.module or "").startswith("prefaudit")]
    assert package  # the oracles do use the public types
    private = [f"{node.module}.{alias.name}" for node in package for alias in node.names if alias.name.startswith("_")]
    assert private == []
