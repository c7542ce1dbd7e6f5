import importlib.util
import json
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env
import prefaudit.cli
import prefaudit.pipeline
from prefaudit.annotation import RoundRobin, UniformRandomPairs
from prefaudit.axioms import ConsistencyScheme
from prefaudit.config import config_from_dict, load_config
from prefaudit.distortion import DistortionReport
from prefaudit.errors import ConfigError, InputError
from prefaudit.estimation import fit_mle
from prefaudit.model import Dataset
from prefaudit.pipeline import STAGES, RunDir, child_seed, run_pipeline
from prefaudit.reports import emit_rows, emit_table, parse_rows, rows_from_reports
from prefaudit.serialize import (
    axiom_report_from_dict,
    axiom_report_to_dict,
    distortion_report_from_dict,
    distortion_report_to_dict,
    read_records,
    write_records,
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


class TestLoadConfig:
    def test_minimal_gets_documented_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = load_config(path)
        assert cfg.lam == 1e-3
        assert cfg.epsilons == (0.0, 0.1, 0.5)
        assert cfg.consistency == ConsistencyScheme(num_blocks=2, min_fraction=0.4, num_partitions=10)
        # the echo carries every applied default
        assert cfg.echo()["estimation"]["lambda"] == 1e-3
        assert cfg.echo()["audit"]["consistency"]["partitions"] == 10

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
        assert cfg.echo()["annotation"]["pairs"] == {"kind": "uniform-random", "count": 30}
        assert cfg.echo()["annotation"]["labels"] == {"kind": "proxy", "w": [1.0, 0.5]}
        default = config_from_dict(MINIMAL)
        assert default.pair_scheme == RoundRobin(repeats=1)
        assert default.echo()["annotation"]["pairs"] == {"kind": "round-robin", "repeats": 1}
        assert default.echo()["annotation"]["labels"] == {"kind": "true-reward"}

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
            assert config_from_dict(cfg.echo()).echo() == cfg.echo()

    @pytest.mark.parametrize("override, message", [
        ({"annotation": {"labels": {"kind": "proxy", "w": [1.0, 0.5, 1.5]}}},
         "config.annotation.labels.w: length 3 != experiment dimension 2"),
        ({"num_voters": -3}, "config.num_voters: must be >= 1, got -3"),
        ({"num_alternatives": 1}, "config.num_alternatives: must be >= 2, got 1"),
        ({"annotation": {"pairs": {"kind": "round-robin", "repeats": -2}}},
         "config.annotation.pairs: repeats must be >= 1, got -2"),
        ({"annotation": {"pairs": {"kind": "uniform-random", "count": 0}}},
         "config.annotation.pairs: count must be >= 1, got 0"),
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
            Dataset(voter=voter, label=label, a0=a0, a1=a1),
            Dataset(voter=[0], a0=[[0.1, 0.2, 0.3]], a1=[[1.0, 2.0, 3.0]], label=[1],
                    scheme="proxy", w=[0.5, 1.5, 2.5]),
        ]
        path = tmp_path / "data.records"
        for records in datasets:
            write_records(path, records)
            back = read_records(path)
            assert back == records
            for name in ("a0", "a1"):
                assert getattr(back, name).tobytes() == getattr(records, name).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 5), proxy=st.booleans())
    def test_line_round_trip_is_exact(self, data, d, n, proxy):
        vec = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d)
        rows = st.lists(vec, min_size=n, max_size=n)
        records = Dataset(
            voter=data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n)),
            a0=data.draw(rows), a1=data.draw(rows),
            label=data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
            scheme="proxy" if proxy else "true-reward",
            w=data.draw(vec) if proxy else None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.records"
            write_records(path, records)
            back = read_records(path)
        assert back == records
        for name in ("voter", "label", "a0", "a1", "w"):
            assert getattr(back, name) is None or getattr(back, name).tobytes() == getattr(records, name).tobytes()

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "data.records"
        path.write_text("voter=0 label=1 scheme=true-reward a0=1 a1=2\n"
                        "voter=0 label=x scheme=true-reward a0=1 a1=2\n")
        with pytest.raises(InputError, match=":2: malformed record line"):
            read_records(path)

    def test_mixed_schemes_name_the_line(self, tmp_path):
        path = tmp_path / "data.records"
        path.write_text("voter=0 label=1 scheme=proxy a0=1 a1=2 w=0.5\n"
                        "voter=1 label=0 scheme=proxy a0=1 a1=2 w=0.5\n"
                        "voter=2 label=0 scheme=true-reward a0=1 a1=2\n")
        with pytest.raises(InputError, match=":3: record disagrees with the first record"):
            read_records(path)

    def test_line_shape(self, tmp_path):
        path = tmp_path / "data.records"
        write_records(path, Dataset(voter=[3], a0=[[1.0]], a1=[[2.0]], label=[0]))
        line = path.read_text()
        assert line.startswith("voter=3 label=0 scheme=true-reward")


class TestDistortionReportWireFormat:
    @pytest.mark.parametrize("report", [
        DistortionReport(slate_size=4, learned_winner=2, regret=0.125,
                         worst_theta=np.array([0.1, -2.0]), worst_w=np.array([1.0, 0.5]),
                         delta=0.5, metadata={"consistent_count": 3, "best_nll": 12.5}),
        DistortionReport(slate_size=3, learned_winner=0, regret=None,
                         worst_theta=None, worst_w=None, delta=0.0, metadata={}),
    ])
    def test_round_trip(self, report, tmp_path):
        path = tmp_path / "distortion.json"
        path.write_text(json.dumps(distortion_report_to_dict(report)))
        back = distortion_report_from_dict(json.loads(path.read_text()))
        for name in ("slate_size", "learned_winner", "regret", "delta", "metadata"):
            assert getattr(back, name) == getattr(report, name), name
        for name in ("worst_theta", "worst_w"):
            want, got = getattr(report, name), getattr(back, name)
            assert (got is None) if want is None else np.array_equal(got, want), name


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
        manifest = run_pipeline(cfg, tmp_path / "run")
        assert manifest["config"]["estimation"]["lambda"] == 1e-3
        assert manifest["seeds"]["voters"] == child_seed(11, "voters")
        assert set(manifest["stages"]) == {"simulate", "fit", "audit", "distort"}

    def test_manifest_records_stage_seconds(self, tmp_path):
        manifest = run_pipeline(config_from_dict(SMALL_RUN), tmp_path / "run")
        seconds = manifest["stage_seconds"]
        assert list(seconds) == list(STAGES)
        assert all(s >= 0 for s in seconds.values())
        assert sum(seconds.values()) <= manifest["wall_clock_s"]
        written = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert written["stage_seconds"] == seconds
        assert "stage_seconds" not in written["stages"]

    def test_block_models_are_fitted_once_for_every_epsilon(self, tmp_path, monkeypatch):
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return fit_mle(*args, **kwargs)

        monkeypatch.setattr(prefaudit.pipeline, "fit_mle", counting_fit)
        raw = {**SMALL_RUN, "audit": {"epsilons": [0.0, 0.1, 0.5], "consistency": {"partitions": 3}}}
        manifest = run_pipeline(config_from_dict(raw), tmp_path / "run", stages=("simulate", "fit", "audit"))
        assert manifest["stages"]["audit"]["reports"] == 9
        reports = json.loads((tmp_path / "run" / "axioms.json").read_text())
        assert all(r["metadata"]["skipped_partitions"] == 0 for r in reports if r["axiom"] == "consistency")
        # the main fit, then 3 partitions x 2 blocks, whatever the number of epsilons
        assert len(fits) == 1 + 3 * 2

    def test_disabled_distortion_skipped(self, tmp_path):
        raw = dict(SMALL_RUN)
        raw["distortion"] = {"enabled": False}
        manifest = run_pipeline(config_from_dict(raw), tmp_path / "run")
        assert manifest["stages"]["distort"] == {"skipped": True}
        assert not (tmp_path / "run" / "distortion.json").exists()


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

    def test_table_marks_status(self, tmp_path):
        reports = self._reports(tmp_path)
        table = emit_table(reports)
        assert any(tok in table for tok in ("PASS", "FAIL", "VACUOUS"))

    def test_report_dict_round_trip(self, tmp_path):
        for report in self._reports(tmp_path):
            assert axiom_report_from_dict(axiom_report_to_dict(report)).anchors == report.anchors


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
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, attr, _, _ in tracer.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
