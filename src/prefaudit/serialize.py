"""Wire formats for datasets, models, and reports.

Dataset records use a line-delimited key=value encoding with floats at
17 significant digits, so a write/read round trip is exact. Reports and
models serialize to JSON (Python's float repr also round-trips).
"""

from __future__ import annotations

import json

import numpy as np

from .axioms import AnchorResult, AxiomReport
from .distortion import DistortionReport
from .errors import InputError
from .model import SCHEME_PROXY, ComparisonRecord, RewardModel, VoterParams

__all__ = [
    "format_float",
    "write_records",
    "read_records",
    "record_to_line",
    "record_from_line",
    "write_slate",
    "read_slate",
    "write_voters",
    "read_voters",
    "model_to_dict",
    "model_from_dict",
    "axiom_report_to_dict",
    "axiom_report_from_dict",
    "distortion_report_to_dict",
    "distortion_report_from_dict",
    "dump_json",
    "load_json",
]


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _coords(a: np.ndarray) -> str:
    return ",".join(format_float(x) for x in a)


def record_to_line(rec: ComparisonRecord) -> str:
    fields = [
        f"voter={rec.voter_id}",
        f"label={rec.label}",
        f"scheme={rec.scheme}",
        f"a0={_coords(rec.a0)}",
        f"a1={_coords(rec.a1)}",
    ]
    if rec.scheme == SCHEME_PROXY:
        fields.append(f"w={_coords(rec.w)}")
    return " ".join(fields)


def record_from_line(line: str) -> ComparisonRecord:
    fields = {}
    for token in line.split():
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        kwargs = dict(
            voter_id=int(fields["voter"]),
            label=int(fields["label"]),
            scheme=fields["scheme"],
            a0=[float(x) for x in fields["a0"].split(",")],
            a1=[float(x) for x in fields["a1"].split(",")],
        )
    except (KeyError, ValueError) as e:
        raise InputError(f"malformed record line: {line!r} ({e})") from None
    if "w" in fields:
        kwargs["w"] = [float(x) for x in fields["w"].split(",")]
    return ComparisonRecord(**kwargs)


def write_records(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(record_to_line(rec) + "\n")


def read_records(path) -> list[ComparisonRecord]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(record_from_line(line))
    return records


def write_slate(path, slate) -> None:
    dump_json(path, [[float(x) for x in a] for a in slate])


def read_slate(path) -> list[np.ndarray]:
    return [np.array(a, dtype=np.float64) for a in load_json(path)]


def write_voters(path, voters) -> None:
    dump_json(path, [{"voter_id": v.voter_id, "theta": [float(x) for x in v.theta]} for v in voters])


def read_voters(path) -> list[VoterParams]:
    return [VoterParams(voter_id=v["voter_id"], theta=v["theta"]) for v in load_json(path)]


def model_to_dict(model: RewardModel) -> dict:
    return {
        "theta_hat": [float(x) for x in model.theta_hat],
        "lambda": model.lam,
        "final_nll": model.final_nll,
        "converged": model.converged,
        "iterations": model.iterations,
        "diagnostic": model.diagnostic,
    }


def model_from_dict(d: dict) -> RewardModel:
    return RewardModel(
        theta_hat=d["theta_hat"],
        lam=d["lambda"],
        final_nll=d["final_nll"],
        converged=d["converged"],
        iterations=d["iterations"],
        diagnostic=d.get("diagnostic", ""),
    )


def axiom_report_to_dict(report: AxiomReport) -> dict:
    return {
        "axiom": report.axiom,
        "epsilon": report.epsilon,
        "slate_size": report.slate_size,
        "passed": report.passed,
        "vacuous": report.vacuous,
        "min_margin": report.min_margin,
        "anchors": [
            {
                "anchor": a.anchor,
                "dominated": list(a.dominated),
                "violations": [list(v) for v in a.violations],
                "vacuous": a.vacuous,
            }
            for a in report.anchors
        ],
        "metadata": report.metadata,
    }


def axiom_report_from_dict(d: dict) -> AxiomReport:
    anchors = tuple(
        AnchorResult(
            anchor=a["anchor"],
            dominated=tuple(a["dominated"]),
            violations=tuple(tuple(v) for v in a["violations"]),
            vacuous=a["vacuous"],
        )
        for a in d["anchors"]
    )
    return AxiomReport(
        axiom=d["axiom"],
        epsilon=d["epsilon"],
        slate_size=d["slate_size"],
        anchors=anchors,
        passed=d["passed"],
        min_margin=d["min_margin"],
        metadata=d.get("metadata", {}),
    )


def distortion_report_to_dict(report: DistortionReport) -> dict:
    return {
        "slate_size": report.slate_size,
        "learned_winner": report.learned_winner,
        "regret": report.regret,
        "worst_theta": None if report.worst_theta is None else [float(x) for x in report.worst_theta],
        "worst_w": None if report.worst_w is None else [float(x) for x in report.worst_w],
        "delta": report.delta,
        "metadata": report.metadata,
    }


def distortion_report_from_dict(d: dict) -> DistortionReport:
    return DistortionReport(
        slate_size=d["slate_size"],
        learned_winner=d["learned_winner"],
        regret=d["regret"],
        worst_theta=None if d["worst_theta"] is None else np.array(d["worst_theta"]),
        worst_w=None if d["worst_w"] is None else np.array(d["worst_w"]),
        delta=d["delta"],
        metadata=d["metadata"],
    )


def dump_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
