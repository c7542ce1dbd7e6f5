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
from .model import Dataset, RewardModel, VoterParams

__all__ = [
    "format_float",
    "write_records",
    "read_records",
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


def _coords(a) -> str:
    return ",".join(format_float(x) for x in a)


def write_records(path, data: Dataset) -> None:
    """One line per record: voter, label, scheme, a0, a1, and w for proxy."""
    tail = "" if data.w is None else f" w={_coords(data.w)}"
    columns = (data.voter.tolist(), data.label.tolist(), data.a0.tolist(), data.a1.tolist())
    with open(path, "w") as fh:
        for voter, label, a0, a1 in zip(*columns):
            fh.write(f"voter={voter} label={label} scheme={data.scheme} "
                     f"a0={_coords(a0)} a1={_coords(a1)}{tail}\n")


def read_records(path) -> Dataset:
    """Parse a records file straight into a Dataset's columns.

    A malformed line, or one whose scheme, w or dimension differs from
    the first record's, raises InputError naming its line number.
    """
    voter, label, a0, a1 = [], [], [], []
    first = None  # (scheme, w, dimension) of the first record
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = dict(token.split("=", 1) for token in line.split())
                voter.append(int(fields["voter"]))
                label.append(int(fields["label"]))
                a0.append(list(map(float, fields["a0"].split(","))))
                a1.append(list(map(float, fields["a1"].split(","))))
                w = list(map(float, fields["w"].split(","))) if "w" in fields else None
                header = (fields["scheme"], w, len(a0[-1]))
            except (KeyError, ValueError) as e:
                raise InputError(f"{path}:{lineno}: malformed record line: {line!r} ({e})") from None
            first = first or header
            if header != first or len(a1[-1]) != first[2]:
                raise InputError(
                    f"{path}:{lineno}: record disagrees with the first record on scheme, w or dimension"
                )
    if first is None:
        raise InputError(f"{path}: empty dataset")
    try:
        return Dataset(voter=voter, label=label, a0=a0, a1=a1, scheme=first[0], w=first[1])
    except (InputError, OverflowError) as e:
        raise InputError(f"{path}: {e}") from None


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
