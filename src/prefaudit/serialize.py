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
from .model import Dataset, RewardModel, VoterParams, slate_array

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
    "read_model",
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
    """One line per record: voter, label, scheme, a0, a1, and w for proxy.

    Each distinct point of a0 and a1 (by its bytes, so 0.0 and -0.0
    stay apart) is formatted once. The lines are streamed: joining them
    first would hold the whole file in memory.
    """
    tail = "" if data.w is None else f" w={_coords(data.w)}"
    points = np.concatenate([data.a0, data.a1])
    rows = points.view(np.dtype((np.void, points.itemsize * data.dim))).ravel()
    distinct, index = np.unique(rows, return_inverse=True)
    coords = [_coords(p) for p in distinct.view(np.float64).reshape(-1, data.dim).tolist()]
    n = len(data)
    columns = (data.voter.tolist(), data.label.tolist(), index[:n].tolist(), index[n:].tolist())
    with open(path, "w") as fh:
        fh.writelines(f"voter={voter} label={label} scheme={data.scheme} a0={coords[i]} a1={coords[j]}{tail}\n"
                      for voter, label, i, j in zip(*columns))


def _open(path):
    """open(path) for reading; a missing or unreadable file raises InputError naming it."""
    try:
        return open(path)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from None


def read_records(path) -> Dataset:
    """Parse a records file straight into a Dataset's columns.

    Each distinct coordinate string is parsed once. A malformed line, or
    one whose scheme, w or dimension differs from the first record's,
    raises InputError naming its line number.
    """
    voter, label, a0, a1 = [], [], [], []
    first = None  # (scheme, w, dimension) of the first record
    parsed = {}  # coordinate string -> tuple of floats

    def point(text):
        if text not in parsed:
            parsed[text] = tuple(map(float, text.split(",")))
        return parsed[text]

    with _open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = dict(token.split("=", 1) for token in line.split())
                voter.append(int(fields["voter"]))
                label.append(int(fields["label"]))
                a0.append(point(fields["a0"]))
                a1.append(point(fields["a1"]))
                w = point(fields["w"]) if "w" in fields else None
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


def write_slate(path, slate: np.ndarray) -> None:
    dump_json(path, slate.tolist())


def _read_json(path, build):
    """build(the JSON value at path). Any fault, a missing file included,
    raises InputError prefixed with the path, as read_records does.
    """
    with _open(path) as fh:
        try:
            return build(json.load(fh))
        except KeyError as e:
            raise InputError(f"{path}: missing field {e}") from None
        except (InputError, TypeError, ValueError) as e:
            raise InputError(f"{path}: {e}") from None


def _non_empty(entries) -> list:
    if not isinstance(entries, list) or not entries:
        raise InputError("expected a non-empty JSON list")
    return entries


def read_slate(path) -> np.ndarray:
    return _read_json(path, lambda entries: slate_array(_non_empty(entries)))


def write_voters(path, voters) -> None:
    dump_json(path, [{"voter_id": v.voter_id, "theta": [float(x) for x in v.theta]} for v in voters])


def _voters(entries) -> list[VoterParams]:
    voters = []
    for entry in _non_empty(entries):
        if not isinstance(entry, dict):
            raise InputError(f"a voter must be an object with voter_id and theta, got {entry!r}")
        voters.append(VoterParams(voter_id=entry["voter_id"], theta=entry["theta"]))
    if len({v.theta.size for v in voters}) > 1:
        raise InputError("entries differ in dimension")
    return voters


def read_voters(path) -> list[VoterParams]:
    return _read_json(path, _voters)


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


def read_model(path) -> RewardModel:
    return _read_json(path, model_from_dict)


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
