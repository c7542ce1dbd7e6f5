"""Wire formats for datasets, models, and reports.

Dataset records are key=value lines with floats at 17 significant
digits, so a write/read round trip is exact; reports and models are JSON
objects keyed by their dataclass fields. axioms.json has one line per
report and per anchor, and parses to the value of an indented dump of
the report list; the other JSON files use ``indent=2``. The line writers
make each index's, point's and voter's text once and stream the lines.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass, replace
from functools import cache

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
    "write_axiom_reports",
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
    """One line per record: voter, label, scheme, a0, a1, and w for proxy. Each
    line joins texts made once per voter and label and per slate row, and is
    streamed: joining the lines would hold the whole file in memory."""
    tail = "" if data.w is None else f" w={_coords(data.w)}"
    coords = [_coords(p) for p in data.slate.tolist()]
    a0 = [f" scheme={data.scheme} a0={c} a1=" for c in coords]
    a1 = [f"{c}{tail}\n" for c in coords]
    voter = data.voter.tolist()
    heads = {v: (f"voter={v} label=0", f"voter={v} label=1") for v in set(voter)}
    columns = (voter, data.label.tolist(), data.i0.tolist(), data.i1.tolist())
    with open(path, "w") as fh:
        fh.writelines(f"{heads[v][y]}{a0[i]}{a1[j]}" for v, y, i, j in zip(*columns))


def _open(path):
    """open(path) for reading; a missing or unreadable file raises InputError naming it."""
    try:
        return open(path)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from None


def read_records(path, slate) -> Dataset:
    """Parse a records file over the given slate straight into a Dataset's columns.

    Each distinct coordinate string is parsed once and names the first slate
    row that holds its point's bytes (so 0.0 and -0.0 stay apart). A malformed
    line, a point the slate does not hold, or a line whose scheme or w differs
    from the first record's raises InputError naming its line number.
    """
    slate = slate_array(slate)
    first_row = {p.tobytes(): k for k, p in reversed(list(enumerate(slate)))}
    voter, label, i0, i1 = [], [], [], []
    first = None  # (scheme, w) of the first record
    parsed = {}  # coordinate string -> (tuple of floats, first slate row holding it or None)

    def point(text):
        if text not in parsed:
            p = tuple(map(float, text.split(",")))
            parsed[text] = p, first_row.get(np.array(p).tobytes())
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
                rows = point(fields["a0"])[1], point(fields["a1"])[1]
                header = (fields["scheme"], point(fields["w"])[0] if "w" in fields else None)
            except (KeyError, ValueError) as e:
                raise InputError(f"{path}:{lineno}: malformed record line: {line!r} ({e})") from None
            if None in rows:
                raise InputError(f"{path}:{lineno}: {('a0', 'a1')[rows.index(None)]} is not a point of the slate")
            i0.append(rows[0])
            i1.append(rows[1])
            first = first or header
            if header != first:
                raise InputError(f"{path}:{lineno}: record disagrees with the first record on scheme or w")
    if first is None:
        raise InputError(f"{path}: empty dataset")
    try:
        return Dataset(voter=voter, label=label, slate=slate, i0=i0, i1=i1, scheme=first[0], w=first[1])
    except InputError as e:
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
    dump_json(path, [_plain(v) for v in voters])


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


_SCALARS = frozenset({bool, int, float, str, type(None)})


@cache
def _field_names(cls) -> tuple:  # () for a type that is not a dataclass
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else ()


def _plain(value):
    """The JSON form of a report or model: a dataclass becomes the object of its
    fields, an array its .tolist() and a tuple a list, copied by one list() call
    when it holds scalars (every tuple here holds items of one kind).
    """
    if type(value) in _SCALARS:
        return value
    if isinstance(value, tuple):
        if not value or type(value[0]) in _SCALARS:
            return list(value)
        return list(map(_plain, value))
    if isinstance(value, np.ndarray):
        return value.tolist()
    names = _field_names(type(value))
    return {name: _plain(getattr(value, name)) for name in names} if names else value


def model_to_dict(model: RewardModel) -> dict:
    # every field but the in-memory nll_history, with lam written as lambda
    return {"lambda" if k == "lam" else k: v for k, v in _plain(model).items() if k != "nll_history"}


def model_from_dict(d: dict) -> RewardModel:
    d = {**d}
    return RewardModel(lam=d.pop("lambda"), **d)


def read_model(path) -> RewardModel:
    return _read_json(path, model_from_dict)


def axiom_report_to_dict(report: AxiomReport) -> dict:
    return {**_plain(report), "vacuous": report.vacuous}


def axiom_report_from_dict(d: dict) -> AxiomReport:
    anchors = tuple(AnchorResult(**{**a, "dominated": tuple(a["dominated"]),
                                    "violations": tuple(map(tuple, a["violations"]))}) for a in d["anchors"])
    d = {**d, "anchors": anchors}
    d.pop("vacuous", None)  # derived from the anchors
    return AxiomReport(**d)


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def write_axiom_reports(path, reports) -> None:
    """axioms.json: ``[``, a line per report (its other fields by the C encoder,
    then ``"anchors":[``) and per anchor, then ``]``; it parses to
    ``[axiom_report_to_dict(r) for r in reports]``. An anchor line joins the
    texts of its slate indices, each made once per call."""
    t = [str(k) for k in range(max((r.slate_size for r in reports), default=0))]

    def block(report):
        head = {**_plain(replace(report, anchors=())), "vacuous": report.vacuous}
        del head["anchors"]
        anchors = ",".join(
            f'\n{{"anchor":{t[a.anchor]},"dominated":[{",".join(map(t.__getitem__, a.dominated))}],'
            f'"vacuous":{"true" if a.vacuous else "false"},'
            f'"violations":[{",".join(f"[{t[i]},{t[j]}]" for i, j in a.violations)}]}}'
            for a in report.anchors)
        return f'{_compact(head)[:-1]},"anchors":[{anchors}]}}'

    with open(path, "w") as fh:
        fh.write("[")
        fh.writelines(("," if k else "") + "\n" + block(report) for k, report in enumerate(reports))
        fh.write("\n]\n")


def distortion_report_to_dict(report: DistortionReport) -> dict:
    return _plain(report)


def distortion_report_from_dict(d: dict) -> DistortionReport:
    arrays = {k: None if d[k] is None else np.array(d[k]) for k in ("worst_theta", "worst_w")}
    return DistortionReport(**{**d, **arrays})


def dump_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    return _read_json(path, lambda value: value)
