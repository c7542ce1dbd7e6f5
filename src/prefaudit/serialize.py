"""Wire formats for datasets, voters, models, and reports.

Dataset records are key=value lines with floats at 17 significant
digits, so a write/read round trip is exact; models and reports are JSON
objects keyed by their dataclass fields, except that an axiom report's
two masks are written as ``slate_size``, ``vacuous`` and one anchor object
per row. axioms.json has one line per report and per anchor, and parses
to the value of an indented dump of the report list; the other JSON files
use ``indent=2``, slate.json and voters.json by one row template. Each
point's and voter's text is made once; dataset.records is one gather and
join of them per RECORDS_CHUNK lines, and each mask's anchor lists (and the
CSV rows of ``reports``) are cut from one join of its set cells' index texts.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .axioms import AxiomReport
from .distortion import DistortionReport
from .errors import InputError
from .model import Dataset, RewardModel, Voters, slate_array

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
    "axiom_report_from_dict",
    "write_axiom_reports",
    "distortion_report_to_dict",
    "distortion_report_from_dict",
    "dump_json",
    "load_json",
]

RECORDS_CHUNK = 512  # write_records holds the text of at most this many records at a time


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _coords(a) -> str:
    return ",".join(format_float(x) for x in a)


def write_records(path, data: Dataset) -> None:
    """One line per record: voter, label, scheme, a0, a1, and w for proxy. Texts
    per voter and label (heads) and per slate row (a0, a1) are made once; each
    RECORDS_CHUNK records are one gather of them into reused cells, one join."""
    tail = "" if data.w is None else f" w={_coords(data.w)}"
    coords = [_coords(p) for p in data.slate.tolist()]
    a0 = np.array([f" scheme={data.scheme} a0={c} a1=" for c in coords], dtype=object)
    a1 = np.array([f"{c}{tail}\n" for c in coords], dtype=object)
    order = np.argsort(data.voter, kind="stable")
    ids, new = data.voter[order], np.ones(len(data), dtype=bool)  # new: the first record of an id, in id order
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    heads = np.array([f"voter={v} label={y}" for v in ids[new].tolist() for y in (0, 1)], dtype=object)
    key = np.empty_like(ids)  # a record's heads row: 2 * (its id's rank) + its label
    key[order] = np.cumsum(new) * 2 - 2
    key += data.label
    cells = np.empty((RECORDS_CHUNK, 3), dtype=object)
    with open(path, "w") as fh:
        for s in range(0, len(key), RECORDS_CHUNK):
            chunk, e = cells[:len(key) - s], min(s + RECORDS_CHUNK, len(key))
            chunk[:, 0], chunk[:, 1], chunk[:, 2] = heads[key[s:e]], a0[data.i0[s:e]], a1[data.i1[s:e]]
            fh.write("".join(chunk.ravel().tolist()))


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


def _write_rows(path, rows, indent: int, head: str, tails) -> None:
    """The dump_json text of a list whose entry k is head, rows[k] (a list of
    floats at ``indent``) and tails[k]; json writes a float as repr does."""
    sep = ",\n" + " " * (indent + 2)
    entries = (f"{head}[{sep[1:]}{sep.join(map(repr, row))}\n{' ' * indent}]{tail}" for row, tail in zip(rows, tails))
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(entries) + "\n]\n")


def write_slate(path, slate: np.ndarray) -> None:
    _write_rows(path, slate.tolist(), 2, "  ", [""] * len(slate))


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


def write_voters(path, voters: Voters) -> None:
    tails = (f',\n    "voter_id": {i}\n  }}' for i in voters.ids.tolist())
    _write_rows(path, voters.thetas.tolist(), 4, '  {\n    "theta": ', tails)


def _voters(entries) -> Voters:
    for entry in _non_empty(entries):
        if not isinstance(entry, dict):
            raise InputError(f"a voter must be an object with voter_id and theta, got {entry!r}")
    ids, thetas = [e["voter_id"] for e in entries], [e["theta"] for e in entries]
    if bool in map(type, ids):
        raise InputError("voter_id: need integers, got a boolean")
    return Voters(ids, thetas)


def read_voters(path) -> Voters:
    return _read_json(path, _voters)


def _plain(report) -> dict:
    """A model's or distortion report's fields, each array as a list."""
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def model_to_dict(model: RewardModel) -> dict:
    # every field but the in-memory nll_history, with lam written as lambda
    return {"lambda" if k == "lam" else k: v for k, v in _plain(model).items() if k != "nll_history"}


def model_from_dict(d: dict) -> RewardModel:
    d = {**d}
    return RewardModel(lam=d.pop("lambda"), **d)


def read_model(path) -> RewardModel:
    return _read_json(path, model_from_dict)


def axiom_report_from_dict(d: dict) -> AxiomReport:
    """The report of an axioms.json entry: its anchors must be 0..slate_size-1 in
    order, its vacuous flags must agree with them, and its other keys go to the
    constructor."""
    d = {**d}
    m, anchors, vacuous = d.pop("slate_size"), d.pop("anchors"), d.pop("vacuous")
    if [a["anchor"] for a in anchors] != list(range(m)):
        raise InputError(f"anchors must be 0..{m - 1} in order")
    dominated, violated = np.zeros((m, m), dtype=bool), np.zeros((m, m), dtype=bool)
    for i, a in enumerate(anchors):
        if set(a) != {"anchor", "dominated", "vacuous", "violations"}:
            raise InputError(f"anchor {i}: keys must be anchor, dominated, vacuous and violations")
        dom = a["dominated"]
        if not all(type(j) is int and 0 <= j < m for j in dom):
            raise InputError(f"anchor {i}: a dominated index is outside [0, {m})")
        if i in dom or dom != sorted(set(dom)):
            raise InputError(f"anchor {i}: dominated {dom} is not increasing or holds the anchor")
        if a["vacuous"] is not (not dom):
            raise InputError(f"anchor {i}: vacuous is {a['vacuous']!r} beside dominated {dom}")
        named = {v[1] for v in a["violations"] if type(v) is list and len(v) == 2 and v[0] == i and type(v[1]) is int}
        bad = [j for j in dom if j in named]
        if len(bad) != len(a["violations"]):
            raise InputError(f"anchor {i}: violations must be distinct [{i}, j] with j in its dominated list")
        dominated[i, dom] = violated[i, bad] = True
    if vacuous is not (not dominated.any()):
        raise InputError(f"vacuous is {vacuous!r}, but {dominated.sum()} pairs are dominated")
    return AxiomReport(dominated=dominated, violated=violated, **d)


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_HEAD_KEYS = ("axiom", "epsilon", "metadata", "min_margin", "passed", "slate_size", "vacuous")


def _row_texts(mask: np.ndarray, texts: list, sep: str) -> list[str]:
    """Each row of a square boolean matrix as the texts of its set columns
    joined by sep: one row-major nonzero and one join of the whole mask, cut
    at each row's bounds, the cumulative character counts (a text and its sep
    per cell). texts[j] is column j's text; it may hold more than the mask's
    columns."""
    m = len(mask)
    if not mask.any():
        return [""] * m
    columns = np.flatnonzero(mask) % m
    whole = sep.join(np.array(texts[:m], dtype=object)[columns].tolist())
    starts = np.zeros(len(columns) + 1, dtype=np.int64)  # cell k's text starts at starts[k]
    np.cumsum(np.array(list(map(len, texts[:m])))[columns] + len(sep), out=starts[1:])
    counts = mask.sum(axis=1)
    ends = np.cumsum(counts)
    first, stop = starts[ends - counts], starts[ends] - len(sep)
    return [whole[a:b] for a, b in zip(first.tolist(), np.maximum(first, stop).tolist())]


def _index_texts(reports) -> list[str]:
    """The text of every slate index of the largest report."""
    return [str(k) for k in range(max((r.slate_size for r in reports), default=0))]


def write_axiom_reports(path, reports) -> None:
    """axioms.json: ``[``, a line per report (its _HEAD_KEYS by the C encoder,
    then ``"anchors":[``) and per anchor (its row of both masks as index lists,
    cut by _row_texts), then ``]``."""
    t = _index_texts(reports)

    def block(report):
        violated = _row_texts(report.violated, t, ",")
        bad = [b and f"[{t[i]},{b.replace(',', '],[' + t[i] + ',')}]" for i, b in enumerate(violated)]
        anchors = ",".join(
            f'\n{{"anchor":{t[i]},"dominated":[{dom}],"vacuous":{"false" if dom else "true"},"violations":[{bad[i]}]}}'
            for i, dom in enumerate(_row_texts(report.dominated, t, ",")))
        return f'{_compact({k: getattr(report, k) for k in _HEAD_KEYS})[:-1]},"anchors":[{anchors}]}}'

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
