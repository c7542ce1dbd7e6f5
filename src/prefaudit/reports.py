"""Human-readable and machine-readable report emission.

The machine format is CSV with one row per (axiom, epsilon, anchor);
rows round-trip exactly through parse_rows. The human format prints one
pass/fail line per audit with margins and vacuity flags. Plot rendering
is out of scope: machine rows feed external plotters.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .axioms import AxiomReport
from .distortion import DistortionReport
from .errors import InputError
from .serialize import _index_texts, _row_texts, format_float

__all__ = ["rows_from_reports", "emit_rows", "parse_rows", "emit_table"]

ROW_FIELDS = ["axiom", "epsilon", "anchor", "status", "dominated", "violations", "margin"]


def rows_from_reports(reports: list[AxiomReport]) -> list[dict]:
    """One row per anchor of each report, its lists cut by serialize._row_texts;
    ``margin`` is the report's min_margin."""
    t = _index_texts(reports)
    return [
        {"axiom": rep.axiom, "epsilon": rep.epsilon, "anchor": i,
         "status": "FAIL" if bad else "PASS" if dom else "VACUOUS", "dominated": dom,
         "violations": bad and f"{t[i]}>{bad.replace(';', ';' + t[i] + '>')}", "margin": rep.min_margin}
        for rep in reports
        for i, (dom, bad) in enumerate(zip(_row_texts(rep.dominated, t, ";"), _row_texts(rep.violated, t, ";")))
    ]


def emit_rows(rows: list[dict]) -> str:
    """The CSV text of rows under a ROW_FIELDS header, epsilon and margin by
    format_float (a None margin empty). A row that holds the epsilon and margin
    objects of the row before it, as one report's rows do, reuses their texts."""

    def cells():
        held = None  # the last row's epsilon and margin, and their texts
        for r in rows:
            eps, margin = r["epsilon"], r["margin"]
            if held is None or eps is not held[0] or margin is not held[1]:
                held = eps, margin, format_float(eps), "" if margin is None else format_float(margin)
            yield r["axiom"], held[2], r["anchor"], r["status"], r["dominated"], r["violations"], held[3]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(ROW_FIELDS)
    writer.writerows(cells())
    return buf.getvalue()


def parse_rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ROW_FIELDS:
        raise InputError(f"unexpected row header: {reader.fieldnames}")
    return [{**{k: raw[k] for k in ROW_FIELDS}, "epsilon": float(raw["epsilon"]), "anchor": int(raw["anchor"]),
             "margin": None if raw["margin"] == "" else float(raw["margin"])} for raw in reader]


def emit_table(axiom_reports: list[AxiomReport], distortion: DistortionReport | None = None) -> str:
    """Per-audit pass/fail lines with margins and vacuity flags."""
    lines = [f"{'axiom':<12} {'epsilon':>8} {'status':>8} {'violations':>11} {'min margin':>12}"]
    for rep in axiom_reports:
        status = "FAIL" if not rep.passed else "VACUOUS" if rep.vacuous else "PASS"
        margin = "-" if rep.min_margin is None else f"{rep.min_margin:.6g}"
        lines.append(f"{rep.axiom:<12} {rep.epsilon:>8.3g} {status:>8} {rep.violated.sum():>11d} {margin:>12}")
        vacuous_anchors = np.flatnonzero(~rep.dominated.any(axis=1)).tolist()
        if vacuous_anchors and not rep.vacuous:
            lines.append(f"  vacuous anchors: {vacuous_anchors}")
        if "diagnostic" in rep.metadata:
            lines.append(f"  {rep.metadata['diagnostic']}")
    if distortion is not None:
        regret = (f"regret=UNDEFINED ({distortion.metadata.get('diagnostic', 'empty consistent set')})"
                  if distortion.regret is None else
                  f"regret={distortion.regret:.6g}  winner={distortion.learned_winner}")
        lines.append(f"distortion   delta={distortion.delta:g}  {regret}")
    return "\n".join(lines) + "\n"
