"""Human-readable and machine-readable report emission.

The machine format is CSV with one row per (axiom, epsilon, anchor);
rows round-trip exactly through parse_rows. The human format prints one
pass/fail line per audit with margins and vacuity flags. Plot rendering
is out of scope: machine rows feed external plotters.
"""

from __future__ import annotations

import csv
import io

from .axioms import AxiomReport
from .distortion import DistortionReport
from .errors import InputError
from .serialize import format_float

__all__ = ["rows_from_reports", "emit_rows", "parse_rows", "emit_table"]

ROW_FIELDS = ["axiom", "epsilon", "anchor", "status", "dominated", "violations", "margin"]


def _anchor_status(anchor) -> str:
    if anchor.vacuous:
        return "VACUOUS"
    return "FAIL" if anchor.violations else "PASS"


def rows_from_reports(reports: list[AxiomReport]) -> list[dict]:
    rows = []
    for rep in reports:
        for anchor in rep.anchors:
            rows.append(
                {
                    "axiom": rep.axiom,
                    "epsilon": rep.epsilon,
                    "anchor": anchor.anchor,
                    "status": _anchor_status(anchor),
                    "dominated": ";".join(str(i) for i in anchor.dominated),
                    "violations": ";".join(f"{i}>{j}" for i, j in anchor.violations),
                    "margin": rep.min_margin,
                }
            )
    return rows


def emit_rows(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS)
    writer.writeheader()
    for row in rows:
        out = dict(row)
        out["epsilon"] = format_float(row["epsilon"])
        out["margin"] = "" if row["margin"] is None else format_float(row["margin"])
        writer.writerow(out)
    return buf.getvalue()


def parse_rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ROW_FIELDS:
        raise InputError(f"unexpected row header: {reader.fieldnames}")
    rows = []
    for raw in reader:
        rows.append(
            {
                "axiom": raw["axiom"],
                "epsilon": float(raw["epsilon"]),
                "anchor": int(raw["anchor"]),
                "status": raw["status"],
                "dominated": raw["dominated"],
                "violations": raw["violations"],
                "margin": None if raw["margin"] == "" else float(raw["margin"]),
            }
        )
    return rows


def emit_table(axiom_reports: list[AxiomReport], distortion: DistortionReport | None = None) -> str:
    """Per-audit pass/fail lines with margins and vacuity flags."""
    lines = []
    lines.append(f"{'axiom':<12} {'epsilon':>8} {'status':>8} {'violations':>11} {'min margin':>12}")
    for rep in axiom_reports:
        if not rep.passed:
            status = "FAIL"
        else:
            status = "VACUOUS" if rep.vacuous else "PASS"
        n_viol = sum(len(a.violations) for a in rep.anchors)
        margin = "-" if rep.min_margin is None else f"{rep.min_margin:.6g}"
        lines.append(f"{rep.axiom:<12} {rep.epsilon:>8.3g} {status:>8} {n_viol:>11d} {margin:>12}")
        vacuous_anchors = [a.anchor for a in rep.anchors if a.vacuous]
        if vacuous_anchors and not rep.vacuous:
            lines.append(f"  vacuous anchors: {vacuous_anchors}")
        if "diagnostic" in rep.metadata:
            lines.append(f"  {rep.metadata['diagnostic']}")
    if distortion is not None:
        if distortion.regret is None:
            lines.append(
                f"distortion   delta={distortion.delta:g}  regret=UNDEFINED "
                f"({distortion.metadata.get('diagnostic', 'empty consistent set')})"
            )
        else:
            lines.append(
                f"distortion   delta={distortion.delta:g}  regret={distortion.regret:.6g}  "
                f"winner={distortion.learned_winner}"
            )
    return "\n".join(lines) + "\n"
