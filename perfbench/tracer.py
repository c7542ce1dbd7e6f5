"""Spans around prefaudit's public layer functions, and the per-layer
numbers derived from them.

The wrappers are installed on the module attributes the program looks
its layers up by (``prefaudit.pipeline.fit_mle``, ``prefaudit.distortion.nll``,
...), so spans follow the real call graph: a ``fit_mle`` span opened
inside ``audit_consistency`` is a block fit. Spans stay in memory and are
written once, at the end of the traced run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import prefaudit.distortion
import prefaudit.pipeline
from prefaudit.config import load_config
from prefaudit.distortion import DistortionReport
from prefaudit.pipeline import AXIOMS_FILE, DATASET_FILE, DISTORTION_FILE, STAGES, run_pipeline
from prefaudit.reports import emit_table
from prefaudit.serialize import axiom_report_from_dict, load_json


class Tracer:
    def __init__(self, **labels):
        self.labels = labels  # copied into every span
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {**self.labels, "id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr, name, describe=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if describe is not None:
                rec.update(describe(result))
            return result

        setattr(module, attr, traced)


def _fit_attrs(model):
    return {"iterations": model.iterations, "converged": model.converged}


# (module, attribute, span name, result -> span attributes)
WRAPPED = [
    (prefaudit.pipeline, "sample_voters", "population.sample_voters", None),
    (prefaudit.pipeline, "sample_alternatives", "population.sample_alternatives", None),
    (prefaudit.pipeline, "generate_dataset", "annotation.generate_dataset", lambda r: {"records": len(r)}),
    (prefaudit.pipeline, "write_records", "serialize.write_records", None),
    (prefaudit.pipeline, "read_records", "serialize.read_records", None),
    (prefaudit.pipeline, "fit_mle", "estimation.fit_mle", _fit_attrs),
    (prefaudit.pipeline, "audit_unanimity", "axioms.audit_unanimity", None),
    (prefaudit.pipeline, "audit_condorcet", "axioms.audit_condorcet", None),
    (prefaudit.pipeline, "audit_consistency", "axioms.audit_consistency", None),
    (prefaudit.pipeline, "worst_case_regret", "distortion.worst_case_regret", None),
    (prefaudit.distortion, "nll", "estimation.nll", None),
]


def _emit(out: Path) -> str:
    """The report table ``prefaudit run`` prints, rebuilt from the artifacts."""
    reports = [axiom_report_from_dict(d) for d in load_json(out / AXIOMS_FILE)]
    d = load_json(out / DISTORTION_FILE)
    distortion = DistortionReport(**d)
    return emit_table(reports, distortion)


def traced_run(config_path: str, out_dir: str, spans_path: str, workload: str, rep: int) -> dict:
    """Run every stage through ``run_pipeline`` under the wrappers.

    Returns the per-layer metrics and the traced wall time; the spans,
    labelled with the workload and repetition, go to ``spans_path``.
    """
    tracer = Tracer(workload=workload, rep=rep)
    for module, attr, name, describe in WRAPPED:
        tracer.wrap(module, attr, name, describe)
    out = Path(out_dir)
    with tracer.span("config.load_config"):
        config = load_config(config_path)
    for stage in STAGES:
        with tracer.span("pipeline." + stage):
            run_pipeline(config, out, stages=(stage,))
    with tracer.span("reports.emit_table"):
        _emit(out)
    top = [s for s in tracer.spans if s["parent"] is None]
    traced_s = top[-1]["end"] - top[0]["start"]
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return {"traced_s": traced_s, "layers": layer_metrics(tracer.spans, out)}


def layer_metrics(spans: list, out: Path) -> dict:
    """Per-layer times, counts and ratios of one traced run."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_s = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += dur[s["id"]]
    name_of = {s["id"]: s["name"] for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, self_time=False):
        return sum(dur[s["id"]] - (child_s[s["id"]] if self_time else 0.0) for s in named(name))

    fits = named("estimation.fit_mle")
    block = [s for s in fits if name_of.get(s["parent"]) == "axioms.audit_consistency"]
    main = [s for s in fits if s not in block]
    wasted = [s for s in block if not s["converged"]]
    records = sum(s["records"] for s in named("annotation.generate_dataset"))

    audits = load_json(out / AXIOMS_FILE)
    consistency = [a["metadata"] for a in audits if a["axiom"] == "consistency"]
    attempted = sum(m["num_partitions"] for m in consistency)
    skipped = sum(m["skipped_partitions"] for m in consistency)
    search = load_json(out / DISTORTION_FILE)["metadata"]
    regret_s = total("distortion.worst_case_regret")

    m = {f"pipeline.{stage}_s": total("pipeline." + stage) for stage in STAGES}
    m.update({
        "population.sample_s": total("population.sample_voters") + total("population.sample_alternatives"),
        "annotation.generate_s": total("annotation.generate_dataset"),
        "annotation.records": records,
        "annotation.records_per_s": records / total("annotation.generate_dataset"),
        "serialize.write_s": total("serialize.write_records"),
        "serialize.read_s": total("serialize.read_records"),
        "serialize.reads": len(named("serialize.read_records")),
        "serialize.dataset_bytes": (out / DATASET_FILE).stat().st_size,
        "estimation.fit_s": sum(dur[s["id"]] for s in main),
        "estimation.fit_iters": sum(s["iterations"] for s in main),
        "estimation.block_fits": len(block),
        "estimation.block_fit_s": sum(dur[s["id"]] for s in block),
        "estimation.block_fit_iters": sum(s["iterations"] for s in block),
        "estimation.block_fits_nonconverged": len(wasted),
        "estimation.block_fit_wasted_s": sum(dur[s["id"]] for s in wasted),
        "estimation.nll_calls": len(named("estimation.nll")),
        "estimation.nll_s": total("estimation.nll"),
        "axioms.unanimity_s": total("axioms.audit_unanimity"),
        "axioms.condorcet_s": total("axioms.audit_condorcet"),
        "axioms.consistency_s": total("axioms.audit_consistency", self_time=True),
        "axioms.partitions_used_ratio": (attempted - skipped) / attempted,
        "axioms.pairs_checked": sum(len(a["dominated"]) for r in audits for a in r["anchors"]),
        "distortion.regret_s": total("distortion.worst_case_regret", self_time=True),
        "distortion.hypotheses": search["hypotheses_evaluated"],
        "distortion.hypotheses_per_s": search["hypotheses_evaluated"] / regret_s,
        "distortion.consistent_ratio": search["consistent_count"] / search["hypotheses_evaluated"],
        "config.load_s": total("config.load_config"),
        "reports.emit_s": total("reports.emit_table"),
    })
    return m
