"""Command-line interface.

Subcommands: simulate, fit, audit, distort, verify, run. All consume the
same JSON config file; --seed overrides the root seed and --out picks
the artifact directory. Exit status: 0 success, 1 validation/config
error, 2 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import config_from_dict, load_config
from .errors import ConfigError, InputError, PrefAuditError
from .estimation import nll
from .oracle import brute_force_mle, exhaustive_axiom_check
from .pipeline import AXIOMS_FILE, DISTORTION_FILE, MODEL_FILE, RunDir, run_pipeline
from .reports import emit_rows, emit_table, rows_from_reports
from .serialize import axiom_report_from_dict, distortion_report_from_dict, load_json
from .axioms import audit_condorcet, audit_unanimity


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prefaudit")
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (default: config output_dir or ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config root seed")
    parser.add_argument(
        "--format", choices=["table", "rows"], default="table", help="report format for audit/run"
    )
    parser.add_argument("command", choices=["simulate", "fit", "audit", "distort", "verify", "run"])
    return parser


def _emit(args, out: Path) -> None:
    reports = [axiom_report_from_dict(d) for d in load_json(out / AXIOMS_FILE)]
    if args.format == "rows":
        sys.stdout.write(emit_rows(rows_from_reports(reports)))
    else:
        distortion = None
        if (out / DISTORTION_FILE).exists():
            distortion = distortion_report_from_dict(load_json(out / DISTORTION_FILE))
        sys.stdout.write(emit_table(reports, distortion))


def _verify(config, run: RunDir) -> int:
    """Cross-check fit_mle and the audits against the brute-force oracles."""
    failures = 0
    slate, voters, model = run.slate, run.voters, run.model

    if config.dimension <= 3:
        grid_opt = brute_force_mle(run.dataset, config.lam)
        grid_nll = nll(grid_opt, run.dataset, config.lam)
        ok = grid_nll >= model.final_nll - 1e-9
        print(f"brute-force MLE grid NLL {grid_nll:.6f} >= fit NLL {model.final_nll:.6f} - 1e-9: "
              f"{'OK' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    else:
        print(f"brute-force MLE check skipped (d={config.dimension} > 3)")

    if len(slate) <= 50:
        unanimity = audit_unanimity(model, slate, voters, config.epsilons)
        condorcet = audit_condorcet(model, slate, config.population, config.epsilons)
        for eps, uni, cond in zip(config.epsilons, unanimity, condorcet):
            for report, population in ((uni, voters), (cond, config.population)):
                oracle = exhaustive_axiom_check(model, slate, population, eps, report.axiom)
                ok = (report.anchors, report.passed, report.min_margin) == (
                    oracle.anchors, oracle.passed, oracle.min_margin)
                print(f"{report.axiom} audit vs exhaustive oracle (eps={eps:g}): {'OK' if ok else 'FAIL'}")
                failures += 0 if ok else 1
    else:
        print(f"axiom oracle check skipped (slate size {len(slate)} > 50)")
    return failures


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            raw = dict(config.raw)
            raw["seed"] = args.seed
            config = config_from_dict(raw)
        out = Path(args.out or config.raw.get("output_dir", "out"))
        if args.command == "run":
            run_pipeline(config, out)
            _emit(args, out)
        elif args.command == "verify":
            if not (out / MODEL_FILE).exists():
                run_pipeline(config, out, stages=("simulate", "fit"))
            failures = _verify(config, RunDir(out))
            if failures:
                print(f"{failures} oracle check(s) failed", file=sys.stderr)
                return 2
        elif args.command == "simulate":
            run_pipeline(config, out, stages=("simulate",))
        elif args.command == "fit":
            run_pipeline(config, out, stages=("fit",))
        elif args.command == "audit":
            run_pipeline(config, out, stages=("audit",))
            _emit(args, out)
        elif args.command == "distort":
            run_pipeline(config, out, stages=("distort",))
    except (ConfigError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PrefAuditError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
