"""Command-line interface.

Subcommands: simulate, fit, audit, distort, verify, run. All consume the
same JSON config file; --seed overrides the root seed and --out picks
the artifact directory; run and audit print only the reports this call
computed, from the RunDir run_pipeline returns. Exit status: 0 success,
1 validation/config error, 2 runtime or numeric error. A reward model
that did not converge adds one warning line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import config_from_dict, load_config
from .errors import ConfigError, InputError, PrefAuditError
from .model import VoterParams
from .oracle import AXIOM_MAX_SLATE, MLE_MAX_DIM, brute_force_mle, exhaustive_axiom_check, record_nll
from .pipeline import MODEL_FILE, STAGES, RunDir, run_pipeline
from .reports import emit_rows, emit_table, rows_from_reports
from .axioms import audit_condorcet, audit_unanimity


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prefaudit")
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (default: config output_dir or ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config root seed")
    parser.add_argument(
        "--format", choices=["table", "rows"], default="table", help="report format for audit/run"
    )
    parser.add_argument("command", choices=[*STAGES, "verify", "run"])
    return parser


def _verify(config, run: RunDir) -> int:
    """Cross-check fit_mle, at the model's own lambda, and the audits against
    the brute-force oracles, which share no code with them."""
    failures = 0
    slate, voters, model = run.slate, run.voters, run.model

    fit_nll = record_nll(model.theta_hat, run.dataset, model.lam)
    ok = math.isclose(model.final_nll, fit_nll, rel_tol=1e-9)
    print(f"fit NLL {model.final_nll:.6f} equals the oracle's NLL at theta_hat {fit_nll:.6f} "
          f"(rtol 1e-9): {'OK' if ok else 'FAIL'}")
    failures += 0 if ok else 1

    if config.dimension <= MLE_MAX_DIM:
        grid_nll = record_nll(brute_force_mle(run.dataset, model.lam), run.dataset, model.lam)
        ok = grid_nll >= model.final_nll - 1e-9
        print(f"brute-force MLE grid NLL {grid_nll:.6f} >= fit NLL {model.final_nll:.6f} - 1e-9: "
              f"{'OK' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    else:
        print(f"brute-force MLE check skipped (d={config.dimension} > {MLE_MAX_DIM})")

    if len(slate) <= AXIOM_MAX_SLATE:
        unanimity = audit_unanimity(model, slate, voters, config.epsilons)
        condorcet = audit_condorcet(model, slate, config.population, config.epsilons)
        records = [VoterParams(i, theta) for i, theta in zip(voters.ids.tolist(), voters.thetas)]
        for eps, uni, cond in zip(config.epsilons, unanimity, condorcet):
            for report, population in ((uni, records), (cond, config.population)):
                ok = report == exhaustive_axiom_check(model, slate, population, eps, report.axiom)
                print(f"{report.axiom} audit vs exhaustive oracle (eps={eps:g}): {'OK' if ok else 'FAIL'}")
                failures += 0 if ok else 1
    else:
        print(f"axiom oracle check skipped (slate size {len(slate)} > {AXIOM_MAX_SLATE})")
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
        if args.command == "verify":
            have_model = (out / MODEL_FILE).exists()
            run = RunDir(out) if have_model else run_pipeline(config, out, stages=("simulate", "fit"))
            failures = _verify(config, run)
        else:
            run = run_pipeline(config, out, STAGES if args.command == "run" else (args.command,))
            failures = 0
            if args.command in ("run", "audit"):
                if args.format == "rows":
                    sys.stdout.write(emit_rows(rows_from_reports(run.axioms)))
                else:
                    sys.stdout.write(emit_table(run.axioms, run.distortion))
        # only a model this call fitted or read: simulate and a skipped distort have none
        model = vars(run).get("model")
        if model is not None and not model.converged:
            print(f"warning: the reward model did not converge: {model.diagnostic}", file=sys.stderr)
        if failures:
            print(f"{failures} oracle check(s) failed", file=sys.stderr)
            return 2
    except (ConfigError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PrefAuditError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
