"""prefaudit benchmark: time whole ``prefaudit run`` invocations per workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a prefaudit checkout; the package is imported from
its ``src`` directory. One client, closed loop, one process at a time,
BLAS/OpenMP pinned to one thread. Every measured repetition is a fresh
interpreter (``child.py``), so ``setup_s`` and ``peak_rss_mb`` are what a
CLI user pays per invocation. Import-only launches between the
repetitions time ``setup_s`` and a fixed reference kernel
(``reference.py``); reported times are scaled to a host that runs the
kernel at a nominal speed, because a shared host's speed drifts by a
third within seconds. With ``--trace 1`` the run alternates untraced and
traced repetitions and reports per-layer metrics instead.
The workloads, their seed pools and the metric map are in
``workloads.json``. The last stdout line is the JSON result; the full
record (environment, samples, checks, fingerprint) is written under
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RUNS = ROOT / ".perfbench_runs"

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# import-only interpreters before the first repetition and after each one; they
# give the setup_s samples and the reference passes that rate the host's speed
SETUP_LAUNCHES_PER_REP = 3
MIN_RUNS = 3  # untraced repetitions per --trace 0 run, however short --seconds is
CHILD_TIMEOUT_S = 150
# About the median time of one reference_s() pass on a 2-vCPU Intel Xeon VM at
# 2.1 GHz. Times reported in s are scaled to a host that runs the pass this fast.
REF_NOMINAL_S = 0.25


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_per_s"):
        return name.rsplit(".", 1)[1].removesuffix("_per_s") + "/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def _at_reference_speed(metrics: dict, scale: float) -> dict:
    """Times multiplied by ``scale``, rates divided by it, counts and ratios as they are."""
    return {n: v * scale if _unit(n) == "s" else v / scale if n.endswith("_per_s") else v for n, v in metrics.items()}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, refname = line.partition(" ")
        if refname == name:
            return sha
    return None


def _source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "prefaudit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(numpy_version: str) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_pins": THREAD_PINS,
        "loadavg_start": os.getloadavg(),
    }


class Launcher:
    """Starts child.py in a fresh interpreter and waits for it to end."""

    def __init__(self):
        # an absolute src path, so the child imports the package from any cwd
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.env = {**os.environ, "PYTHONPATH": path, **THREAD_PINS}

    def __call__(self, mode: str, *args) -> tuple[dict | None, str]:
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, repr(launched), *map(str, args)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"killed after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0:
            return None, proc.stderr.strip()
        result = json.loads(proc.stdout.splitlines()[-1])
        if result.get("exit_code", 0) != 0:
            return None, f"prefaudit exited with {result['exit_code']}"
        return result, ""


def _percentile_with_tail(samples: list, tail: int = 10):
    """Highest percentile with at least ``tail`` samples above it, or None."""
    n = len(samples)
    if n <= tail:
        return None
    ordered = sorted(samples)
    return {"percentile": 100.0 * (n - tail) / n, "value": ordered[n - tail - 1]}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="index into the workload's seed pool (0 is seed 42)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "prefaudit" / "cli.py").is_file():
        print(f"error: no prefaudit sources under {SRC}; run from a prefaudit checkout", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in spec:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(spec)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from checks import artifact_digests, fingerprint, output_checks

    workload = spec[args.workload]
    pool = workload["seed_pool"]
    config = dict(workload["config"], seed=pool[args.seed % len(pool)])
    env = _environment(np.__version__)
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    launch = Launcher()

    warm, err = launch("setup")  # fills the bytecode cache; users do not pay compilation per run
    if warm is None:
        print(f"error: cannot import prefaudit.cli:\n{err}", file=sys.stderr)
        return 2
    setup, refs = [], []  # one (setup_s, ref_s) pair per import-only launch, in launch order

    def import_only_launches():
        for _ in range(SETUP_LAUNCHES_PER_REP):
            res, err = launch("setup")
            if res is None:
                return err
            setup.append(res["setup_s"])
            refs.append(res["ref_s"])
        return None

    kinds = ("run", "trace") if args.trace else ("run",)
    min_reps = MIN_RUNS if not args.trace else len(kinds)
    reps, errors = [], []
    start = time.monotonic()
    err = import_only_launches()
    while err is None:
        kind = kinds[len(reps) % len(kinds)]
        out = work / f"rep{len(reps)}"
        t0 = time.monotonic()
        extra = (work / f"spans{len(reps)}.json", args.workload, len(reps)) if kind == "trace" else ()
        res, rep_err = launch(kind, config_path, out, *extra)
        before = refs[-SETUP_LAUNCHES_PER_REP:]
        reps.append({"kind": kind, "out": out, "result": res})
        if res is None:
            errors.append(f"{kind} repetition {len(reps) - 1}: {rep_err}")
        err = import_only_launches()
        last = time.monotonic() - t0
        # the host's speed drifts within seconds, so judge it by the
        # reference passes timed just before and just after the repetition
        reps[-1]["ref_s"] = mean(before + refs[-SETUP_LAUNCHES_PER_REP:])
        if len(reps) >= min_reps and time.monotonic() + last > start + args.seconds:
            break
    if err is not None:
        print(f"error: import-only launch failed:\n{err}", file=sys.stderr)
        return 2
    measured_s = time.monotonic() - start

    ok_reps = [r for r in reps if r["result"] is not None]
    runs = [r for r in ok_reps if r["kind"] == "run"]
    traces = [r for r in ok_reps if r["kind"] == "trace"]
    if not runs or (args.trace and not traces):
        print("error: no repetition succeeded:\n" + "\n".join(errors), file=sys.stderr)
        return 1

    digests = [artifact_digests(r["out"]) for r in ok_reps]
    checks = output_checks(runs[0]["out"], config_path, digests)
    fp = fingerprint(runs[0]["out"], digests[0])
    for r in reps:
        shutil.rmtree(r["out"], ignore_errors=True)
    attempted = len(reps) + len(checks)
    failed = len(reps) - len(ok_reps) + sum(1 for _, ok in checks if not ok)

    run_s = [r["result"]["run_s"] for r in runs]
    # times at the reference host speed: each sample scaled by the reference
    # passes timed around it (see reference.py)
    run_scaled = [r["result"]["run_s"] * REF_NOMINAL_S / r["ref_s"] for r in runs]
    setup_scaled = [s * REF_NOMINAL_S / ref for s, ref in zip(setup, refs)]
    wall = {"run_s": median(run_s), "setup_s": median(setup), "ref_s": median(refs)}
    end_to_end = {
        "run_s": median(run_scaled),
        "setup_s": median(setup_scaled),
        "peak_rss_mb": median(r["result"]["peak_rss_mb"] for r in runs),
    }
    layers = {}
    if traces:
        samples = [_at_reference_speed(r["result"]["layers"], REF_NOMINAL_S / r["ref_s"]) for r in traces]
        layers = {name: median(s[name] for s in samples) for name in samples[0]}
        traced_s = median(r["result"]["traced_s"] * REF_NOMINAL_S / r["ref_s"] for r in traces)
        layers["trace.overhead_s"] = traced_s - end_to_end["run_s"]
    env["loadavg_end"] = os.getloadavg()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config": config,
        "environment": env,
        "measured_s": measured_s,
        "samples": {"run_s": run_scaled, "setup_s": setup_scaled},
        "wall_samples": {"run_s": run_s, "setup_s": setup, "ref_s": refs},
        "wall": wall,
        "run_s_tail": _percentile_with_tail(run_scaled),
        "end_to_end": end_to_end,
        "failed_ratio": failed / attempted,
        "per_layer": layers,
        "checks": [{"name": n, "passed": ok} for n, ok in checks],
        "errors": errors,
        "fingerprint": fp,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload}  config seed {config['seed']}  ({len(run_s)} runs, {len(traces)} traced, "
          f"{measured_s:.1f} s measuring)")
    print(f"environment {json.dumps(env)}")
    for name, value in end_to_end.items():
        print(f"  {name:<40} {value:>14.6g} {_unit(name)}")
    print(f"  host reference {wall['ref_s']:.6g} s (nominal {REF_NOMINAL_S} s); unscaled wall run_s "
          f"{wall['run_s']:.6g} s, setup_s {wall['setup_s']:.6g} s")
    tail = record["run_s_tail"]
    print(f"  run_s samples n={len(run_s)}; " + (
        f"p{tail['percentile']:.0f} {tail['value']:.6g} s" if tail else "no percentile with 10 samples beyond it"))
    print(f"  {'failed_ratio':<40} {record['failed_ratio']:>14.6g} 1  ({failed}/{attempted})")
    for name, value in layers.items():
        print(f"  {name:<40} {value:>14.6g} {_unit(name)}")
    for name, ok in checks:
        print(f"  check {'PASS' if ok else 'FAIL'}  {name}")
    for err in errors:
        print(f"  error {err}")
    print(f"fingerprint {json.dumps(fp)}")
    print(f"record {work / 'result.json'}")

    reported = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": _unit(name)} for name, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
