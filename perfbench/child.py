"""One measured repetition, run in a fresh interpreter by ``run.py``.

usage: child.py MODE LAUNCH_TIME [CONFIG OUT [SPANS WORKLOAD REP]]

MODE is ``setup`` (import only), ``run`` (one untraced
``prefaudit run``) or ``trace`` (one traced run, stage by stage).
LAUNCH_TIME is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so ``setup_s`` covers interpreter start-up plus
``import prefaudit.cli``. Nothing heavier than ``sys`` and ``time`` is
imported before that import. The ``setup`` mode then times one pass of
the fixed reference kernel (``ref_s``), so the parent can tell how fast
the host ran around the measured repetitions. The result is one JSON
line on stdout.
"""

import sys
import time

import prefaudit.cli

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[2])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv) -> dict:
    mode = argv[1]
    result = {"mode": mode, "setup_s": SETUP_S}
    if mode == "setup":
        from reference import reference_s

        result["ref_s"] = reference_s()
        return result
    config, out = argv[3], argv[4]
    if mode == "run":
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = prefaudit.cli.main(["--config", config, "--out", out, "run"])
        result["run_s"] = time.perf_counter() - t0
        result["exit_code"] = rc
    elif mode == "trace":
        from tracer import traced_run

        result.update(traced_run(config, out, argv[5], argv[6], int(argv[7])))
        result["exit_code"] = 0
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
