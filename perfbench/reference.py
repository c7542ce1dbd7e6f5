"""A fixed reference kernel that measures how fast the host runs right now.

The kernel does the kinds of work prefaudit's hot paths do, in this
file's own code so that no change to prefaudit changes it: a per-record
Python loop that parses text and builds small arrays (record reading,
delta building), a gradient loop of small-array numpy calls (the fits),
and broadcasts over an 11 MiB temporary (the axiom audits). Its inputs
are fixed, so its time changes only with the host's speed.
"""

import time

import numpy as np

_rng = np.random.default_rng(20240420)
_X = _rng.normal(size=(1000, 3))
_LINES = [f"a0={a:.6f},{b:.6f},{c:.6f} a1={c:.6f},{a:.6f},{b:.6f} label={i % 2}" for i, (a, b, c) in enumerate(_X)]
_VOTERS = _rng.normal(size=(100, 2))
_ALTS = _rng.uniform(size=(2, 120))


def _parse():
    rows = []
    for line in _LINES:
        f = dict(tok.split("=", 1) for tok in line.split())
        a0 = np.array(f["a0"].split(","), dtype=np.float64)
        a1 = np.array(f["a1"].split(","), dtype=np.float64)
        rows.append(a1 - a0 if f["label"] == "1" else a0 - a1)
    return np.stack(rows)


def _descend(deltas):
    theta = np.zeros(deltas.shape[1])
    for _ in range(1500):
        z = deltas @ theta
        q = 1.0 / (1.0 + np.exp(np.clip(z, -30.0, 30.0)))
        grad = -(q[:, None] * deltas).sum(axis=0) + 0.02 * theta
        theta = theta - 1e-3 * grad
        float(np.sum(np.logaddexp(0.0, -z)))
    return theta


def _broadcast():
    rewards = _VOTERS @ _ALTS
    return [float(np.min(rewards[:, :, None] - rewards[:, None, :], axis=0).sum()) for _ in range(18)]


def reference_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(15):
        deltas = _parse()
    _descend(deltas)
    _broadcast()
    return time.perf_counter() - t0
