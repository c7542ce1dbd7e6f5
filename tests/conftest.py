import os
from pathlib import Path

import numpy as np
import pytest

import prefaudit
from prefaudit.estimation import nll
from prefaudit.model import Dataset


def central_difference_gradient(theta, data, lam, h=1e-5):
    """Independent finite-difference oracle for the NLL gradient."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        grad[j] = (nll(theta + e, data, lam) - nll(theta - e, data, lam)) / (2 * h)
    return grad


def cli_env(**overrides):
    """Environment for a child `python -m prefaudit.cli` process.

    The directory that holds the `prefaudit` package this test process
    imported goes first on the child's PYTHONPATH, so the child imports the
    same package whatever its cwd is and however the package was made
    importable here (an editable install or a relative `PYTHONPATH=src`).
    Keyword arguments override or add environment variables.
    """
    package_root = str(Path(prefaudit.__file__).resolve().parent.parent)
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def random_records(rng, d, n, voter_ids=(0,)):
    """Small random dataset with arbitrary labels, for oracle checks."""
    rows = [
        (int(rng.choice(voter_ids)), rng.uniform(-1, 1, d), rng.uniform(-1, 1, d), int(rng.integers(0, 2)))
        for _ in range(n)
    ]
    voter, a0, a1, label = zip(*rows)
    return Dataset(voter=voter, label=label, a0=a0, a1=a1)


def make_dataset(rows, voter=0, **scheme):
    """Dataset from (a0, a1, label) rows, every record by the same voter."""
    a0, a1, label = zip(*rows)
    return Dataset(voter=[voter] * len(label), label=label, a0=a0, a1=a1, **scheme)


def mirrored(data):
    """The records of data followed by a copy of each with the opposite label."""
    return Dataset(
        voter=np.concatenate([data.voter, data.voter]),
        label=np.concatenate([data.label, 1 - data.label]),
        a0=np.concatenate([data.a0, data.a0]),
        a1=np.concatenate([data.a1, data.a1]),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
