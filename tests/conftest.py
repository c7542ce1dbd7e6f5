import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prefaudit
from prefaudit.estimation import nll
from prefaudit.model import Dataset, VoterParams


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


def coordinate_dataset(voter, label, a0, a1, **scheme):
    """Dataset whose record k compares the points a0[k] and a1[k]: its
    slate lists every a0 point, then every a1 point."""
    a0, a1 = list(a0), list(a1)
    n = len(a0)
    return Dataset(voter=voter, label=label, slate=a0 + a1, i0=range(n), i1=range(n, n + len(a1)), **scheme)


def voter_records(voters):
    """The oracle's per-voter records of a Voters, one VoterParams per voter."""
    return [VoterParams(voter_id=i, theta=t) for i, t in zip(voters.ids.tolist(), voters.thetas)]


def random_records(rng, d, n, voter_ids=(0,)):
    """Small random dataset with arbitrary labels, for oracle checks."""
    rows = [
        (int(rng.choice(voter_ids)), rng.uniform(-1, 1, d), rng.uniform(-1, 1, d), int(rng.integers(0, 2)))
        for _ in range(n)
    ]
    voter, a0, a1, label = zip(*rows)
    return coordinate_dataset(voter, label, a0, a1)


def make_dataset(rows, voter=0, **scheme):
    """Dataset from (a0, a1, label) rows, every record by the same voter."""
    a0, a1, label = zip(*rows)
    return coordinate_dataset([voter] * len(label), label, a0, a1, **scheme)


def take(data, rows):
    """The records of data at the given row indices, in that order, over the same slate."""
    return replace(data, voter=data.voter[rows], label=data.label[rows], i0=data.i0[rows], i1=data.i1[rows])


def mirrored(data):
    """The records of data followed by a copy of each with the opposite label."""
    return replace(
        data,
        voter=np.concatenate([data.voter, data.voter]),
        label=np.concatenate([data.label, 1 - data.label]),
        i0=np.concatenate([data.i0, data.i0]),
        i1=np.concatenate([data.i1, data.i1]),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
