import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mevolve as mv
from mevolve.mild import time_grid


@pytest.fixture(scope="session")
def dirichlet8():
    return mv.build_laplacian_1d(8, "dirichlet")


@pytest.fixture(scope="session")
def neumann9():
    return mv.build_laplacian_1d(9, "neumann")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def fresh(problem):
    """A copy of the problem with an empty first-window memo, for a run
    that must march again (after a monkeypatch, or on another path)."""
    return dataclasses.replace(problem)


def grid(values, components=1):
    return mv.GridFunction(np.asarray(values, dtype=float), components)


def count_solvers(monkeypatch):
    """Record each call of scipy.linalg.eigh and eigh_tridiagonal by name."""
    calls = []
    for name in ("eigh", "eigh_tridiagonal"):
        solver = getattr(scipy.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            calls.append(_solver.__name__)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, counted)
    return calls


def dense_generator_matrix():
    """A 7 x 7 generator with every off-diagonal entry negative (seeded
    random) and strictly diagonally dominant rows."""
    rng = np.random.default_rng(3)
    off = -rng.uniform(0.1, 1.0, size=(7, 7))
    return off - np.diag(np.diag(off)) + np.diag(np.sum(np.abs(off), axis=1) + 1.0)


def constant_trajectory(u, horizon, dt):
    """The trajectory that stays at u on the uniform grid of (horizon, dt)."""
    t_grid = time_grid(horizon, dt)
    return mv.Trajectory(t_grid, np.tile(u.values, (t_grid.size, 1)), u.components)


def bench_module(name):
    """bench/<name>.py of the benchmark, imported without running it."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
