import numpy as np
import pytest

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


def grid(values, components=1):
    return mv.GridFunction(np.asarray(values, dtype=float), components)


def constant_trajectory(u, horizon, dt):
    """The trajectory that stays at u on the uniform grid of (horizon, dt)."""
    t_grid = time_grid(horizon, dt)
    return mv.Trajectory(t_grid, np.tile(u.values, (t_grid.size, 1)), u.components)
