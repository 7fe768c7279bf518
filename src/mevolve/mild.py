"""Trajectories, problem scaling and the variation-of-constants map.

A trajectory holds states on a uniform time grid.  The discrete mild
solutions are the trajectories with u(t_0) = u0 and, on every step,

    u_{k+1} = P u_k + B G(u_{k+1}),     P = e^{-dt A},  B = A^{-1}(I - P),

the implicit exponential-Euler relation (B is the exact one-step integral of
the semigroup, with G = F + mu*id frozen at the step's right node).  Every
factor (P, B and the shifted reaction term) is order-preserving, so the
relation can be solved monotonically; `monotone.iterate` solves it step by
step.  Freezing F at the right node keeps the extremal branches of
non-Lipschitz problems (an explicit left-node rule would collapse them onto
the equilibrium).

`picard_step` applies the relation to a whole trajectory at once,

    t_k -> e^{-t_k A} u0 + sum_j e^{-(t_k - t_{j+1}) A} B F(u(t_{j+1})),

whose fixed points are exactly the discrete mild solutions; it backs
`mild_residual` and serves as an independent oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import generators
from .errors import DimensionMismatchError, ValidationError
from .generators import GeneratorSpec
from .nonlin import Nonlinearity, quasi_increasing_shift
from .order import (
    TOL_ORDER,
    GridFunction,
    OrderInterval,
    clamp_values,
    monotone_norm,
    order_slack,
)

STABILITY_FLOOR = 0.1  # scaled problems keep min eigenvalue >= this
_EPS = np.finfo(float).eps


@dataclass
class Trajectory:
    t_grid: np.ndarray
    states: np.ndarray
    components: int = 1

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.states.shape[0] != self.t_grid.size:
            raise DimensionMismatchError("one state per time node required")
        steps = np.diff(self.t_grid)
        if self.t_grid.size < 2 or np.any(steps <= 0):
            raise ValidationError("time grid must be increasing with dt > 0")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValidationError("time grid must be uniform")

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    @property
    def horizon(self) -> float:
        return float(self.t_grid[-1])

    @property
    def n_steps(self) -> int:
        return self.t_grid.size - 1

    def state(self, k: int) -> GridFunction:
        return GridFunction(self.states[k].copy(), self.components)

    def terminal(self) -> GridFunction:
        return self.state(self.n_steps)


def time_grid(horizon: float, dt: float) -> np.ndarray:
    if dt <= 0 or horizon <= 0:
        raise ValidationError("horizon and dt must be positive")
    k = max(1, int(round(horizon / dt)))
    return dt * np.arange(k + 1)


@dataclass
class ProblemSpec:
    """Data of the evolution problem du/dt + A u = F(u) on an order interval.

    `mu` is the accumulated quasi-increasing shift: the generator already
    contains +mu*I and the effective reaction term is F + mu*id, so fixed
    points and equilibria coincide with the unshifted problem.
    """

    A: GeneratorSpec
    F: Nonlinearity
    interval: OrderInterval
    mu: float = 0.0
    horizon: float = 1.0
    dt: float = 1e-2

    def __post_init__(self):
        if self.interval.dim != self.A.dim:
            raise DimensionMismatchError("interval and generator dimensions differ")
        if self.F.components != self.interval.components:
            raise DimensionMismatchError("nonlinearity/interval component mismatch")

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """Shifted reaction term F(u) + mu*u, vectorized over rows."""
        return self.F.eval_shifted(values, self.mu)

    def equilibrium_residual(self, u: GridFunction) -> float:
        """Sup norm of A u - F(u); shift-independent."""
        return monotone_norm(self.A.matrix @ u.values - self.rhs(u.values))


def defect_slack(a: GeneratorSpec, u: GridFunction | np.ndarray, f_values: np.ndarray) -> float:
    """Round-off floor for evaluating A u - F(u) entrywise."""
    scale = a.inf_norm() * monotone_norm(u)
    scale = max(scale, float(np.max(np.abs(f_values))), 1.0)
    return max(TOL_ORDER, 32.0 * _EPS * scale)


def scale_problem(problem: ProblemSpec, mu: float) -> ProblemSpec:
    """Shift A by +mu*I and F by +mu*id; the solution set is unchanged."""
    if mu < 0:
        raise ValidationError("shift must be >= 0")
    if mu == 0.0:
        return problem
    return replace(problem, A=generators.shifted(problem.A, mu), mu=problem.mu + mu)


def auto_scale(problem: ProblemSpec, floor: float = STABILITY_FLOOR) -> ProblemSpec:
    """Apply the engine's scaling policy.

    The total shift must certify F + mu*id increasing on the interval and
    push the generator's smallest eigenvalue to at least `floor` so that the
    one-step integral B exists and the scaled semigroup is exponentially
    stable.
    """
    mu_qi = quasi_increasing_shift(problem.F, problem.interval)
    need_monotone = mu_qi - problem.mu
    need_stable = floor - problem.A.min_eigenvalue()
    delta = max(0.0, need_monotone, need_stable)
    return scale_problem(problem, delta)


def picard_step(problem: ProblemSpec, u0: GridFunction, traj: Trajectory) -> Trajectory:
    """One application of the integral fixed-point map to a trajectory.

    The argument trajectory is clamped to the order interval before the
    reaction term is evaluated (its certificates are interval-local); an
    initial value that needs clamping beyond round-off draws a warning.
    """
    interval = problem.interval
    if traj.states.shape[1] != problem.A.dim:
        raise DimensionMismatchError("trajectory dimension does not match problem")
    slack = order_slack(interval.value_scale(), interval.dim)
    u0_values = clamp_values(u0.values, interval)
    if monotone_norm(u0_values - u0.values) > slack:
        warnings.warn("initial value clamped to the order interval", stacklevel=2)
    p_mat, b_mat = problem.A.propagators(traj.dt)
    # B F(u(t_{k+1})) for every step at once
    source = problem.rhs(clamp_values(traj.states, interval)) @ b_mat.T
    out = np.empty_like(traj.states)
    out[0] = u0_values
    v = u0_values
    buf = np.empty_like(v)
    for k in range(traj.n_steps):
        np.dot(p_mat, v, out=buf)
        buf += source[k + 1]
        out[k + 1] = buf
        v = out[k + 1]
    return Trajectory(traj.t_grid, out, traj.components)


def mild_residual(problem: ProblemSpec, traj: Trajectory) -> float:
    """Sup-over-grid defect of the integral equation, ||u - sweep(u)||."""
    image = picard_step(problem, traj.state(0), traj)
    return float(np.max(np.abs(traj.states - image.states)))


# -- serialization -----------------------------------------------------------


def csv_header(n_points: int, components: int) -> list[str]:
    if components == 1:
        return ["t"] + [f"node_{i}" for i in range(n_points)]
    return ["t"] + [
        f"node_{i}_c{c}" for c in range(components) for i in range(n_points)
    ]


CSV_BLOCK_VALUES = 4096  # bounds the Python floats alive at once while writing


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write t and the states, one row per node, floats as repr, CRLF rows."""
    n = traj.states.shape[1] // traj.components
    with open(path, "w", newline="") as fh:
        fh.write(",".join(csv_header(n, traj.components)) + "\r\n")
        rows = max(1, CSV_BLOCK_VALUES // (traj.states.shape[1] + 1))
        for start in range(0, traj.t_grid.size, rows):
            stop = start + rows
            block = np.column_stack([traj.t_grid[start:stop], traj.states[start:stop]])
            # one flat list of reprs, cut into rows by zipping one iterator
            # width times: no Python generator step per row
            values = map(repr, block.ravel().tolist())
            fh.write("\r\n".join(map(",".join, zip(*[values] * block.shape[1]))) + "\r\n")


def trajectory_from_csv(path, components: int = 1) -> Trajectory:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    return Trajectory(data[:, 0], data[:, 1:], components)
