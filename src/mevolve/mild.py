"""Trajectories, the march's shift and the variation-of-constants map.

A trajectory holds states on a uniform time grid.  The march writes
du/dt + A u = F(u) as du/dt + A_mu u = G(u), with A_mu = A + mu*I and G =
F + mu*id for one constant mu >= 0 (`march_shift`, the device of C. V. Pao,
Nonlinear Parabolic and Elliptic Equations, Plenum 1992): mu makes G
increasing on the order interval and A_mu's spectrum positive, and leaves
the solutions unchanged.  mu belongs to the method, so a problem holds A
and F alone, and the march applies mu.  The discrete mild solutions are the
trajectories with u(t_0) = u0 and, on every step,

    u_{k+1} = P u_k + W0 G(u_k) + W1 G(u_{k+1}),     P = e^{-dt A_mu},

the exponential trapezoid rule (Hochbruck & Ostermann, Acta Numerica 19,
2010; Cox & Matthews, J. Comput. Phys. 176, 2002): the mild solution's
integral over one step, int_0^dt e^{-(dt-s)A_mu} G(u(t_k + s)) ds, with G
interpolated linearly between the step's nodes.  W1 = dt phi2(-dt A_mu)
weights the right node and W0 = dt (phi1 - phi2)(-dt A_mu) the left one
(`generators.trapezoid_weights`); both are integrals of the positive
semigroup against nonnegative weights, and W0 + W1 = B = A_mu^{-1}(I - P).
Every factor (P, W0, W1 and the shifted reaction term) is
order-preserving, so the relation can be solved monotonically, and an
equilibrium is a fixed point of every step; `monotone.iterate` solves it
step by step.  The rule is second order in dt.  Keeping the right node
implicit keeps the extremal branches of non-Lipschitz problems apart (an
explicit rule would collapse them onto the equilibrium).

`picard_step` applies the relation to a whole trajectory at once,

    t_k -> e^{-t_k A_mu} u0
           + sum_j e^{-(t_k - t_{j+1}) A_mu} (W0 G(u(t_j)) + W1 G(u(t_{j+1}))),

whose fixed points are exactly the discrete mild solutions; it backs
`mild_residual` and serves as an independent oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

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

STABILITY_FLOOR = 0.1  # the march's A + mu*I keeps min eigenvalue >= this
_EPS = np.finfo(float).eps


def _uniform(steps: np.ndarray) -> bool:
    """np.allclose(steps, steps[0], rtol=1e-9, atol=0.0) without its
    overhead: every step within 1e-9 relative of the first (a NaN fails),
    or, for an infinite first step, every step equal to it."""
    first = steps[0]
    if math.isinf(first):
        return bool((steps == first).all())
    return bool(np.abs(steps - first).max() <= 1e-9 * abs(first))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States on a uniform time grid.  Immutable: it keeps read-only float
    copies of its arrays, and `trajectory_to_csv` keeps its text on it;
    equality and hashing are by identity."""

    t_grid: np.ndarray
    states: np.ndarray
    components: int = 1
    _csv: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "t_grid", np.array(self.t_grid, dtype=float))
        object.__setattr__(self, "states", np.atleast_2d(np.array(self.states, dtype=float)))
        if self.states.shape[0] != self.t_grid.size:
            raise DimensionMismatchError("one state per time node required")
        steps = np.diff(self.t_grid)
        if self.t_grid.size < 2 or np.any(steps <= 0):
            raise ValidationError("time grid must be increasing with dt > 0")
        if not _uniform(steps):
            raise ValidationError("time grid must be uniform")
        self.t_grid.flags.writeable = self.states.flags.writeable = False

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


@dataclass(frozen=True)
class ProblemSpec:
    """Data of the evolution problem du/dt + A u = F(u) on an order interval.

    A and F are the problem's own; the march's shift mu is no part of it
    (`march_shift`).  A must not couple components of opposite cone sign.

    Frozen: `monotone` memoizes the march over the first window by
    tolerance in `_first_windows`, and that march depends on every field.
    The march holds arrays, the interval, the reaction term and the
    trajectories it handed out (immutable, each with its CSV text once
    written), nothing that refers back to a problem.  The memo is no init
    field, so a copy made by `dataclasses.replace` gets a memo of its own.
    """

    A: GeneratorSpec
    F: Nonlinearity
    interval: OrderInterval
    horizon: float = 1.0
    dt: float = 1e-2
    _first_windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.interval.dim != self.A.dim:
            raise DimensionMismatchError("interval and generator dimensions differ")
        if self.F.components != self.interval.components:
            raise DimensionMismatchError("nonlinearity/interval component mismatch")
        # S A S (S the cone signs) must keep A's nonpositive off-diagonal, so
        # that the step weights and (A + mu)^-1 stay positive in the cone
        svec = self.interval.cone.sign_vector(self.interval.lower.n_points)
        if np.any(self.A.matrix[np.not_equal.outer(svec, svec)]):
            raise ValidationError("generator couples components of opposite cone sign")

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """The reaction term F(u), vectorized over rows."""
        return self.F.eval_shifted(values, 0.0)

    def equilibrium_residual(self, u: GridFunction) -> float:
        """Sup norm of A u - F(u)."""
        return monotone_norm(self.A.matrix @ u.values - self.rhs(u.values))


def defect_slack(a: GeneratorSpec, u: GridFunction | np.ndarray, f_values: np.ndarray) -> float:
    """Round-off floor for evaluating A u - F(u) entrywise."""
    scale = a.inf_norm() * monotone_norm(u)
    scale = max(scale, float(np.max(np.abs(f_values))), 1.0)
    return max(TOL_ORDER, 32.0 * _EPS * scale)


def march_shift(problem: ProblemSpec) -> float:
    """The march's shift mu >= 0, the one place that decides it.

    mu certifies G = F + mu*id increasing on the interval
    (`quasi_increasing_shift`) and lifts the smallest eigenvalue of A + mu*I
    to at least STABILITY_FLOOR, so that its semigroup is exponentially
    stable and the step weights (`GeneratorSpec.propagators`) apply.
    """
    mu_qi = quasi_increasing_shift(problem.F, problem.interval)
    return max(0.0, mu_qi, STABILITY_FLOOR - problem.A.min_eigenvalue())


def picard_step(problem: ProblemSpec, u0: GridFunction, traj: Trajectory) -> Trajectory:
    """One application of the integral fixed-point map to a trajectory:
    u_{k+1} = P u_k + W0 G(v_k) + W1 G(v_{k+1}) from u_0 = u0, v the
    argument's states, with the march's shift mu (`march_shift`).

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
    mu = march_shift(problem)
    p_mat, w0, w1 = problem.A.propagators(traj.dt, mu)
    # W0 G(v_k) + W1 G(v_{k+1}) for every step at once
    g = problem.F.eval_shifted(clamp_values(traj.states, interval), mu)
    source = g[:-1] @ w0.T + g[1:] @ w1.T
    out = np.empty_like(traj.states)
    out[0] = u0_values
    v = u0_values
    buf = np.empty_like(v)
    for k in range(traj.n_steps):
        np.dot(p_mat, v, out=buf)
        buf += source[k]
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


CSV_BLOCK_VALUES = 4096  # bounds the Python floats alive at once while rendering


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write t and the states, one row per node, floats as repr, CRLF rows;
    the text is rendered on a trajectory's first write and kept on it."""
    text = traj._csv
    if text is None:
        n = traj.states.shape[1] // traj.components
        parts = [",".join(csv_header(n, traj.components)) + "\r\n"]
        rows = max(1, CSV_BLOCK_VALUES // (traj.states.shape[1] + 1))
        for start in range(0, traj.t_grid.size, rows):
            stop = start + rows
            block = np.column_stack([traj.t_grid[start:stop], traj.states[start:stop]])
            # one flat list of reprs, cut into rows by zipping one iterator
            # width times: no Python generator step per row
            values = map(repr, block.ravel().tolist())
            parts.append("\r\n".join(map(",".join, zip(*[values] * block.shape[1]))) + "\r\n")
        text = "".join(parts)
        object.__setattr__(traj, "_csv", text)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def trajectory_from_csv(path, components: int = 1) -> Trajectory:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    return Trajectory(data[:, 0], data[:, 1:], components)
