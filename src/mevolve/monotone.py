"""Monotone lower/upper iteration between sub- and super-solutions.

Both sequences start from the constant trajectories at the interval bounds;
the lower one runs the fixed-point map from the initial value u0, the upper
one from its own initial value u0_upper >= u0 (default u0).  Positivity of
every quadrature factor keeps the full ordering chain

    lower bound <= w_n <= w_{n+1} <= W_{m+1} <= W_m <= upper bound

valid at round-off level on every time node of every iteration; the engine
tracks the worst signed violation and aborts if it ever exceeds the
floating-point-aware slack.  Limits are the minimal/maximal trajectories;
extending the horizon window by window until the terminal increment stalls
yields the extremal equilibria, which are Newton-polished and cross-checked
for minimality/maximality against independently found equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .mild import (
    ProblemSpec,
    Trajectory,
    auto_scale,
    constant_trajectory,
    picard_step,
)
from .order import (
    GridFunction,
    OrderInterval,
    clamp_values,
    monotone_norm,
    order_slack,
    order_violation,
)

MAX_CLAMP_FRACTION = 1e-3  # > 0.1% genuinely clamped entries fails a run


@dataclass
class IterationReport:
    n_iters: int
    converged: bool
    tol: float
    mu_applied: float
    distances_lower: np.ndarray
    distances_upper: np.ndarray
    sandwich_violations: np.ndarray
    worst_violation: float
    u_min: Trajectory
    u_max: Trajectory
    unique_flag: bool
    clamp_fraction: float
    stored: dict = field(repr=False)

    @property
    def distances(self) -> np.ndarray:
        return np.maximum(self.distances_lower, self.distances_upper)


def _violation(first: np.ndarray, second: np.ndarray, svec: np.ndarray) -> float:
    """Worst signed violation of first <= second; arguments broadcast."""
    return float(np.max(-(svec * (second - first))))


def _bound_deficit(problem: ProblemSpec, svec: np.ndarray) -> float:
    """How far the interval bounds miss their sub/super-solution inequalities.

    Numerically certified bounds can carry small negative margins (eigenvector
    and Newton-polish residuals); that deficit propagates into the iterates
    through the step integral, so the sandwich breach guard must allow it.
    Shift-invariant: uses the problem's own (possibly scaled) data.
    """
    itv = problem.interval
    a = problem.A.matrix
    m_low = np.min(svec * (problem.rhs(itv.lower.values) - a @ itv.lower.values))
    m_up = np.min(svec * (a @ itv.upper.values - problem.rhs(itv.upper.values)))
    return max(0.0, -float(m_low), -float(m_up))


def iterate(
    problem: ProblemSpec,
    u0: GridFunction,
    tol: float = 1e-9,
    max_iter: int = 2000,
    u0_upper: GridFunction | None = None,
) -> IterationReport:
    """Run both iteration sequences until consecutive sup-distances drop
    below tol; returns the sandwiched minimal/maximal trajectories.

    u_min is the minimal solution from u0, u_max the maximal one from
    u0_upper (default u0; must lie above u0 in the cone order).  unique_flag
    says they agree within 10*tol, so for distinct initial values it is set
    only when those agree within 10*tol too.

    The problem is scaled on entry (quasi-increasing shift plus stability
    floor); fixed points are unaffected.  Raises NumericalError on a sandwich
    breach or when more than MAX_CLAMP_FRACTION of evaluated entries needed
    clamping beyond round-off.
    """
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")
    if u0_upper is None:
        u0_upper = u0
    interval = problem.interval
    scaled = auto_scale(problem)
    svec = interval.cone.sign_vector(interval.lower.n_points)
    base_slack = order_slack(interval.value_scale(), interval.dim)
    # the breach guard additionally allows the bounds' own certificate deficit
    slack = max(base_slack, 12.0 * _bound_deficit(scaled, svec))
    if order_violation(u0, u0_upper, interval.cone) > slack:
        raise ValidationError("u0_upper must lie above u0 in the cone order")

    lower = constant_trajectory(interval.lower, problem.horizon, problem.dt)
    upper = constant_trajectory(interval.upper, problem.horizon, problem.dt)
    lower_prev, upper_prev = lower, upper
    clamp_stats: dict = {}
    dist_low, dist_up, violations = [], [], []
    converged = False

    # degenerate interval: both bounds coincide and must be an equilibrium;
    # the constant trajectories are then both limits and no sweep runs
    if monotone_norm(interval.upper.values - interval.lower.values) <= base_slack:
        res = problem.equilibrium_residual(interval.lower)
        if res > max(100.0 * base_slack * monotone_norm(problem.A.matrix), 1e-8):
            raise ValidationError(
                f"degenerate interval is not an equilibrium (residual {res:.3e})"
            )
        dist_low, dist_up, violations = [0.0], [0.0], [0.0]
        converged, max_iter = True, 0

    for _ in range(max_iter):
        lower_next = picard_step(scaled, u0, lower, clamp_stats, slack=slack)
        upper_next = picard_step(scaled, u0_upper, upper, clamp_stats, slack=slack)
        d_low = float(np.max(np.abs(lower_next.states - lower.states)))
        d_up = float(np.max(np.abs(upper_next.states - upper.states)))
        worst = max(
            _violation(interval.lower.values, lower_next.states, svec),
            _violation(lower.states, lower_next.states, svec),
            _violation(lower_next.states, upper_next.states, svec),
            _violation(upper_next.states, upper.states, svec),
            _violation(upper_next.states, interval.upper.values, svec),
        )
        if worst > slack:
            raise NumericalError(
                f"sandwich invariant breached: violation {worst:.3e} > slack {slack:.3e}"
            )
        dist_low.append(d_low)
        dist_up.append(d_up)
        violations.append(worst)
        lower_prev, upper_prev = lower, upper
        lower, upper = lower_next, upper_next
        if d_low < tol and d_up < tol:
            converged = True
            break

    clamped = clamp_stats.get("clamped", 0)
    total = max(1, clamp_stats.get("total", 1))
    clamp_fraction = clamped / total
    if clamp_fraction > MAX_CLAMP_FRACTION:
        raise NumericalError(
            f"{100 * clamp_fraction:.3f}% of evaluations left the order interval"
        )

    gap = float(np.max(np.abs(upper.states - lower.states)))
    return IterationReport(
        n_iters=len(dist_low), converged=converged, tol=tol, mu_applied=scaled.mu,
        distances_lower=np.asarray(dist_low), distances_upper=np.asarray(dist_up),
        sandwich_violations=np.asarray(violations),
        worst_violation=float(np.max(violations)),
        u_min=lower, u_max=upper, unique_flag=bool(gap <= 10.0 * tol),
        clamp_fraction=clamp_fraction,
        stored={
            "interval": interval, "slack": slack,
            "lower_prev": lower_prev, "upper_prev": upper_prev,
        },
    )


def certify_sandwich(report: IterationReport) -> tuple[bool, float]:
    """Re-check the ordering chain on the final and previous iterates; (ok, worst)."""
    stored = report.stored
    interval = stored["interval"]
    svec = interval.cone.sign_vector(interval.lower.n_points)
    chain = [
        (interval.lower.values, stored["lower_prev"].states),
        (stored["lower_prev"].states, report.u_min.states),
        (report.u_min.states, report.u_max.states),
        (report.u_max.states, stored["upper_prev"].states),
        (stored["upper_prev"].states, interval.upper.values),
    ]
    worst = max(_violation(a, b, svec) for a, b in chain)
    worst = float(max(worst, report.worst_violation))
    return bool(worst <= stored["slack"]), worst


def time_monotonicity_violation(traj: Trajectory, interval: OrderInterval, direction: str) -> float:
    """Worst node-to-node violation of increasing/decreasing in the cone."""
    svec = interval.cone.sign_vector(interval.lower.n_points)
    if direction == "increasing":
        return _violation(traj.states[:-1], traj.states[1:], svec)
    if direction == "decreasing":
        return _violation(traj.states[1:], traj.states[:-1], svec)
    raise ValidationError("direction must be 'increasing' or 'decreasing'")


def extremal_trajectories(
    problem: ProblemSpec, tol: float = 1e-9, max_iter: int = 2000
) -> tuple[Trajectory, Trajectory, IterationReport]:
    """Minimal trajectory from the lower bound and maximal from the upper.

    Certifies the time-monotonicity of both (the minimal one increases, the
    maximal one decreases in the cone order).
    """
    interval = problem.interval
    report = iterate(problem, interval.lower, tol, max_iter, u0_upper=interval.upper)
    u_min, u_max = report.u_min, report.u_max
    slack = order_slack(interval.value_scale(), interval.dim)
    v_inc = time_monotonicity_violation(u_min, interval, "increasing")
    v_dec = time_monotonicity_violation(u_max, interval, "decreasing")
    if max(v_inc, v_dec) > slack:
        raise NumericalError(
            f"extremal trajectories lost time-monotonicity: {max(v_inc, v_dec):.3e}"
        )
    return u_min, u_max, report


def newton_equilibrium(
    problem: ProblemSpec,
    start: np.ndarray,
    tol_res: float = 1e-10,
    max_iter: int = 80,
) -> tuple[np.ndarray, float, bool]:
    """Damped Newton on A v = F(v); an oracle, failures are reported not raised."""
    a = problem.A.matrix
    v = np.asarray(start, dtype=float).copy()

    def residual(x):
        return a @ x - problem.rhs(x)

    r = residual(v)
    for _ in range(max_iter):
        norm_r = monotone_norm(r)
        if norm_r <= tol_res:
            return v, norm_r, True
        jac_f = problem.F.jacobian_matrix(v) + problem.mu * np.eye(v.size)
        try:
            step = scipy.linalg.solve(a - jac_f, -r)
        except scipy.linalg.LinAlgError:
            return v, norm_r, False
        if not np.all(np.isfinite(step)):
            return v, norm_r, False
        t = 1.0
        while t >= 1e-4:
            trial = v + t * step
            r_trial = residual(trial)
            if np.all(np.isfinite(r_trial)) and monotone_norm(r_trial) <= (1 - 0.25 * t) * norm_r:
                v, r = trial, r_trial
                break
            t *= 0.5
        else:
            return v, norm_r, False
    return v, monotone_norm(residual(v)), monotone_norm(residual(v)) <= tol_res


@dataclass
class EquilibriaResult:
    u_star: GridFunction
    u_upper_star: GridFunction
    residuals: tuple
    horizon: float
    horizon_converged: bool
    U_min: Trajectory
    U_max: Trajectory
    report: IterationReport  # the last window's iteration
    windows: list
    worst_violation: float
    # node-to-node monotonicity defect of the concatenated trajectories;
    # window seams inherit the iteration tolerance (restart states carry it),
    # unlike single-grid extremal trajectories which are monotone at fp level
    continuation_defect: float
    raw_terminals: tuple
    polish_moved: tuple
    newton_equilibria: list
    extremal_violation: float


def _concat(segments: list[Trajectory]) -> Trajectory:
    grids = [segments[0].t_grid]
    states = [segments[0].states]
    offset = segments[0].t_grid[-1]
    for seg in segments[1:]:
        grids.append(offset + seg.t_grid[1:])
        states.append(seg.states[1:])
        offset += seg.t_grid[-1]
    return Trajectory(np.concatenate(grids), np.vstack(states), segments[0].components)


def asymptotic_equilibria(
    problem: ProblemSpec,
    tol: float = 1e-9,
    tol_eq: float = 1e-9,
    tol_res: float = 1e-8,
    max_iter: int = 2000,
    max_windows: int = 256,
    n_newton_starts: int = 20,
    seed: int = 20240901,
) -> EquilibriaResult:
    """Extremal equilibria as the t -> infinity limits of the extremal
    trajectories, with Newton polish and a minimality/maximality cross-check
    from random interior Newton runs.

    The horizon is extended window by window (the problem's horizon is the
    window length): each window runs one iteration from the previous minimal
    and maximal terminal states, which reproduces the extremal trajectories
    because the problem is autonomous and minimal (maximal) solutions restart
    from their own values.  Since U_min increases and U_max decreases, the
    window increment of the terminal state is a valid stalling signal.
    """
    interval = problem.interval
    window = problem.horizon
    state_low, state_up = interval.lower, interval.upper
    seg_low, seg_up, window_summaries = [], [], []
    report = None
    horizon_converged = False
    worst_violation = -np.inf
    horizon = 0.0
    for _ in range(max_windows):
        current = replace(problem, horizon=window)
        report = iterate(current, state_low, tol=tol, max_iter=max_iter, u0_upper=state_up)
        seg_low.append(report.u_min)
        seg_up.append(report.u_max)
        horizon += window
        inc = max(
            monotone_norm(report.u_min.states[-1] - report.u_min.states[0]),
            monotone_norm(report.u_max.states[-1] - report.u_max.states[0]),
        )
        worst_violation = max(worst_violation, report.worst_violation)
        window_summaries.append(
            {
                "t_end": horizon,
                "n_iters": report.n_iters,
                "converged": report.converged,
                "increment": inc,
            }
        )
        state_low = report.u_min.terminal()
        state_up = report.u_max.terminal()
        if inc < tol_eq and report.converged:
            horizon_converged = True
            break
    assert report is not None
    u_min_full, u_max_full = _concat(seg_low), _concat(seg_up)
    continuation_defect = max(
        time_monotonicity_violation(u_min_full, interval, "increasing"),
        time_monotonicity_violation(u_max_full, interval, "decreasing"),
    )

    star_values, star_res, moved_low = _polish(problem, state_low, tol_res, tol_eq)
    upper_values, upper_res, moved_up = _polish(problem, state_up, tol_res, tol_eq)
    u_star = GridFunction(star_values, interval.components)
    u_upper_star = GridFunction(upper_values, interval.components)

    slack = order_slack(interval.value_scale(), interval.dim)
    if order_violation(u_star, u_upper_star, interval.cone) > max(slack, 10 * tol_eq):
        raise NumericalError("extremal equilibria are not ordered")

    # independent equilibria from random interior starts; every one inside the
    # interval must be sandwiched by the extremal pair
    rng = np.random.default_rng(seed)
    svec = interval.cone.sign_vector(interval.lower.n_points)
    lo, hi = interval.standard_bounds()
    found = []
    extremal_violation = 0.0
    check_slack = max(100.0 * tol_res, slack)
    for _ in range(n_newton_starts):
        y = lo + rng.uniform(size=interval.dim) * (hi - lo)
        v, _, ok = newton_equilibrium(problem, svec * y)
        if not ok:
            continue
        g = GridFunction(v, interval.components)
        if order_violation(interval.lower, g, interval.cone) > check_slack:
            continue
        if order_violation(g, interval.upper, interval.cone) > check_slack:
            continue
        found.append(g)
        extremal_violation = max(
            extremal_violation,
            order_violation(u_star, g, interval.cone),
            order_violation(g, u_upper_star, interval.cone),
        )

    return EquilibriaResult(
        u_star=u_star,
        u_upper_star=u_upper_star,
        residuals=(star_res, upper_res),
        horizon=horizon,
        horizon_converged=horizon_converged,
        U_min=u_min_full,
        U_max=u_max_full,
        report=report,
        windows=window_summaries,
        worst_violation=worst_violation,
        continuation_defect=continuation_defect,
        raw_terminals=(state_low, state_up),
        polish_moved=(moved_low, moved_up),
        newton_equilibria=found,
        extremal_violation=extremal_violation,
    )


def _polish(problem, raw: GridFunction, tol_res: float, tol_eq: float):
    """Newton-polish a terminal state.

    Newton's (clamped) iterate is kept when it converged, or when it stalled
    short of its target but still lowered the residual of the raw state.
    Either way it must not wander further than the horizon tolerance
    justifies; otherwise the raw state is returned.
    """
    v, _, ok = newton_equilibrium(problem, raw.values, tol_res=min(tol_res, 1e-10))
    moved = monotone_norm(v - raw.values)
    guard = max(1e-5, 1e4 * tol_eq)
    raw_res = problem.equilibrium_residual(raw)
    if moved <= guard:
        v = clamp_values(v, problem.interval)
        res = problem.equilibrium_residual(GridFunction(v, raw.components))
        if ok or res < raw_res:
            return v, res, moved
    return raw.values, raw_res, 0.0
