"""Monotone lower/upper time-marching between sub- and super-solutions.

A march holds two rows, the lower one started from the initial value u0 and
the upper one from u0_upper >= u0 (default u0), and advances them one time
step at a time.  Step k solves the implicit exponential-Euler relation

    u_{k+1} = P u_k + B G(u_{k+1}),      G = F + mu*id increasing,

by the monotone inner iteration z_{j+1} = P u_k + B G(z_j) started from the
row's interval bound, or from u_k itself when u_k provably lies below the
minimal (above the maximal) step solution.  Positivity of P and B keeps the
ordering chain

    lower bound <= z_j <= z_{j+1} <= Z_{j+1} <= Z_j <= upper bound

valid at round-off level on every inner iteration of every step; the engine
tracks the worst signed violation and aborts if it ever exceeds the
floating-point-aware slack.  The rows converge to the minimal/maximal
trajectories.  Marching on from the interval bounds yields the extremal
equilibria: the march stops once Newton's point next to each row is proven
to be the extremal equilibrium on its side (an M-matrix bound on the mean
of F' over segments between the row and that point), or else once the
increment over a window stalls, and a stalled state is Newton-polished.
Where Newton from the row misses the extremal equilibrium, the proof is
retried once from a state swept toward it by the elliptic monotone
iteration u <- (A + mu)^-1 (F(u) + mu u), which preserves the order and
fixes every equilibrium, so from a row below the minimal equilibrium it
never passes it.  Both ends are cross-checked for minimality/maximality
against independently found equilibria.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .generators import GeneratorSpec
from .mild import (
    ProblemSpec,
    Trajectory,
    auto_scale,
    defect_slack,
    time_grid,
)
from .nonlin import cone_jacobian_range
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
    n_iters: int  # the most inner iterations any step needed
    converged: bool
    tol: float
    mu_applied: float
    # entry j: the row's largest j-th inner increment over all steps
    distances_lower: np.ndarray
    distances_upper: np.ndarray
    sandwich_violations: np.ndarray  # one per step, over its inner iterations
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


class _March:
    """The lower and upper rows of one time march, solved step by step.

    Rows are held as one 2 x dim block in standard coordinates (each entry
    multiplied by its cone sign), where the cone order is the entrywise one.
    Step k solves z = P u_k + B G(z) by the monotone inner iteration
    z_{j+1} = P u_k + B G(z_j), from the row's interval bound, or from u_k
    when k >= 1 and the row moved in its own cone direction over step k-1:
    then u_k is a sub-solution (super-solution) of step k lying below the
    minimal (above the maximal) step solution, so the warm start converges
    to the same solution.  Each row stops on its own inner increment.

    `advance` appends a chunk of steps; `report` describes the last chunk
    and `trajectories` joins all of them.
    """

    def __init__(self, problem, u0, u0_upper, tol, max_iter):
        if max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        interval = problem.interval
        scaled = auto_scale(problem)
        svec = interval.cone.sign_vector(interval.lower.n_points)
        base_slack = order_slack(interval.value_scale(), interval.dim)
        # the breach guard additionally allows the bounds' own certificate deficit
        slack = max(base_slack, 12.0 * _bound_deficit(scaled, svec))
        if order_violation(u0, u0_upper, interval.cone) > slack:
            raise ValidationError("u0_upper must lie above u0 in the cone order")
        self.interval, self.mu = interval, scaled.mu
        self.dt, self.tol, self.max_iter, self.slack = problem.dt, tol, max_iter, slack
        self.svec = None if np.all(svec == 1.0) else svec
        self.lo, self.hi = interval.standard_bounds()
        start = np.vstack([u0.values, u0_upper.values])
        clamped = clamp_values(start, interval)
        if monotone_norm(clamped - start) > slack:
            warnings.warn("initial value clamped to the order interval", stacklevel=3)
        self.y = self._standard(clamped)
        self.y_prev = None  # the rows one node back, once a step was taken
        # the rows by node, one chunk per advance, each from its start node
        self.states: list[np.ndarray] = []
        self.worst_violation = -np.inf  # over every step of the march
        # of the last chunk: penultimate inner iterates by node, the largest
        # [lower, upper] increment per inner iteration, the worst violation
        # per step, clamp counts and convergence
        self.penultimate = None
        self.distances: list[list[float]] = []
        self.violations: list[float] = []
        self.clamped = self.total = 0
        self.converged = True

        # degenerate interval: both bounds coincide and must be an equilibrium;
        # the rows then stay constant and no inner iteration runs
        self.degenerate = (
            monotone_norm(interval.upper.values - interval.lower.values) <= base_slack
        )
        if self.degenerate:
            res = problem.equilibrium_residual(interval.lower)
            if res > max(100.0 * base_slack * monotone_norm(problem.A.matrix), 1e-8):
                raise ValidationError(
                    f"degenerate interval is not an equilibrium (residual {res:.3e})"
                )
            return
        p_mat, b_mat = scaled.A.propagators(problem.dt)
        if self.svec is not None:  # S P S and S B S, still entrywise nonnegative
            outer = np.outer(svec, svec)
            p_mat, b_mat = outer * p_mat, outer * b_mat
        self.p_t, self.b_t = p_mat.T.copy(), b_mat.T.copy()
        # the shifted reaction term in standard coordinates
        self.g = scaled.rhs if self.svec is None else scaled.F.shifted_in_cone(svec, scaled.mu)
        self.F = scaled.F

    def _standard(self, values: np.ndarray) -> np.ndarray:
        return values if self.svec is None else self.svec * values

    def advance(self, n_steps: int) -> tuple[int, bool]:
        """March n_steps steps; (most inner iterations of a step, all converged).

        Raises NumericalError when more than MAX_CLAMP_FRACTION of the
        chunk's evaluated entries needed clamping beyond the slack.
        """
        chunk = np.empty((n_steps + 1, 2, self.y.shape[1]))
        pen = np.empty_like(chunk)
        chunk[0] = pen[0] = self.y
        self.distances, self.violations = [], []
        self.clamped = self.total = 0
        if self.degenerate:
            chunk[1:], pen[1:] = self.y, self.y
            self.distances, self.violations = [[0.0, 0.0]], [0.0] * n_steps
            most, converged = 1, True
        elif self.y.shape[1] == 1:
            most, converged = self._advance_scalar(chunk[1:], pen[1:])
        else:
            most, converged = self._advance_block(chunk[1:], pen[1:])
        if self.clamped > MAX_CLAMP_FRACTION * max(1, self.total):
            raise NumericalError(
                f"{100 * self.clamped / self.total:.3f}% of evaluations left the order interval"
            )
        self.states.append(chunk)
        self.penultimate, self.converged = pen, converged
        self.worst_violation = max(self.worst_violation, max(self.violations))
        return most, converged

    def _breach(self, worst: float) -> NumericalError:
        return NumericalError(
            f"sandwich invariant breached: violation {worst:.3e} > slack {self.slack:.3e}"
        )

    def _advance_block(self, out, pen) -> tuple[int, bool]:
        lo, hi, slack, tol, max_iter = self.lo, self.hi, self.slack, self.tol, self.max_iter
        p_t, b_t, g, dist = self.p_t, self.b_t, self.g, self.distances
        y, y_prev = self.y, self.y_prev
        # two [lower bound, lower row z, upper row Z, upper bound] buffers: cur
        # holds z_j, nxt receives z_{j+1}; a stopped row is kept in both
        cur, nxt = np.vstack([lo, lo, hi, hi]), np.vstack([lo, lo, hi, hi])
        # rows z'-z, Z'-Z, -(z'-z), -(Z'-Z) and the chain links lo-z', z'-Z', Z'-hi
        # of the new iterate: one max per row gives both increments, both
        # monotonicity violations and the links; a stopped row's rows read -inf
        chk = np.empty((7, y.shape[1]))
        most, converged, clamped, total = 0, True, 0, 0
        for k in range(out.shape[0]):
            c = y @ p_t
            warm = y_prev is not None
            if warm:
                moved = y - y_prev
            cur[1] = y[0] if warm and moved[0].min() >= -slack else lo
            cur[2] = y[1] if warm and moved[1].max() <= slack else hi
            # while the links hold without any violation, lo <= z <= Z <= hi
            # and the clamp is the identity
            inside = (cur[:-1] - cur[1:]).max() <= 0.0
            lower_on = upper_on = True
            a, b = 0, 2  # the active rows
            worst = -np.inf
            j = 0
            while True:
                zs, new = cur[1 + a:1 + b], nxt[1 + a:1 + b]
                if inside:
                    zc = zs
                else:
                    zc = np.minimum(np.maximum(zs, lo), hi)
                    clamped += np.count_nonzero(np.abs(zc - zs) > slack)
                total += zc.size
                np.matmul(g(zc), b_t, out=new)
                new += c[a:b]
                np.subtract(new, zs, out=chk[a:b])
                np.negative(chk[a:b], out=chk[2 + a:2 + b])
                np.subtract(nxt[:-1], nxt[1:], out=chk[4:])
                rise_low, rise_up, fall_low, fall_up, *links = chk.max(axis=1).tolist()
                link = max(links)
                inside = link <= 0.0
                worst = max(worst, link, fall_low, rise_up)
                if worst > slack:
                    raise self._breach(worst)
                inc_low = max(rise_low, fall_low) if lower_on else 0.0
                inc_up = max(rise_up, fall_up) if upper_on else 0.0
                if j < len(dist):
                    row = dist[j]
                    if inc_low > row[0]:
                        row[0] = inc_low
                    if inc_up > row[1]:
                        row[1] = inc_up
                else:
                    dist.append([inc_low, inc_up])
                j += 1
                lower_next = lower_on and inc_low >= tol
                upper_next = upper_on and inc_up >= tol
                if j == max_iter and (lower_next or upper_next):
                    converged = lower_next = upper_next = False
                if not (lower_next or upper_next):
                    # the step is solved: store the active rows' last two iterates
                    pen[k, a:b], out[k, a:b] = zs, new
                    break
                if lower_on and not lower_next:
                    self._stop_row(0, cur, nxt, chk, out[k], pen[k])
                if upper_on and not upper_next:
                    self._stop_row(1, cur, nxt, chk, out[k], pen[k])
                lower_on, upper_on = lower_next, upper_next
                cur, nxt = nxt, cur
                a, b = (0 if lower_on else 1), (2 if upper_on else 1)
            most = max(most, j)
            self.violations.append(float(worst))
            y_prev, y = y, out[k]
        self.clamped += clamped
        self.total += total
        self.y, self.y_prev = y.copy(), y_prev.copy()
        return most, converged

    @staticmethod
    def _stop_row(row, cur, nxt, chk, out, pen):
        """The row stopped while the other runs on: store its last two
        iterates, hold its final one in both buffers and mask its check rows."""
        pen[row] = cur[1 + row]
        out[row] = cur[1 + row] = nxt[1 + row]
        chk[row] = chk[2 + row] = -np.inf

    def _advance_scalar(self, out, pen) -> tuple[int, bool]:
        """dim == 1: the same iteration on Python floats, with one
        eval_shifted_scalars call on both rows per inner iteration."""
        lo, hi = float(self.lo[0]), float(self.hi[0])
        slack, tol, max_iter = self.slack, self.tol, self.max_iter
        p, b = float(self.p_t[0, 0]), float(self.b_t[0, 0])
        dist = self.distances
        # ProblemSpec.rhs on two scalar states; a reversed cone marches
        # g(y) = -rhs(-y), and sign flips are exact
        f, mu = self.F.eval_shifted_scalars, float(self.mu)
        if self.svec is not None:
            def f(x0, x1, shift, rhs=f):
                f0, f1 = rhs(-x0, -x1, shift)
                return -f0, -f1
        (y0,), (y1,) = self.y.tolist()
        warm = self.y_prev is not None
        (p0,), (p1,) = self.y_prev.tolist() if warm else ((0.0,), (0.0,))
        most, converged, clamped, total = 0, True, 0, 0
        violations = self.violations
        for k in range(out.shape[0]):
            c0, c1 = p * y0, p * y1
            z0 = y0 if warm and y0 - p0 >= -slack else lo
            z1 = y1 if warm and y1 - p1 <= slack else hi
            last0, last1 = z0, z1
            on0 = on1 = True
            worst = -np.inf
            j = 0
            while True:
                zc0 = lo if z0 < lo else hi if z0 > hi else z0
                zc1 = lo if z1 < lo else hi if z1 > hi else z1
                f0, f1 = f(zc0, zc1, mu)
                inc0 = inc1 = 0.0
                if on0:
                    total += 1
                    clamped += abs(zc0 - z0) > slack
                    new = c0 + b * f0
                    inc0 = abs(new - z0)
                    if z0 - new > worst:
                        worst = z0 - new
                    last0, z0 = z0, new
                if on1:
                    total += 1
                    clamped += abs(zc1 - z1) > slack
                    new = c1 + b * f1
                    inc1 = abs(new - z1)
                    if new - z1 > worst:
                        worst = new - z1
                    last1, z1 = z1, new
                # the chain links lo <= z <= Z <= hi, as max() would take them
                if lo - z0 > worst:
                    worst = lo - z0
                if z0 - z1 > worst:
                    worst = z0 - z1
                if z1 - hi > worst:
                    worst = z1 - hi
                if worst > slack:
                    raise self._breach(worst)
                if j < len(dist):
                    row = dist[j]
                    if inc0 > row[0]:
                        row[0] = inc0
                    if inc1 > row[1]:
                        row[1] = inc1
                else:
                    dist.append([inc0, inc1])
                j += 1
                on0 = on0 and inc0 >= tol
                on1 = on1 and inc1 >= tol
                if not (on0 or on1):
                    break
                if j == max_iter:
                    converged = False
                    break
            if j > most:
                most = j
            violations.append(worst)
            out[k, 0, 0], out[k, 1, 0] = z0, z1
            pen[k, 0, 0], pen[k, 1, 0] = last0, last1
            p0, p1, y0, y1 = y0, y1, z0, z1
            warm = True
        self.clamped += clamped
        self.total += total
        self.y_prev, self.y = np.array([[p0], [p1]]), np.array([[y0], [y1]])
        return most, converged

    def _trajectory(self, block: np.ndarray, row: int) -> Trajectory:
        t_grid = self.dt * np.arange(block.shape[0])
        return Trajectory(t_grid, self._standard(block[:, row]), self.interval.components)

    def report(self) -> IterationReport:
        """The last chunk as an iteration report, on a grid from t = 0."""
        chunk, pen = self.states[-1], self.penultimate
        u_min, u_max = self._trajectory(chunk, 0), self._trajectory(chunk, 1)
        dist = np.asarray(self.distances, dtype=float)
        violations = np.asarray(self.violations, dtype=float)
        gap = float(np.max(np.abs(chunk[:, 1] - chunk[:, 0])))
        return IterationReport(
            n_iters=len(dist), converged=self.converged, tol=self.tol,
            mu_applied=self.mu,
            distances_lower=dist[:, 0], distances_upper=dist[:, 1],
            sandwich_violations=violations,
            worst_violation=float(np.max(violations)),
            u_min=u_min, u_max=u_max, unique_flag=bool(gap <= 10.0 * self.tol),
            clamp_fraction=self.clamped / max(1, self.total),
            stored={
                "interval": self.interval, "slack": self.slack,
                "lower_prev": self._trajectory(pen, 0),
                "upper_prev": self._trajectory(pen, 1),
            },
        )

    def trajectories(self) -> tuple[Trajectory, Trajectory]:
        """The lower and upper rows over every chunk, from t = 0."""
        if len(self.states) > 1:  # join once; later chunks repeat their start node
            first, *rest = self.states
            self.states[:] = [np.concatenate([first, *(c[1:] for c in rest)])]
        block = self.states[0]
        return self._trajectory(block, 0), self._trajectory(block, 1)


def iterate(
    problem: ProblemSpec,
    u0: GridFunction,
    tol: float = 1e-9,
    max_iter: int = 2000,
    u0_upper: GridFunction | None = None,
) -> IterationReport:
    """March both rows over the problem's grid; returns the sandwiched
    minimal/maximal trajectories.

    u_min is the minimal solution from u0, u_max the maximal one from
    u0_upper (default u0; must lie above u0 in the cone order).  Every step
    is solved until each row's inner increment drops below tol, in at most
    max_iter inner iterations.  unique_flag says the two agree within
    10*tol, so for distinct initial values it is set only when those agree
    within 10*tol too.

    The problem is scaled on entry (quasi-increasing shift plus stability
    floor); fixed points are unaffected.  Raises NumericalError on a sandwich
    breach or when more than MAX_CLAMP_FRACTION of evaluated entries needed
    clamping beyond round-off.
    """
    march = _March(problem, u0, u0 if u0_upper is None else u0_upper, tol, max_iter)
    march.advance(time_grid(problem.horizon, problem.dt).size - 1)
    return march.report()


def certify_sandwich(report: IterationReport) -> tuple[bool, float]:
    """Re-check the ordering chain on the final and previous iterates; (ok, worst).

    The march checks every link on every inner iteration.  This is an
    independent re-check of its output, so the report keeps the penultimate
    inner iterates (stored["lower_prev"], stored["upper_prev"], one copy of
    the last chunk per row) as the data it reads; they stay as safety code.
    """
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


def linearized_solve(problem: ProblemSpec, states: np.ndarray,
                     rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve (A - F'(v) - mu) x = rhs, Newton's matrix at v, for each row v
    of states and its row of rhs, both of shape (m, dim): (x, ok).

    F' is node-local (`Nonlinearity.jacobian_blocks`, one call per state);
    see `_banded_solve`, which also says when ok[k] is False.
    """
    jac = np.array([problem.F.jacobian_blocks(v) for v in states])
    if problem.mu:
        jac += problem.mu * np.eye(problem.F.components)[:, :, None]
    return _banded_solve(problem.A, jac, rhs)


_GTSV, _GBSV = scipy.linalg.get_lapack_funcs(("gtsv", "gbsv"), dtype=np.float64)


def _banded_solve(a: GeneratorSpec, blocks: np.ndarray,
                  rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve (A - J_k) x_k = rhs_k for every row k of rhs, shape (m, dim),
    with node-local c x c blocks J_k, blocks of shape (m, c, c, n): (x, ok).

    With the components interleaved node by node each matrix has A's band,
    widened to the blocks (`GeneratorSpec.node_band`).  The m matrices,
    tiled along the diagonal, form one banded matrix, and one banded LU
    (LAPACK gtsv when it is tridiagonal, else gbsv, called as
    scipy.linalg.solve_banded calls them) solves all rows.  The matrix is
    block-diagonal, so the LU pivots inside each block and every row gets
    the solution of its own solve, bit for bit.  ok[k] is False, and x[k]
    meaningless, when row k's matrix, right-hand side or solution is not
    finite, or its matrix is singular; the other rows are then solved
    without it, since its values would spill into its neighbours.
    """
    m, c = blocks.shape[:2]
    nb = a.node_band(c)
    (lower, upper), dim = nb.lower_upper, rhs.shape[1]
    ab = np.empty((nb.band.shape[0], m, dim))
    ab[:] = nb.band[:, None]
    for i in range(c):
        for j in range(c):  # block entry [i, j] of node k is column c k + j
            ab[upper + i - j, :, j::c] -= blocks[:, i, j]
    ok = np.isfinite(ab).all(axis=(0, 2)) & np.isfinite(rhs).all(axis=1)
    if ok.all():
        ab = ab.reshape(ab.shape[0], -1)
        b = rhs[:, nb.perm].ravel()
        if lower == upper == 1:
            *_, x, info = _GTSV(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_dl=True,
                                overwrite_d=True, overwrite_du=True, overwrite_b=True)
        else:
            a2 = np.zeros((2 * lower + upper + 1, ab.shape[1]))
            a2[lower:] = ab
            *_, x, info = _GBSV(lower, upper, a2, b, overwrite_ab=True, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK gtsv/gbsv")
        if info == 0:
            x = x.reshape(m, dim)[:, nb.inverse]
            return x, np.isfinite(x).all(axis=1)
        ok[(info - 1) // dim] = False  # the row of the first zero pivot
    x = np.full(rhs.shape, np.nan)
    if ok.any():
        x[ok], ok[ok] = _banded_solve(a, blocks[ok], rhs[ok])
    return x, ok


def _newton_batch(
    problem: ProblemSpec,
    starts: np.ndarray,
    tol_res: float = 1e-10,
    max_iter: int = 80,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on A v = F(v) from each row of starts, shape (m, dim):
    per row, the final state, its residual norm and whether it converged.

    The rows go in lock-step but never mix: each ends bit for bit where
    its start alone would (`newton_equilibrium`).  A round takes the steps
    of all running rows from one stacked banded solve (`linearized_solve`),
    then tries the damped steps t = 1, 1/2, ... >= 1e-4 of the rows still
    pending together, with one evaluation of the reaction term on the
    stack.  A trial is accepted when its residual is finite and at most
    (1 - t/4) times the current one.  A failed solve, a failed line search
    or the round-off floor ends only its own row.
    """
    a = problem.A.matrix
    c = problem.F.components
    v = np.array(starts, dtype=float)
    m = v.shape[0]
    res = np.empty(m)
    ok = np.zeros(m, dtype=bool)
    if m == 0:
        return v, res, ok

    def residuals(x):
        # A x per row: one GEMM would sum in another order
        out = problem.rhs(x)
        for i, row in enumerate(x):
            out[i] = a @ row - out[i]
        return out

    # the running rows: their indices, states, residuals and residual norms
    rows, x, r = np.arange(m), v.copy(), residuals(v)
    for _ in range(max_iter):
        norms = np.abs(r).max(axis=1)
        done = norms <= tol_res
        if done.any():
            ok[rows[done]], v[rows[done]], res[rows[done]] = True, x[done], norms[done]
            run = ~done
            rows, x, r, norms = rows[run], x[run], r[run], norms[run]
        if not rows.size:
            break
        step, solved = linearized_solve(problem, x, -r)
        moved = np.zeros(rows.size, dtype=bool)
        pending = solved.nonzero()[0]  # into x and r
        t = 1.0
        while pending.size and t >= 1e-4:
            trial = x[pending] + t * step[pending]
            r_trial = residuals(trial)
            # a non-finite residual has the norm inf or nan and fails the test
            better = np.abs(r_trial).max(axis=1) <= (1 - 0.25 * t) * norms[pending]
            taken = pending[better]
            x[taken], r[taken], moved[taken] = trial[better], r_trial[better], True
            pending = pending[~better]
            if t == 1.0 and pending.size:
                # a residual already within the round-off floor ends its run
                floor = np.array([
                    norms[i] <= defect_slack(problem.A, GridFunction(x[i], c), a @ x[i] - r[i])
                    for i in pending
                ])
                pending = pending[~floor]
            t *= 0.5
        if not moved.all():  # the rows that took no step end here
            stop = ~moved
            v[rows[stop]], res[rows[stop]] = x[stop], norms[stop]
            rows, x, r = rows[moved], x[moved], r[moved]
    v[rows] = x
    norms = np.abs(r).max(axis=1)
    res[rows], ok[rows] = norms, norms <= tol_res
    return v, res, ok


def newton_equilibrium(
    problem: ProblemSpec,
    start: np.ndarray,
    tol_res: float = 1e-10,
    max_iter: int = 80,
) -> tuple[np.ndarray, float, bool]:
    """Damped Newton on A v = F(v); an oracle, failures are reported not raised.

    A run whose full step fails to lower a residual already within the
    round-off floor `defect_slack` stops there, without damped trials that
    would only trade round-off; a run with tol_res = 0 ends that way.  This
    is `_newton_batch` on the one start.
    """
    v, res, ok = _newton_batch(problem, np.asarray(start, dtype=float)[None], tol_res, max_iter)
    return v[0], float(res[0]), bool(ok[0])


def _jacobian_bound(f, lo: np.ndarray, hi: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Entrywise upper bound of T F'(u) T over the box lo <= u <= hi, with
    T = diag(sides), as (c, c, n) blocks; off-diagonal entries are clipped
    at 0, which keeps them upper bounds."""
    c = f.components
    _, jac = cone_jacobian_range(f, lo, hi, sides.reshape(c, -1)[:, 0])
    off = ~np.eye(c, dtype=bool)
    jac[off] = np.maximum(jac[off], 0.0)
    return jac


def _mean_jacobian_bound(f, sides: np.ndarray, x_lo: np.ndarray, y_p: np.ndarray,
                         top: np.ndarray) -> np.ndarray:
    """Entrywise upper bound of the mean-value Jacobian
    int_0^1 T F'(u + s (v - u)) T ds over every u in [x_lo, top] and v in
    [y_p, top], the boxes given in side coordinates y = T u.

    Where every entry of F' is a polynomial of degree <= 2 along segments
    (`Nonlinearity.quadratic_jacobian`), Simpson's rule is exact, the mean
    is (J(u) + 4 J(m) + J(v)) / 6 with m = (u + v) / 2 in
    [(x_lo + y_p) / 2, top], and each term is bounded on its own box.
    Otherwise the bound is the one over the box [x_lo, top] holding the
    whole segment.
    """
    if f.quadratic_jacobian:
        boxes = ((x_lo, 1.0), (0.5 * (x_lo + y_p), 4.0), (y_p, 1.0))
    else:
        boxes = ((x_lo, 1.0),)
    total = 0.0
    for low, weight in boxes:
        a, b = sides * low, sides * top
        total += weight * _jacobian_bound(f, np.minimum(a, b), np.maximum(a, b), sides)
    return total / sum(weight for _, weight in boxes)


def _enclose(problem: ProblemSpec, sides: np.ndarray, y_p: np.ndarray, x_lo: np.ndarray,
             hi: np.ndarray, rho: float, tol_eq: float) -> tuple[float, np.ndarray] | None:
    """One pass of the M-matrix proof of `_certify_extremal` in side
    coordinates, for u* in [x_lo, y_p + tol_eq]: (radius, a proven lower
    end of u*), or None when a test fails."""
    f = problem.F
    c = f.components
    jac = _mean_jacobian_bound(f, sides, x_lo, y_p, y_p + tol_eq)
    jac += problem.mu * np.eye(c)[:, :, None]
    signs = sides.reshape(c, -1)[:, 0]
    blocks = np.outer(signs, signs)[:, :, None] * jac  # the bound, back in u
    x, solved = _banded_solve(problem.A, blocks[None], sides[None])
    if not solved[0]:
        return None
    x = x[0]
    psi = sides * x
    if not np.all(psi > 0.0):
        return None
    m_psi = problem.A.matrix @ x - np.einsum("ijk,jk->ik", blocks, x.reshape(c, -1)).ravel()
    kappa = float(np.min(sides * m_psi))
    if not kappa >= 0.5:
        return None
    psi_max = float(np.max(psi))
    eps = 4.0 * rho
    while eps * psi_max <= tol_eq:
        # clipped to the far bound hi, a super-solution: where p + eps psi is
        # one too, so is their minimum
        y = np.minimum(y_p + eps * psi, hi)
        v = sides * y
        f_v = problem.rhs(v)
        d = sides * (problem.A.matrix @ v - f_v)
        if float(np.min(d)) >= -defect_slack(problem.A, GridFunction(v, c), f_v):
            reach = max(float(np.max(d)), 0.0) / kappa
            return psi_max * (reach + eps), y - reach * psi
        if eps == 0.0:
            break
        eps *= 2.0
    return None


# elliptic sweeps of one certificate retry: they converge only linearly, and
# Newton needs no more than its basin (the Fisher benchmark config at n = 60
# needs 10, and runs to tol_eq = 1e-9 in about 200)
SWEEP_MAX_ITER = 100


def _sweep(problem: ProblemSpec, sides: np.ndarray, start: np.ndarray, lo: np.ndarray,
           hi: np.ndarray, tol_eq: float) -> np.ndarray | None:
    """Elliptic monotone sweeps toward the minimal equilibrium u* of the box
    [lo, hi] in side coordinates y = T u (T = diag(sides)), from a start
    proven to lie below u*: the last iterate, which lies below u* too, or
    None when the proof's premises fail or a value is not finite.

    With mu the march's shift (`auto_scale`), G = F + mu id is increasing
    on the interval in side coordinates, and M = T (A + mu) T is a Z-matrix
    when A couples no components of opposite cone sign.  psi = M^-1 1 > 0
    then makes M a nonsingular M-matrix, M^-1 >= 0, so the sweep
    y <- M^-1 T G(T y) preserves the order and fixes u*: from y <= u* it
    never passes u*.  Each solve x of (A + mu) x = g (`_banded_solve`, the
    shift as node-local blocks) is lowered by its residual bound
    (|(A + mu) x - g| + defect_slack) psi, which covers its round-off, and
    clamped into [lo, hi], which holds u*.  The sweeps stop once the
    increment is at most tol_eq, or after SWEEP_MAX_ITER sweeps.
    """
    scaled = auto_scale(problem)
    a = scaled.A
    coupling = sides[:, None] * a.matrix * sides
    np.fill_diagonal(coupling, 0.0)
    if np.any(coupling > 0.0):
        return None
    c = problem.F.components
    shift = np.zeros((1, c, c, sides.size // c))
    shift[0, range(c), range(c)] = -(scaled.mu - problem.mu)  # A - shift = A + mu
    x, ok = _banded_solve(problem.A, shift, sides[None])
    psi = sides * x[0]
    if not (ok[0] and np.all(psi > 0.0)):
        return None
    y = start
    for _ in range(SWEEP_MAX_ITER):
        g = scaled.rhs(sides * y)
        x, ok = _banded_solve(problem.A, shift, g[None])
        if not ok[0]:
            return None
        x = x[0]
        bound = float(np.abs(a.matrix @ x - g).max()) + defect_slack(a, x, g)
        if not np.isfinite(bound):  # an overflow
            return None
        y_next = np.clip(sides * x - bound * psi, lo, hi)
        inc = float(np.max(np.abs(y_next - y)))
        y = y_next
        if inc <= tol_eq:
            break
    return y


def _certify_extremal(problem: ProblemSpec, state: np.ndarray, side: int, tol_eq: float,
                      slack: float) -> tuple[np.ndarray, float] | None:
    """Prove Newton's point p next to a terminal state of the march to be
    the minimal (side = 1, state U_min(T)) or the maximal (side = -1, state
    U_max(T)) equilibrium of the interval: (p, radius), or None when the
    proof fails.

    Work in the coordinates y = side * S u (S the cone signs), where the
    wanted equilibrium u* is the minimal one and the Jacobian of the
    reaction term is S F' S.  With l the state and p Newton's point from l,
    run down to its residual floor rho and clamped into the interval (the
    clamp moves p only toward u*, and lets an end on a bound certify), one
    pass of the proof (`_enclose`) takes the box [x_lo, top], x_lo =
    min(l, p) - slack and top = p + tol_eq, which holds u*:

    - J+ bounds the mean-value Jacobian int_0^1 S F'(u* + s (v - u*)) S ds
      + mu from above entrywise (`_mean_jacobian_bound`: Simpson's rule on
      three boxes where F' is quadratic along segments, else the one box),
      its off-diagonal entries clipped at 0, so M+ = A - J+ is a Z-matrix;
    - psi solves M+ psi = 1 by one banded LU, and the proof needs psi > 0
      and kappa = min(M+ psi) >= 1/2, recomputed: then M+ is a nonsingular
      M-matrix, M+^-1 >= 0;
    - v = min(p + eps psi, h), with h the interval's far bound (a
      super-solution, and the minimum of two super-solutions is one) and
      eps the first of 4 rho, 8 rho, ... for which v is a super-solution
      (A v >= F(v) up to `defect_slack`, the slack of `verify_supersolution`)
      and eps psi <= tol_eq.

    Then l <= u* <= v: U_min rises to u*, and u* lies below every
    super-solution in the interval.  e = v - u* >= 0 has
    M+ e = d + (J_mean - J+) e <= d+, the positive part of d = A v - F(v),
    so e <= |d+| psi / kappa and |u* - p| <= |psi| (|d+| / kappa + eps),
    the radius.  If p were not the extremal equilibrium, the box would hold
    u* <= p, u* != p, with M+ (p - u*) <= 0, which no M-matrix allows; an
    unstable or degenerate equilibrium fails the M-matrix test as well.

    A pass also proves u* >= v - (|d+| / kappa) psi.  When its radius
    exceeds tol_eq, the proof runs once more with that lower end (less
    slack) raising x_lo, a narrower box, and keeps the smaller radius.

    When this first pass fails, or its radius exceeds tol_eq, the proof is
    retried once from a swept state: `_sweep` runs elliptic monotone sweeps
    from l - slack, clamped into the interval (the row lies below u* up to
    the march's slack).  Every sweep stays below u*: the sweep map is
    order-preserving and fixes u*, and each iterate is lowered by its own
    solve-residual bound.  So the swept state is an l as above, and the
    retry is the same pass with Newton started from it.  The smaller
    radius is kept.
    """
    interval = problem.interval
    sides = side * interval.cone.sign_vector(interval.lower.n_points)
    a, b = sides * interval.lower.values, sides * interval.upper.values
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    best, start = None, state
    for retry in (False, True):
        if retry:
            # the row lies below u* up to the march's slack
            begin = _sweep(problem, sides, np.clip(sides * state - slack, lo, hi), lo, hi, tol_eq)
            if begin is None:
                break
            start = sides * begin
        p, rho, _ = newton_equilibrium(problem, start, tol_res=0.0)
        y_p = np.clip(sides * p, lo, hi)  # moves p only toward u*, which lies inside
        p = sides * y_p
        x_lo = np.minimum(sides * start, y_p) - slack
        cert = _enclose(problem, sides, y_p, x_lo, hi, rho, tol_eq)
        if cert is not None and cert[0] > tol_eq:
            narrow = _enclose(problem, sides, y_p, np.maximum(x_lo, cert[1] - slack), hi,
                              rho, tol_eq)
            if narrow is not None and narrow[0] < cert[0]:
                cert = narrow
        if cert is not None and (best is None or cert[0] < best[1]):
            best = (p, cert[0])
        if best is not None and best[1] <= tol_eq:
            break
    return best


@dataclass
class EquilibriaResult:
    u_star: GridFunction
    u_upper_star: GridFunction
    residuals: tuple
    horizon: float
    horizon_converged: bool
    U_min: Trajectory
    U_max: Trajectory
    report: IterationReport  # the march's last window
    windows: list
    worst_violation: float
    # node-to-node monotonicity defect of U_min/U_max, which come from one
    # march and are monotone in time at round-off level
    continuation_defect: float
    polish_moved: tuple
    newton_equilibria: list
    extremal_violation: float
    # per end (minimal, maximal): whether the equilibrium is Newton's point
    # proven extremal by _certify_extremal, and the proven radius (or None)
    certified: tuple
    certified_radius: tuple


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
    trajectories, with a minimality/maximality cross-check from random
    interior Newton runs.

    One march runs from the interval bounds and is advanced one window (the
    problem's horizon) at a time.  After windows 1, 2, 4, 8, ... and at the
    stall stop, each end not yet certified tries `_certify_extremal` on its
    row's terminal state; an end is certified when the proof holds with a
    radius <= tol_eq, and then reports Newton's point p.  The march stops
    once both ends are certified, so U_min and U_max end at that horizon.
    Otherwise it stops once the increment of the rows over a window drops
    below tol_eq (a valid stalling signal, since U_min increases and U_max
    decreases), and an uncertified end reports its stalled state,
    Newton-polished.  An interval bound that is 0 in every entry, where
    F(0) is 0.0 in every entry, is an equilibrium by construction (A 0 = 0
    exactly, and F(0) is taken as computed, which is exact for terms built
    of sums and products of u).  As the least (greatest) point of the
    interval it is the extremal equilibrium on its side, and certifies
    with radius 0 before the march, with no Newton run.  A nonzero bound
    whose computed residual is 0.0 is not taken: rounding or underflow can
    give 0.0 where the exact residual is not.  An unstable or degenerate
    extremal equilibrium that is not such a bound, or a reaction term whose
    `jacobian_range` has no finite upper bound, never certifies.
    """
    interval = problem.interval
    window = problem.horizon
    steps_per_window = time_grid(window, problem.dt).size - 1
    march = _March(problem, interval.lower, interval.upper, tol, max_iter)
    window_summaries = []
    horizon_converged = False
    horizon = 0.0
    certified = [None, None]  # per end: (p, radius) once proven
    # a zero bound with F(0) = 0 is the extremal equilibrium on its side, as
    # the least (greatest) point of the interval
    for end, bound in enumerate((interval.lower.values, interval.upper.values)):
        if not np.any(bound) and not np.any(problem.rhs(bound)):
            certified[end] = (bound, 0.0)
    for count in range(1, max_windows + 1):
        start = march.y
        n_iters, converged = march.advance(steps_per_window)
        horizon += window
        inc = float(np.max(np.abs(march.y - start)))
        window_summaries.append(
            {
                "t_end": horizon,
                "n_iters": n_iters,
                "converged": converged,
                "increment": inc,
            }
        )
        stalled = inc < tol_eq and converged
        if converged and (stalled or count & (count - 1) == 0):
            for end, side in ((0, 1), (1, -1)):
                if certified[end] is None:
                    cert = _certify_extremal(
                        problem, march._standard(march.y[end]), side, tol_eq, march.slack
                    )
                    if cert is not None and cert[1] <= tol_eq:
                        certified[end] = cert
        if stalled or all(c is not None for c in certified):
            horizon_converged = True
            break
    report = march.report()
    u_min_full, u_max_full = march.trajectories()
    continuation_defect = max(
        time_monotonicity_violation(u_min_full, interval, "increasing"),
        time_monotonicity_violation(u_max_full, interval, "decreasing"),
    )
    ends = []
    for cert, traj in zip(certified, (u_min_full, u_max_full)):
        if cert is None:  # the stalled state, Newton-polished
            ends.append(_polish(problem, traj.terminal(), tol_res, tol_eq))
        else:  # Newton's point, clamped into the interval by the certificate
            values = cert[0]
            res = problem.equilibrium_residual(GridFunction(values, interval.components))
            ends.append((values, res, 0.0))
    (star_values, star_res, moved_low), (upper_values, upper_res, moved_up) = ends
    u_star = GridFunction(star_values, interval.components)
    u_upper_star = GridFunction(upper_values, interval.components)

    slack = order_slack(interval.value_scale(), interval.dim)
    if order_violation(u_star, u_upper_star, interval.cone) > max(slack, 10 * tol_eq):
        raise NumericalError("extremal equilibria are not ordered")

    # independent equilibria from random interior starts, run as one batch;
    # every one inside the interval must be sandwiched by the extremal pair
    rng = np.random.default_rng(seed)
    svec = interval.cone.sign_vector(interval.lower.n_points)
    lo, hi = interval.standard_bounds()
    starts = lo + rng.uniform(size=(n_newton_starts, interval.dim)) * (hi - lo)
    found = []
    extremal_violation = 0.0
    check_slack = max(100.0 * tol_res, slack)
    equilibria, _, converged = _newton_batch(problem, svec * starts)
    for v, ok in zip(equilibria, converged):
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
        worst_violation=march.worst_violation,
        continuation_defect=continuation_defect,
        polish_moved=(moved_low, moved_up),
        newton_equilibria=found,
        extremal_violation=extremal_violation,
        certified=tuple(c is not None for c in certified),
        certified_radius=tuple(None if c is None else c[1] for c in certified),
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
