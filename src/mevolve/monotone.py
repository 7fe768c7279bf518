"""Monotone lower/upper time-marching between sub- and super-solutions.

A march holds a lower row and one or more upper rows, started from initial
values ordered below them, and advances them one time step at a time; each
upper row forms a pair with the lower row, and a pair's figures read its own
two rows only.  `iterate` marches one pair, from u0 and u0_upper >= u0
(default u0).  A problem's first window is one march, memoized on the
problem by tol: rows L from the lower bound and H from the upper bound, and
with them, once `iterate` from the lower bound asks for it, row U from the
lower bound (the rising upper row).  `iterate` from the lower bound reads
pair (L, U), or (L, H) from both bounds; `asymptotic_equilibria` takes
(L, H) as its first window and marches that pair on.  Any other start
marches a pair of its own.  Step k solves the exponential trapezoid
relation (`mild`) of A + mu*I and G = F + mu*id, with the march's shift mu
(`mild.march_shift`) making G increasing,

    u_{k+1} = c_k + W1 G(u_{k+1}),      c_k = P u_k + W0 G(u_k),

by the monotone inner iteration z_{j+1} = c_k + W1 G(z_j) started from the
row's interval bound, or from u_k itself when u_k provably lies below the
minimal (above the maximal) step solution.  Only W1, about half of B =
W0 + W1, sits on the implicit side, so the iteration contracts faster than
implicit exponential Euler's z = P u_k + B G(z) would.  Where the
contraction bound q = max(W1 s) < 1 (s the row sums of a bound of G' over
the interval) proves that every step has one solution, a row that moved
against its side starts at u_k -+ D / (1 - q) instead of its bound, D the
drift of c_k over the last step, and row U starts no higher than row H.
Where q > 1/4 and the problem has more than one entry, the inner iteration
is accelerated (C. V. Pao, Numer. Math. 79, 1998): with gamma a lower bound
of the slopes of G over the box between the starts of the lower and the
last upper row, which holds every row's iterates, z_{j+1} = (I - gamma
W1)^-1 (c_k + W1 (G(z_j) - gamma z_j)), which has the same fixed points,
sub- and super-solutions and stays order-preserving.  Positivity of P, W0
and W1 keeps the ordering chain

    lower bound <= z_j <= z_{j+1} <= Z_{j+1} <= Z_j <= upper bound

valid for every pair (z, Z) at round-off level on every inner iteration of
every step; the engine tracks each pair's worst signed violation and aborts
if any exceeds the floating-point-aware slack.  Two upper rows are not
compared.  The rows converge to the minimal/maximal trajectories.  Marching
on from the interval bounds yields the extremal equilibria: the march stops
once Newton's point next to each row is proven to be the extremal
equilibrium on its side (an M-matrix bound on the mean of F' over segments
between the row and that point), or else once the increment over a window
stalls, and a stalled state is Newton-polished.
Where Newton from the row misses the extremal equilibrium, the proof is
retried from states swept toward it by the elliptic monotone iteration
u <- (A + mu)^-1 (F(u) + mu u), after 8, 16, 32 and 64 sweeps and at the
sweeps' stop; the iteration preserves the order and fixes every
equilibrium, so from a row below the minimal equilibrium it never passes
it.  Where an end stays uncertified, both ends are cross-checked for
minimality/maximality against independently found equilibria; a certified
pair is extremal by proof, and the cross-check does not run.
"""

from __future__ import annotations

import copy
import functools
import operator
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .generators import GeneratorSpec, add_potential, trapezoid_weights
from .mild import (
    ProblemSpec,
    Trajectory,
    defect_slack,
    march_shift,
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
MAX_INNER_ITER = 2000  # inner iterations of one step before the march gives up


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
    # q of the start rule (`_contraction_bound`), or None where there is no
    # bound below 1
    contraction_bound: float | None
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
    Read on the problem's own A and F: the march's shift adds mu*u to both
    sides of each inequality and leaves it unchanged in exact arithmetic.
    """
    itv = problem.interval
    a = problem.A.matrix
    m_low = np.min(svec * (problem.rhs(itv.lower.values) - a @ itv.lower.values))
    m_up = np.min(svec * (a @ itv.upper.values - problem.rhs(itv.upper.values)))
    return max(0.0, -float(m_low), -float(m_up))


def _slope_bounds(f, signs, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise (lower, upper) bounds of S F' S over the box between the
    states a and b (in u, either order), as (c, c, n) blocks; S holds the
    cone signs.  The upper bound's off-diagonal entries are clipped at 0,
    which keeps them upper bounds."""
    low, high = cone_jacobian_range(f, np.minimum(a, b), np.maximum(a, b), signs)
    off = ~np.eye(f.components, dtype=bool)
    high[off] = np.maximum(high[off], 0.0)
    return low, high


def _contraction_bound(high: np.ndarray, w1: np.ndarray) -> float | None:
    """q = max(W1 s), a sup-norm Lipschitz constant of the step map
    z -> c_k + W1 G(z) on the interval, or None unless it is below 1.

    s holds the row sums of high, the march's upper bound of S (F' + mu) S
    over the interval (`_slope_bounds`), clipped at 0.  The shift makes
    S (F' + mu) S >= 0 there (`quasi_increasing_shift`), so |G(x) - G(y)|
    <= s |x - y|_inf for x, y in the box, and W1 >= 0 gives
    |W1 (G(x) - G(y))| <= (W1 s) |x - y|_inf.  The step constant c_k does
    not depend on z.  The clamp into the box is order-preserving and
    1-Lipschitz, so q bounds the clamped map as well.  q is rounded up over
    the dim + c terms summed per entry of W1 s.  A term with no finite
    bound (the signed sqrt at 0) gets None.
    """
    s = np.maximum(high, 0.0).sum(axis=1).ravel()
    if not np.isfinite(s).all():
        return None
    q = float(np.max(w1 @ s)) * (1.0 + 2.0 * (w1.shape[0] + high.shape[0])
                                 * np.finfo(float).eps)
    return q if q < 1.0 else None


def _shifted_term(f, svec: np.ndarray | None, shift: float):
    """z -> S (F(S z) + shift S z), the reaction term shifted by `shift` in
    standard coordinates (S = diag(svec), the identity for svec None); it
    closes over the term and the shift, not over a problem."""
    if svec is None:
        return lambda values: f.eval_shifted(values, shift)
    return f.shifted_in_cone(svec, shift)


ACCELERATION_Q = 0.25  # the accelerated step runs where q > 1/4 (`_Ladder`)
LADDER_LEVELS = 4  # gamma_m = m g_max / 4 for m = 0 .. 3


class _Ladder:
    """The levels of the accelerated step of a march: gamma_m = m g_max / 4
    for m = 0, ..., 3, g_max the largest diagonal entry of high, the march's
    (lower, upper) bound (low, high) of S (F' + mu) S over the interval
    (`_slope_bounds`), and per level m the step's W1_gamma^T and the term
    G - gamma id in standard coordinates (`rung`).

    Level 0 is the march's own W1^T and G.  A level above 0 is built on
    first use and kept: W1_gamma = (I - gamma W1)^-1 W1 is the function
    f1 / (1 - gamma f1) of A + mu*I, f1 that of W1
    (`generators.trapezoid_weights`) at A's eigenvalues plus mu, clipped at
    0 as `propagator_matrices` clips W1; G - gamma id is the term's own
    shifted evaluation at mu - gamma.  The ladder holds the problem's A and
    F, the shift and arrays, nothing that refers back to a problem; a march
    and its `select` copies share it, since a level's matrices do not
    depend on when they are built.
    """

    def __init__(self, problem: ProblemSpec, mu: float, svec, w1_t, g, low, high):
        self.a, self.f, self.mu, self.dt, self.svec = problem.A, problem.F, mu, problem.dt, svec
        diag = (range(low.shape[0]),) * 2
        g_max = float(np.max(high[diag]))
        self.gammas = [m * g_max / LADDER_LEVELS for m in range(LADDER_LEVELS)]
        self.rungs = {0: (0.0, w1_t, g)}
        # the level of the interval's box, where every march's first step starts
        self.interval_level = self._level(float(np.min(low[diag])))

    def _level(self, floor: float) -> int:
        """The highest level m with 0 < gamma_m <= floor, or 0."""
        m = LADDER_LEVELS - 1
        while m and not 0.0 < self.gammas[m] <= floor:  # a NaN takes level 0
            m -= 1
        return m

    def level(self, a: np.ndarray, b: np.ndarray) -> int:
        """The highest level m with gamma_m at or below the smallest
        diagonal entry of the lower bound of S (F' + mu) S over the box
        between the rows a and b (standard coordinates): there G - gamma_m
        id is order-preserving.  A diagonal entry of S F' S is one of F'
        itself, so the bound is read off `jacobian_range` directly."""
        if self.svec is not None:
            a, b = self.svec * a, self.svec * b
        low, _ = self.f.jacobian_range(np.minimum(a, b), np.maximum(a, b))
        return self._level(min(float(low[i, i].min()) for i in range(low.shape[0])) + self.mu)

    def rung(self, m: int) -> tuple:
        """(gamma_m, W1_gamma^T, G - gamma_m id) of level m, built once."""
        if m not in self.rungs:
            gamma, dt, mu = self.gammas[m], self.dt, self.mu

            def w1_gamma(w):
                f1 = trapezoid_weights(w + mu, dt)[1]
                return f1 / (1.0 - gamma * f1)

            w1 = self.a.function_matrix(w1_gamma)
            np.maximum(w1, 0.0, out=w1)
            self.rungs[m] = (gamma, w1.T.copy(),
                             _shifted_term(self.f, self.svec, self.mu - gamma))
        return self.rungs[m]


@functools.lru_cache(maxsize=None)
def _chain(k: int) -> tuple[tuple, tuple]:
    """The chain checks of a march with k rows: (runs, pairs).

    The links are lo <= row 0, row 0 <= row r and row r <= hi for every
    upper row r, in that order: link 0, links 1 .. k - 1 and links
    k .. 2k - 2.  They read the buffer [lo, row 0, ..., row k - 1, hi, ...,
    hi], with k - 1 copies of hi so that upper row r meets its own at row
    k + r.  `runs` groups the links into (first link, first buffer row,
    second buffer row, count), one subtraction per run: one for k = 2, two
    for k = 3.  Two upper rows are not linked: each pair's proof needs its
    own links only, and rows 0 and k - 1 never read a middle row, whose
    start is capped at row k - 1's (`_March`).  `pairs[r - 1]` picks, from
    the maxima of the check rows of `_March` (2k per-row rows, then the
    links), pair (0, r)'s violations in the order the march compares them:
    its three links, the fall of row 0 and the rise of row r.
    """
    links = ([(0, 1)] + [(1, 1 + r) for r in range(1, k)]
             + [(1 + r, k + r) for r in range(1, k)])
    runs = []
    for i, (a, b) in enumerate(links):
        if runs and runs[-1][1] + runs[-1][3] == a and runs[-1][2] + runs[-1][3] == b:
            runs[-1][3] += 1
        else:
            runs.append([i, a, b, 1])
    pairs = tuple(
        operator.itemgetter(2 * k, 2 * k + r, 3 * k - 1 + r, k, r) for r in range(1, k)
    )
    return tuple(map(tuple, runs)), pairs


class _March:
    """The rows of one time march, solved step by step: row 0 is the lower
    row, rows 1, ..., k - 1 are upper rows.

    Each upper row r forms the pair (0, r) with the lower row, and every
    figure of a pair reads its own two rows only (`report`, `n_iters`,
    `converged`, `worst_violation`): the rows share the steps' GEMMs, and
    each row's iterates are those it would have alone, up to the rounding
    of the GEMM (below).  `iterate` marches one pair; a problem's first
    window (`_first_window`) marches rows L and H, or L, U and H, from the
    lower bound, the lower bound and the upper bound, in one block.

    Rows are held as one k x dim block in standard coordinates (each entry
    multiplied by its cone sign), where the cone order is the entrywise one.
    The march computes its shift mu = `march_shift(problem)` once, reads
    the weights P, W0 and W1 of A + mu*I from the problem's own generator
    (`GeneratorSpec.propagators`) and evaluates G = F + mu*id; the reports
    carry mu as mu_applied.
    Step k solves z = T_k(z) = c_k + W1 G(z), with the step constant c_k =
    P u_k + W0 G(clamp(u_k)) (`_constant`), by the monotone inner iteration
    z_{j+1} = c_k + W1 G(z_j), from the row's interval bound, or from u_k
    when k >= 1 and the row moved in its own cone direction over step k-1.
    Where the contraction bound q (below) exists the test is exact: a row
    that moved against its side at any entry, by however little, takes the
    contraction start.  Where q is None a move against the side within the
    slack still passes, which is unproven for a move in (0, slack]: u_k is
    then a sub-solution (super-solution) of step k only up to about (P +
    W0 G') times the move, which exceeds the slack wherever the step
    amplifies; the guards catch a start that misses by more.
    Warm start, for the lower row (an upper row is the mirror image):
    u_k >= u_{k-1} and u_k = T_{k-1}(u_k), so T_k(u_k) - u_k = T_k(u_k) -
    T_{k-1}(u_k) = P (u_k - u_{k-1}) + W0 (G(u_k) - G(u_{k-1})) >= 0, since
    P, W0 >= 0 and G is increasing: u_k is a sub-solution of step k.  Every
    fixed point z of step k has z = T_k(z) >= T_{k-1}(z) for the same
    reason, so z is a super-solution of step k-1 and lies above u_k, its
    minimal fixed point.  So the warm start converges to the same (minimal)
    step solution.  Each row stops on its own inner increment.

    A row that moved against its side over step k-1 starts at its bound,
    unless the contraction bound q (`_contraction_bound`) is below 1.  Then
    the step map T_k has one fixed point, and an upper row starts at
    min(hi, Y + delta), the lower row at max(lo, Y - delta), with Y = u_k
    the row's state, delta = D / (1 - q) and D the largest entry of c_k -
    c_{k-1} (of c_{k-1} - c_k for the lower row), floored at 0 and padded
    by the slack.  Proof for an upper row: Y is the last iterate of step
    k-1's falling sequence, so T_{k-1}(Y) <= Y, and T_k(Y) = T_{k-1}(Y) +
    c_k - c_{k-1} <= Y + D, since the two maps differ by their constants
    alone.  With q the Lipschitz bound, T_k(Y + delta) <= Y + D + q delta
    = Y + delta: a super-solution, and so is its minimum with the
    super-solution hi.  The falling iteration from it reaches a fixed point
    of step k, the only one.  The lower row is the mirror image.  Every
    guard runs unchanged, so a start that is not a super-solution
    (sub-solution) raises the sandwich breach.

    The cap.  Where q exists, the middle row of a three-row march (row U,
    rising from the lower bound, beside row H from the upper bound) starts
    at the entrywise minimum of its own start and row k - 1's.  Proof: U <=
    H in exact arithmetic (the comparison principle), so U's step constant
    lies below H's, H's start, a super-solution of H's step map, is one of
    U's, and the minimum of two super-solutions is one; with q < 1 the
    falling iteration from it reaches U's one step solution.  Rows 0 and
    k - 1 never read row U.  A row U above row H by more than round-off, a
    state no exact march reaches, fails its own monotonicity guard.

    The accelerated step.  Where q > 1/4 and dim > 1 the march has a
    ladder (`_Ladder`) of levels gamma_m = m g_max / 4, m = 0, ..., 3, and
    every row iterates T_gamma(z) = c_gamma + W1_gamma (G(z) - gamma z) in
    place of T(z) = c_k + W1 G(z), with W1_gamma = (I - gamma W1)^-1 W1 and
    c_gamma = (I - gamma W1)^-1 c_k = c_k + gamma W1_gamma c_k.  gamma is
    the highest level at or below the smallest diagonal entry of the lower
    bound of S (F' + mu) S over the box between the starts of rows 0 and
    k - 1, which holds every row's iterates: one level per step, one GEMM
    per inner iteration.  The box is evaluated at every step while its
    level sits above 0, else only at the march's steps 1, 2, 4, 8, ...
    (every level-0 box is valid).  At q <= 1/4 a plain step needs a few
    inner iterations and the ladder would cost more than it saves; the
    dim == 1 float path keeps the plain step.

    Proof, in exact arithmetic.  s >= gamma entrywise, since s_i bounds the
    slope of G_i from above and gamma bounds it from below; with W1 >= 0,
    rho(gamma W1) <= gamma max(W1 1) <= max(W1 s) = q < 1, so
    (I - gamma W1)^-1 = sum_j (gamma W1)^j >= 0 and W1_gamma >= 0.
    T_gamma(z) - z = (I - gamma W1)^-1 (T(z) - z): the sub-solutions,
    super-solutions and fixed points of T_gamma and T coincide, and every
    start rule above stays proven.  G - gamma id is order-preserving on the
    box, so T_gamma is too, and each row's iterates move monotonically
    toward the same step solution as under T, as long as the box holds
    them.  It does: row 0 rises from its start, a sub-solution, toward its
    minimal step solution, which lies below the start of row k - 1, a
    super-solution of row k - 1's step map, which dominates row 0's since
    y_{k-1} >= y_0 (so c_k of row k - 1 is the larger); row k - 1 falls
    toward its maximal step solution, which lies above row 0's start, a
    sub-solution of its map for the same reason; a middle row falls from
    its start, at or below row k - 1's by the cap, and its iterates lie
    above row 0's by the link and its guard.  So the stop rule, the guards,
    the slack, the links and the clamp stay as they are.

    The guards run on every inner iteration: each row's monotonicity, and
    the links of `_chain`, lo <= z <= Z_r <= hi for every pair.

    Each inner iteration multiplies the rows by W1 in one GEMM, and each
    step forms the rows' constants in another.  Every march multiplies all
    its rows on every inner iteration and holds the stopped ones, so a
    row's bits do not depend on when its partners stop.  Rows L and H come
    out the same in the window (L, H) as in the window (L, U, H) only where
    the BLAS rounds each row of a 2-row GEMM as it does in a 3-row one: a
    one-row GEMM takes another kernel, and OpenBLAS 0.3.31 rounds 2 and 3
    rows apart for 578 <= dim <= 707.

    `_advance_block` marches a pair or a window's three rows; a one-entry
    march (dim == 1) takes `_advance_scalar`, all its rows in one loop on
    Python floats.

    A march fails as a whole: the first breach of a link or of a row's
    monotonicity, or the first pair that clamps too often, raises
    NumericalError from `advance`.

    `advance` appends a chunk of steps; `report` describes the last chunk
    and `trajectories` joins all of them; `select` copies out one pair.
    """

    def __init__(self, problem, lower, uppers, tol):
        interval = problem.interval
        mu = march_shift(problem)
        svec = interval.cone.sign_vector(interval.lower.n_points)
        base_slack = order_slack(interval.value_scale(), interval.dim)
        # the breach guard additionally allows the bounds' own certificate deficit
        slack = max(base_slack, 12.0 * _bound_deficit(problem, svec))
        if any(order_violation(lower, upper, interval.cone) > slack for upper in uppers):
            raise ValidationError("u0_upper must lie above u0 in the cone order")
        self.interval, self.mu = interval, mu
        self.dt, self.tol, self.slack = problem.dt, tol, slack
        self.svec = None if np.all(svec == 1.0) else svec
        self.lo, self.hi = interval.standard_bounds()
        start = np.vstack([lower.values, *(upper.values for upper in uppers)])
        self.k = start.shape[0]
        clamped = clamp_values(start, interval)
        if monotone_norm(clamped - start) > slack:
            warnings.warn("initial value clamped to the order interval", stacklevel=3)
        self.y = self._standard(clamped)
        self.y_prev = None  # the rows one node back, once a step was taken
        self.c_prev = None  # their step constants, P y_prev + W0 G(y_prev)
        self.q = None  # the contraction bound, where it is below 1
        self.ladder = None  # the accelerated step's levels, where q > 1/4
        # the steps marched so far, and the level the box of rows 0 and
        # k - 1 took at its last evaluation (`_rungs`)
        self.n_steps = 0
        self.box_level = 0
        # the rows by node, one chunk per advance, each from its start node;
        # per row of the last chunk its trajectory, once asked for (`_row`)
        self.states: list[np.ndarray] = []
        self.handed: list[Trajectory | None] = [None] * self.k
        # per pair (0, r), entry r - 1: the worst violation over every step
        self.worst_violation = [-np.inf] * (self.k - 1)
        # of the last chunk: penultimate inner iterates by node, the largest
        # increment of each row per inner iteration, each pair's worst
        # violation per step, and per row its clamp count, inner iterations
        # in all, most inner iterations in one step and convergence
        self.penultimate = None
        self.distances: list[list[float]] = []
        self.violations: list[list[float]] = []
        self.row_clamped, self.row_iters, self.row_peak = [0] * self.k, [0] * self.k, [0] * self.k
        self.row_converged = [True] * self.k

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
        # the weights of A + mu*I; S W S = W for W = P, W0, W1, since A
        # couples no components of opposite sign
        p_mat, w0, w1 = problem.A.propagators(problem.dt, mu)
        self.p_t, self.w0_t, self.w1_t = p_mat.T.copy(), w0.T.copy(), w1.T.copy()
        # S (F' + mu) S over the interval, for the contraction bound and the ladder
        low, high = _slope_bounds(problem.F, interval.cone.signs, interval.lower.values,
                                  interval.upper.values)
        diag = (range(low.shape[0]),) * 2
        low[diag] += mu
        high[diag] += mu
        self.q = _contraction_bound(high, w1)
        # the shifted reaction term G = F + mu*id in standard coordinates
        self.g = _shifted_term(problem.F, self.svec, mu)
        self.F = problem.F
        if self.q is not None and self.q > ACCELERATION_Q and self.y.shape[1] > 1:
            self.ladder = _Ladder(problem, mu, self.svec, self.w1_t, self.g, low, high)

    def _standard(self, values: np.ndarray) -> np.ndarray:
        return values if self.svec is None else self.svec * values

    def _constant(self, y: np.ndarray) -> np.ndarray:
        """The step constant c = P y + W0 G(clamp(y)) for rows y in
        standard coordinates.  The reaction term sees only states inside the
        interval.  Two GEMMs and a sum, not one GEMM of [y, G] with
        [P; W0]^T, whose fused multiply-adds a one-entry march on Python
        floats could not reproduce."""
        c = y @ self.p_t
        c += self.g(np.minimum(np.maximum(y, self.lo), self.hi)) @ self.w0_t
        return c

    def advance(self, n_steps: int) -> None:
        """March n_steps steps.

        Raises NumericalError on the first sandwich breach, or when more
        than MAX_CLAMP_FRACTION of the entries a pair evaluated in the chunk
        needed clamping beyond the slack.
        """
        k = self.k
        chunk = np.empty((n_steps + 1, k, self.y.shape[1]))
        pen = np.empty_like(chunk)
        chunk[0] = pen[0] = self.y
        self.distances = []
        self.violations = [[] for _ in range(k - 1)]
        self.row_clamped, self.row_iters, self.row_peak = [0] * k, [0] * k, [0] * k
        self.row_converged = [True] * k
        if self.degenerate:
            chunk[1:], pen[1:] = self.y, self.y
            self.distances = [[0.0] * k]
            self.violations = [[0.0] * n_steps for _ in range(k - 1)]
            self.row_peak = [1] * k
        elif self.y.shape[1] == 1:
            self._advance_scalar(chunk[1:], pen[1:])
        else:
            self._advance_block(chunk[1:], pen[1:])
        for r in range(1, k):
            clamped, total = self.row_clamped[0] + self.row_clamped[r], self._evaluations(r)
            if clamped > MAX_CLAMP_FRACTION * max(1, total):
                raise NumericalError(
                    f"{100 * clamped / total:.3f}% of evaluations left the order interval")
        self.n_steps += n_steps
        self.states.append(chunk)
        self.handed = [None] * k
        self.penultimate = pen
        self.worst_violation = [
            max([worst, *steps]) for worst, steps in zip(self.worst_violation, self.violations)
        ]

    def _evaluations(self, r: int) -> int:
        """Entries pair (0, r) evaluated the reaction term on in the last chunk."""
        return self.y.shape[1] * (self.row_iters[0] + self.row_iters[r])

    def n_iters(self, r: int = 1) -> int:
        """The most inner iterations pair (0, r) needed in any step of the
        last chunk."""
        return max(self.row_peak[0], self.row_peak[r])

    def converged(self, r: int = 1) -> bool:
        """Both rows of pair (0, r) solved every step of the last chunk."""
        return self.row_converged[0] and self.row_converged[r]

    def _breach(self, worst: float) -> None:
        raise NumericalError(
            f"sandwich invariant breached: violation {worst:.3e} > slack {self.slack:.3e}")

    def _reach(self, drift: float) -> float:
        """delta = D / (1 - q) of the start rule, D the drift floored at 0
        and padded by the slack."""
        return (max(drift, 0.0) + self.slack) / (1.0 - self.q)

    def _rungs(self, cur: np.ndarray, c: np.ndarray, step: int, first: bool) -> tuple:
        """The rung every row takes at the march's step `step`, counted from
        1: (W1_gamma^T, G - gamma id, c_gamma), with c_gamma = c + gamma
        W1_gamma c = (I - gamma W1)^-1 c.  gamma is the level of the box
        between the starts of rows 0 and k - 1 in the buffer `cur`
        (`_chain`), which holds every row's iterates (`_March`); `first`
        marks the march's first step, whose rows start at the interval
        bounds.  The box is evaluated on every step while its last level
        sits above level 0, else at steps 1, 2, 4, 8, ... only.  Without a
        ladder, and while the box waits on level 0, every row takes the
        plain step."""
        ladder = self.ladder
        if ladder is None or not (first or self.box_level or step & (step - 1) == 0):
            return self.w1_t, self.g, c
        self.box_level = ladder.interval_level if first else ladder.level(cur[1], cur[self.k])
        gamma, w1_t, g = ladder.rung(self.box_level)
        return w1_t, g, c if gamma == 0.0 else c + gamma * (c @ w1_t)

    def _advance_block(self, out, pen) -> None:
        lo, hi, slack, tol, max_iter = self.lo, self.hi, self.slack, self.tol, MAX_INNER_ITER
        dist, q, k = self.distances, self.q, self.k
        y, y_prev, c_prev = self.y, self.y_prev, self.c_prev
        clamped, iters, peak = self.row_clamped, self.row_iters, self.row_peak
        converged, violations = self.row_converged, self.violations
        # two [lower bound, row 0, ..., row k - 1, upper bound, ...] buffers
        # (`_chain`): bufs[t] holds z_j, bufs[1 - t] receives z_{j+1}; a
        # stopped row is kept in both
        cur = np.vstack([lo] * (k + 1) + [hi] * (k - 1))
        bufs = (cur, cur.copy())
        # per row z' - z, then per row -(z' - z), then the links of the new
        # iterate: one max per row gives each row's increment, its moves
        # against its side and the links; a stopped row's rows read -inf
        chk = np.empty((4 * k - 1, y.shape[1]))
        runs, pairs = _chain(k)
        reaches_tol = float(tol).__le__  # inc >= tol, mapped over the rows in C
        # how far a row may move against its side and keep its warm start:
        # not at all where q exists, else within the slack (`_March`)
        give = slack if q is None else 0.0
        # per buffer, the operands of its links as views
        link_ops = [[(chk[2 * k + i:2 * k + i + n], buf[a:a + n], buf[b:b + n])
                     for i, a, b, n in runs] for buf in bufs]
        spans, rise, fall = [buf[1:1 + k] for buf in bufs], chk[:k], chk[k:2 * k]
        t = 0
        for step in range(out.shape[0]):
            c = self._constant(y)
            cur = bufs[t]
            if y_prev is None:
                cur[1], cur[2:k + 1] = lo, hi
            else:
                moved = y - y_prev
                if moved[0].min() >= -give:
                    cur[1] = y[0]
                elif q is None:
                    cur[1] = lo
                else:
                    np.maximum(y[0] - self._reach(float((c_prev[0] - c[0]).max())), lo,
                               out=cur[1])
                for r in range(1, k):
                    if moved[r].max() <= give:
                        cur[1 + r] = y[r]
                    elif q is None:
                        cur[1 + r] = hi
                    else:
                        np.minimum(y[r] + self._reach(float((c[r] - c_prev[r]).max())), hi,
                                   out=cur[1 + r])
                if q is not None and k == 3:  # the cap: row U starts at or below row H
                    np.minimum(cur[2], cur[3], out=cur[2])
            on, held = [True] * k, []  # the running and the stopped rows
            w1_t, g, cc = self._rungs(cur, c, self.n_steps + step + 1, y_prev is None)
            # while the links hold without any violation, every row lies in
            # [lo, hi] and the clamp is the identity
            for o, first, second in link_ops[t]:
                np.subtract(first, second, out=o)
            inside = chk[2 * k:].max() <= 0.0
            worst = [-np.inf] * (k - 1)
            j = 0
            while True:
                zs, new = spans[t], spans[1 - t]
                if inside:
                    zc = zs
                else:
                    zc = np.minimum(np.maximum(zs, lo), hi)
                    counts = np.count_nonzero(np.abs(zc - zs) > slack, axis=1).tolist()
                    for r in range(k):
                        clamped[r] += counts[r] if on[r] else 0
                np.matmul(g(zc), w1_t, out=new)
                new += cc
                np.subtract(new, zs, out=rise)
                np.negative(rise, out=fall)
                for r in held:  # it keeps its state, and its check rows read -inf
                    new[r] = zs[r]
                    chk[r] = chk[k + r] = -np.inf
                for o, first, second in link_ops[1 - t]:
                    np.subtract(first, second, out=o)
                m = chk.max(axis=1).tolist()
                inside = max(m[2 * k:]) <= 0.0
                for p, pick in enumerate(pairs):
                    w = worst[p] = max(worst[p], *pick(m))
                    if w > slack:
                        self._breach(w)
                # a stopped row's check rows read -inf, and so does its increment
                incs = list(map(max, m[:k], m[k:2 * k]))
                if j < len(dist):
                    dist[j][:] = map(max, dist[j], incs)
                else:
                    dist.append([inc if run else 0.0 for inc, run in zip(incs, on)])
                j += 1
                going = list(map(reaches_tol, incs))
                if j == max_iter and any(going):
                    for r in range(k):
                        converged[r] = converged[r] and not going[r]
                    going = [False] * k
                if going != on:
                    for r in range(k):
                        if on[r] and not going[r]:
                            # the row is solved: store its last two iterates,
                            # and hold its final one while others run
                            iters[r] += j
                            peak[r] = max(peak[r], j)
                            pen[step, r] = zs[r]
                            out[step, r] = zs[r] = new[r]
                    if not any(going):
                        break
                    on = going
                    held = [r for r in range(k) if not on[r]]
                t = 1 - t
            for p in range(k - 1):
                violations[p].append(worst[p])
            y_prev, y, c_prev = y, out[step], c
        self.y, self.y_prev, self.c_prev = y.copy(), y_prev.copy(), c_prev

    def _advance_scalar(self, out, pen) -> None:
        """dim == 1: the same iteration on Python floats, in one loop that
        steps the lower row and the march's one or two upper rows together,
        unrolled (a loop over a list of rows ran about a third slower).

        Each row takes one eval_shifted_scalar call per step for its step
        constant, and one per inner iteration while it runs; a stopped row
        is held.  No row's floats depend on another row, so each row carries
        the bits it has in any other march.  Each pair's violations are
        compared in the order of `_advance_block`: the fall of row 0, the
        rise of row r, then the links lo <= z0 <= z_r <= hi, as max() would
        take them.
        """
        lo, hi = float(self.lo[0]), float(self.hi[0])
        slack, tol, max_iter = self.slack, self.tol, MAX_INNER_ITER
        p, w0, w1 = float(self.p_t[0, 0]), float(self.w0_t[0, 0]), float(self.w1_t[0, 0])
        dist, violations, k = self.distances, self.violations, self.k
        three = k == 3  # else row 2 never runs, and pair (0, 2) is not read
        # G = F + mu*id on one scalar state; a reversed cone marches
        # g(y) = -G(-y), and sign flips are exact
        f, mu = self.F.eval_shifted_scalar, float(self.mu)
        if self.svec is not None:
            def f(x, shift, rhs=f):
                return -rhs(-x, shift)
        # per row: state, previous state and previous step constant; row 2's
        # floats stay 0.0 where k == 2
        warm = self.y_prev is not None
        pad = [0.0] * (3 - k)
        y0, y1, y2 = self.y[:, 0].tolist() + pad
        if warm:
            p0, p1, p2 = self.y_prev[:, 0].tolist() + pad
            cp0, cp1, cp2 = self.c_prev[:, 0].tolist() + pad
        else:
            p0 = p1 = p2 = cp0 = cp1 = cp2 = 0.0
        c2 = z2 = 0.0
        bounded = self.q is not None
        give = 0.0 if bounded else slack  # as in `_advance_block`
        n0 = n1 = n2 = clamped0 = clamped1 = clamped2 = peak0 = peak1 = peak2 = 0
        capped0 = capped1 = capped2 = False
        n_dist = len(dist)  # the inner iterations dist has a row for
        # flat views of out and pen, k floats a step (both are contiguous,
        # so reshape makes views): a memoryview's item writes cost a
        # fraction of numpy's
        out_f, pen_f = (memoryview(a.reshape(-1)) for a in (out, pen))
        for step in range(out.shape[0]):
            c0 = p * y0 + w0 * f(lo if y0 < lo else hi if y0 > hi else y0, mu)
            c1 = p * y1 + w0 * f(lo if y1 < lo else hi if y1 > hi else y1, mu)
            if three:
                c2 = p * y2 + w0 * f(lo if y2 < lo else hi if y2 > hi else y2, mu)
            if not warm:
                z0, z1, z2 = lo, hi, hi
            else:
                z0 = (y0 if y0 - p0 >= -give else
                      max(y0 - self._reach(cp0 - c0), lo) if bounded else lo)
                z1 = (y1 if y1 - p1 <= give else
                      min(y1 + self._reach(c1 - cp1), hi) if bounded else hi)
                if three:
                    z2 = (y2 if y2 - p2 <= give else
                          min(y2 + self._reach(c2 - cp2), hi) if bounded else hi)
                    if bounded and z2 <= z1:  # the cap, taking z2 on a tie as np.minimum
                        z1 = z2
            last0, last1, last2 = z0, z1, z2
            s0, s1, s2 = n0, n1, n2
            on0 = on1 = True
            on2 = three
            # per pair (0, r), the worst violation of the step; worst2 is
            # read only when three
            worst1 = worst2 = -np.inf
            j = 0
            while True:
                inc0 = inc1 = inc2 = 0.0
                if on0:
                    n0 += 1
                    zc = z0
                    if zc < lo or zc > hi:
                        zc = lo if zc < lo else hi
                        clamped0 += abs(zc - z0) > slack
                    new = c0 + w1 * f(zc, mu)
                    inc0 = abs(new - z0)
                    fall = z0 - new
                    if fall > worst1:
                        worst1 = fall
                    if fall > worst2:
                        worst2 = fall
                    last0, z0 = z0, new
                if on1:
                    n1 += 1
                    zc = z1
                    if zc < lo or zc > hi:
                        zc = lo if zc < lo else hi
                        clamped1 += abs(zc - z1) > slack
                    new = c1 + w1 * f(zc, mu)
                    inc1 = abs(new - z1)
                    if new - z1 > worst1:
                        worst1 = new - z1
                    last1, z1 = z1, new
                if on2:
                    n2 += 1
                    zc = z2
                    if zc < lo or zc > hi:
                        zc = lo if zc < lo else hi
                        clamped2 += abs(zc - z2) > slack
                    new = c2 + w1 * f(zc, mu)
                    inc2 = abs(new - z2)
                    if new - z2 > worst2:
                        worst2 = new - z2
                    last2, z2 = z2, new
                below = lo - z0
                if below > worst1:
                    worst1 = below
                if z0 - z1 > worst1:
                    worst1 = z0 - z1
                if z1 - hi > worst1:
                    worst1 = z1 - hi
                if worst1 > slack:
                    self._breach(worst1)
                if three:
                    if below > worst2:
                        worst2 = below
                    if z0 - z2 > worst2:
                        worst2 = z0 - z2
                    if z2 - hi > worst2:
                        worst2 = z2 - hi
                    if worst2 > slack:
                        self._breach(worst2)
                if j < n_dist:
                    row = dist[j]
                    if inc0 > row[0]:
                        row[0] = inc0
                    if inc1 > row[1]:
                        row[1] = inc1
                    if three and inc2 > row[2]:
                        row[2] = inc2
                else:
                    dist.append([inc0, inc1, inc2] if three else [inc0, inc1])
                    n_dist += 1
                j += 1
                on0 = on0 and inc0 >= tol
                on1 = on1 and inc1 >= tol
                on2 = on2 and inc2 >= tol
                if not (on0 or on1 or on2):
                    break
                if j == max_iter:
                    capped0, capped1, capped2 = capped0 or on0, capped1 or on1, capped2 or on2
                    break
            violations[0].append(worst1)
            if three:
                violations[1].append(worst2)
            i = k * step
            out_f[i], out_f[i + 1], pen_f[i], pen_f[i + 1] = z0, z1, last0, last1
            if three:
                out_f[i + 2], pen_f[i + 2] = z2, last2
            if n0 - s0 > peak0:
                peak0 = n0 - s0
            if n1 - s1 > peak1:
                peak1 = n1 - s1
            if n2 - s2 > peak2:
                peak2 = n2 - s2
            p0, p1, p2, y0, y1, y2, cp0, cp1, cp2 = y0, y1, y2, z0, z1, z2, c0, c1, c2
            warm = True
        rows = ((y0, p0, cp0, clamped0, n0, peak0, not capped0),
                (y1, p1, cp1, clamped1, n1, peak1, not capped1),
                (y2, p2, cp2, clamped2, n2, peak2, not capped2))[:k]
        self.y, self.y_prev, self.c_prev = (
            np.array([[row[i]] for row in rows]) for i in range(3))
        self.row_clamped, self.row_iters, self.row_peak, self.row_converged = (
            [row[i] for row in rows] for i in range(3, 7))

    def _trajectory(self, block: np.ndarray, row: int) -> Trajectory:
        t_grid = self.dt * np.arange(block.shape[0])
        return Trajectory(t_grid, self._standard(block[:, row]), self.interval.components)

    def _row(self, row: int) -> Trajectory:
        """The row's trajectory over the last chunk: one immutable object
        for every report and every caller, so it is rendered once."""
        if self.handed[row] is None:
            self.handed[row] = self._trajectory(self.states[-1], row)
        return self.handed[row]

    def report(self, r: int = 1) -> IterationReport:
        """Pair (0, r) over the last chunk as an iteration report, on a grid
        from t = 0."""
        chunk, pen = self.states[-1], self.penultimate
        n_iters = self.n_iters(r)
        dist = np.asarray(self.distances[:n_iters], dtype=float)[:, [0, r]]
        violations = np.asarray(self.violations[r - 1], dtype=float)
        gap = float(np.max(np.abs(chunk[:, r] - chunk[:, 0])))
        return IterationReport(
            n_iters=n_iters, converged=self.converged(r), tol=self.tol,
            mu_applied=self.mu,
            distances_lower=dist[:, 0], distances_upper=dist[:, 1],
            sandwich_violations=violations,
            worst_violation=float(np.max(violations)),
            u_min=self._row(0), u_max=self._row(r),
            unique_flag=bool(gap <= 10.0 * self.tol),
            clamp_fraction=(self.row_clamped[0] + self.row_clamped[r])
            / max(1, self._evaluations(r)),
            contraction_bound=self.q,
            stored={
                "interval": self.interval, "slack": self.slack,
                "lower_prev": self._trajectory(pen, 0),
                "upper_prev": self._trajectory(pen, r),
            },
        )

    def trajectories(self) -> tuple[Trajectory, Trajectory]:
        """The rows of pair (0, 1) over every chunk, from t = 0."""
        if len(self.states) > 1:  # join once; later chunks repeat their start node
            first, *rest = self.states
            self.states[:] = [np.concatenate([first, *(c[1:] for c in rest)])]
            self.handed = [None] * self.k
        return self._row(0), self._row(1)

    def select(self) -> _March:
        """The march of pair (0, k - 1) alone, rows 0 and 1 of a copy holding
        the pair's states, figures and the level of its box, to go on from
        where this one stopped.  This march is left as it is; the copy
        shares only what no march writes (the bounds, the propagators, the
        ladder and the pair's immutable trajectories, until it advances)."""
        r = self.k - 1
        rows = [0, r]
        pair = copy.copy(self)
        pair.k = 2
        pair.y = self.y[rows]
        if self.y_prev is not None:
            pair.y_prev, pair.c_prev = self.y_prev[rows], self.c_prev[rows]
        pair.states = [chunk[:, rows] for chunk in self.states]
        pair.handed = [self.handed[row] for row in rows]
        pair.penultimate = self.penultimate[:, rows]
        pair.distances = [[d[0], d[r]] for d in self.distances[:self.n_iters(r)]]
        pair.violations = [self.violations[r - 1][:]]
        pair.worst_violation = [self.worst_violation[r - 1]]
        pair.row_clamped = [self.row_clamped[0], self.row_clamped[r]]
        pair.row_iters = [self.row_iters[0], self.row_iters[r]]
        pair.row_peak = [self.row_peak[0], self.row_peak[r]]
        pair.row_converged = [self.row_converged[0], self.row_converged[r]]
        return pair


def _first_window(problem: ProblemSpec, tol: float, rising: bool = False) -> _March:
    """The march over the problem's first window from the interval bounds:

    - L from the lower bound, the lower row;
    - U from the lower bound, the rising upper row, only when `rising`:
      pair (L, U) is `iterate` from u0 = lower;
    - H from the upper bound, the last row: pair (L, H) is `iterate` from
      the interval's bounds and the first window of `asymptotic_equilibria`.

    Memoized on the problem (`ProblemSpec._first_windows`) by tol.  Rows L
    and H alone are marched until a caller asks for U; then rows L, U and H
    are marched in one block, which replaces the pair.  Every march holds
    its stopped rows in its GEMM (`_March`), and rows L and H never read
    row U, so L and H carry the same bits in either wherever the BLAS
    rounds each row of a 2-row GEMM as it does in a 3-row one (OpenBLAS
    0.3.31 does not for 578 <= dim <= 707); then every caller reads the
    same rows in whatever order and however often it asks.
    A march that fails raises from `advance` before it is stored, so a
    later caller marches its rows afresh.
    The march is read only: callers take its reports, or `select` a pair to
    march on.  It holds arrays, the interval, the reaction term and one
    `Trajectory` per row (`_March._row`), nothing that refers back to a
    problem.
    """
    memo = problem._first_windows
    march = memo.get(tol)
    if march is None or rising and march.k < 3:
        itv = problem.interval
        uppers = (itv.lower, itv.upper) if rising else (itv.upper,)
        march = _March(problem, itv.lower, uppers, tol)
        march.advance(time_grid(problem.horizon, problem.dt).size - 1)
        memo[tol] = march
    return march


def _is_bound(u: GridFunction, bound: GridFunction) -> bool:
    """u holds the bound's values, bit for bit."""
    return u.values.tobytes() == bound.values.tobytes()


def iterate(
    problem: ProblemSpec,
    u0: GridFunction,
    tol: float = 1e-9,
    u0_upper: GridFunction | None = None,
) -> IterationReport:
    """March both rows over the problem's grid; returns the sandwiched
    minimal/maximal trajectories.

    Each step solves the exponential trapezoid relation u_{k+1} = P u_k +
    W0 G(u_k) + W1 G(u_{k+1}) (`mild`), a second-order rule whose implicit
    weight W1 is about half of the one-step integral B = W0 + W1.  A row
    that moved in its own cone direction starts its next step at its state,
    a proven sub-solution (super-solution) of the step (`_March`).

    u_min is the minimal solution from u0, u_max the maximal one from
    u0_upper (default u0; must lie above u0 in the cone order).  Every step
    is solved until each row's inner increment drops below tol, in at most
    MAX_INNER_ITER inner iterations; a step that needs more leaves converged
    False.  unique_flag says the two agree within 10*tol, so for distinct
    initial values it is set only when those agree within 10*tol too; it
    proves nothing about uniqueness.

    From u0 = lower the upper row rises, against its side.  Where the
    contraction bound q (contraction_bound, `_contraction_bound`) is below
    1, each step has one solution, and that row starts at Y + D / (1 - q),
    Y its state and D the drift of the step constant P Y + W0 G(Y) over the
    last step, q = max(W1 s) the Lipschitz bound of the step map, capped
    entrywise at row H's start: a proven super-solution of the step
    (`_March`).  Otherwise it restarts from the upper bound at every step,
    as the lower row does from the lower bound when it falls.  Where q >
    1/4 and the problem has more than one entry, each step runs the
    accelerated inner iteration of `_March`, which reaches the same step
    solutions in fewer iterations.

    When u0 holds the lower bound's values and u0_upper is None (rows L and
    U) or holds the upper bound's (rows L and H), the report is read from
    the problem's first window (`_first_window`), memoized by (problem,
    tol) and shared with `asymptotic_equilibria`; its figures read the
    pair's own rows only.  From the lower bound alone, the window marches
    row H beside L and U, for the equilibria march that usually follows.
    Any other start marches its own two rows.

    The march applies its shift mu (`mild.march_shift`: the quasi-increasing
    shift, raised to the stability floor) to A and F alike; fixed points are
    unaffected, and the report's mu_applied holds it.  Raises NumericalError on a sandwich
    breach or when more than MAX_CLAMP_FRACTION of a pair's evaluated
    entries needed clamping beyond round-off.  The first window fails as a
    whole, so from the lower bound alone a breach of row H fails the call.
    """
    interval = problem.interval
    if _is_bound(u0, interval.lower):
        if u0_upper is None:
            return _first_window(problem, tol, rising=True).report(1)
        if _is_bound(u0_upper, interval.upper):
            march = _first_window(problem, tol)
            return march.report(march.k - 1)
    march = _March(problem, u0, (u0 if u0_upper is None else u0_upper,), tol)
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
    problem: ProblemSpec, tol: float = 1e-9
) -> tuple[Trajectory, Trajectory, IterationReport]:
    """Minimal trajectory from the lower bound and maximal from the upper,
    by `iterate` (at most MAX_INNER_ITER inner iterations per step): rows L
    and H of the problem's first window, memoized by (problem, tol) and
    shared with `asymptotic_equilibria`.

    Certifies the time-monotonicity of both (the minimal one increases, the
    maximal one decreases in the cone order).
    """
    interval = problem.interval
    report = iterate(problem, interval.lower, tol, u0_upper=interval.upper)
    u_min, u_max = report.u_min, report.u_max
    slack = order_slack(interval.value_scale(), interval.dim)
    v_inc = time_monotonicity_violation(u_min, interval, "increasing")
    v_dec = time_monotonicity_violation(u_max, interval, "decreasing")
    if max(v_inc, v_dec) > slack:
        raise NumericalError(
            f"extremal trajectories lost time-monotonicity: {max(v_inc, v_dec):.3e}"
        )
    return u_min, u_max, report


def linearized_solve(problem: ProblemSpec, v: np.ndarray,
                     rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve (A - F'(v)) x = rhs, Newton's matrix at the state v: (x, ok).

    F' is node-local (`Nonlinearity.jacobian_blocks`); see `_banded_solve`,
    which also says when ok is False.
    """
    return _banded_solve(problem.A, problem.F.jacobian_blocks(v), rhs)


_GTSV, _GBSV = scipy.linalg.get_lapack_funcs(("gtsv", "gbsv"), dtype=np.float64)


def _banded_solve(a: GeneratorSpec, blocks: np.ndarray,
                  rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve (A - J) x = rhs, rhs of shape (dim,), with node-local c x c
    blocks J of shape (c, c, n): (x, ok).

    With the components interleaved node by node the matrix has A's band,
    widened to the blocks (`GeneratorSpec.node_band`), and one banded LU
    solves it: LAPACK gtsv when it is tridiagonal, else gbsv, called as
    scipy.linalg.solve_banded calls them.  ok is False, and x meaningless,
    when the matrix, the right-hand side or the solution is not finite, or
    LAPACK meets a zero pivot.
    """
    c = blocks.shape[0]
    nb = a.node_band(c)
    lower, upper = nb.lower_upper
    ab = nb.band.copy()
    for i in range(c):
        for j in range(c):  # block entry [i, j] of node k is column c k + j
            ab[upper + i - j, j::c] -= blocks[i, j]
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        return np.full(rhs.shape, np.nan), False
    b = rhs[nb.perm]
    if lower == upper == 1:
        *_, x, info = _GTSV(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_dl=True,
                            overwrite_d=True, overwrite_du=True, overwrite_b=True)
    else:
        a2 = np.zeros((2 * lower + upper + 1, ab.shape[1]))
        a2[lower:] = ab
        *_, x, info = _GBSV(lower, upper, a2, b, overwrite_ab=True, overwrite_b=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK gtsv/gbsv")
    x = x[nb.inverse]
    return x, info == 0 and bool(np.isfinite(x).all())


NEWTON_MAX_ITER = 80  # Newton rounds before a run gives up


def newton_equilibrium(
    problem: ProblemSpec, start: np.ndarray, tol_res: float = 1e-10
) -> tuple[np.ndarray, float, bool]:
    """Damped Newton on A v = F(v) from start, at most NEWTON_MAX_ITER
    rounds: the final state, its residual norm and whether it converged; an
    oracle, failures are reported not raised.

    Each round solves for the step (`linearized_solve`) and tries the
    damped steps t = 1, 1/2, ... >= 1e-4; a trial is accepted when its
    residual is finite and at most (1 - t/4) times the current one.  A
    failed solve or a failed line search ends the run.  A run whose full
    step fails to lower a residual already within the round-off floor
    `defect_slack` stops there, without damped trials that would only trade
    round-off; a run with tol_res = 0 ends that way.
    """
    a = problem.A.matrix
    v = np.array(start, dtype=float)
    r = a @ v - problem.rhs(v)
    for _ in range(NEWTON_MAX_ITER):
        norm = monotone_norm(r)
        if norm <= tol_res:
            return v, norm, True
        step, solved = linearized_solve(problem, v, -r)
        if not solved:
            return v, norm, False
        t = 1.0
        while t >= 1e-4:
            trial = v + t * step
            r_trial = a @ trial - problem.rhs(trial)
            # a non-finite residual has the norm inf or nan and fails the test
            if monotone_norm(r_trial) <= (1 - 0.25 * t) * norm:
                v, r = trial, r_trial
                break
            if t == 1.0 and norm <= defect_slack(problem.A, v, a @ v - r):
                return v, norm, False
            t *= 0.5
        else:
            return v, norm, False
    norm = monotone_norm(r)
    return v, norm, norm <= tol_res


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
    signs = sides.reshape(f.components, -1)[:, 0]
    total = 0.0
    for low, weight in boxes:
        total += weight * _slope_bounds(f, signs, sides * low, sides * top)[1]
    return total / sum(weight for _, weight in boxes)


def _m_matrix(problem: ProblemSpec, sides: np.ndarray,
              jac: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The M-matrix test of M = T (A - J) T, T = diag(sides), J node-local
    (c, c, n) blocks in side coordinates: (psi, kappa), or None.  One banded
    LU gives psi = M^-1 1; kappa = min(M psi) is recomputed (1 in exact
    arithmetic).  Where the solve succeeds, psi > 0 and kappa >= 1/2, a
    Z-matrix M (the caller's premise) is a nonsingular M-matrix, M^-1 >= 0.
    """
    c = problem.F.components
    signs = sides.reshape(c, -1)[:, 0]
    blocks = np.outer(signs, signs)[:, :, None] * jac  # the blocks, back in u
    x, solved = _banded_solve(problem.A, blocks, sides)
    if not solved:
        return None
    psi = sides * x
    if not np.all(psi > 0.0):
        return None
    m_psi = problem.A.matrix @ x - np.einsum("ijk,jk->ik", blocks, x.reshape(c, -1)).ravel()
    kappa = float(np.min(sides * m_psi))
    return (psi, kappa) if kappa >= 0.5 else None


def _enclose(problem: ProblemSpec, sides: np.ndarray, y_p: np.ndarray, x_lo: np.ndarray,
             hi: np.ndarray, rho: float, tol_eq: float) -> float | None:
    """The proof of `_certify_extremal` in side coordinates, for u* in
    [x_lo, y_p + tol_eq], with the M-matrix test of `_m_matrix`: the proven
    radius, or None when a test fails or the radius exceeds tol_eq."""
    jac = _mean_jacobian_bound(problem.F, sides, x_lo, y_p, y_p + tol_eq)
    kernel = _m_matrix(problem, sides, jac)
    if kernel is None:
        return None
    psi, kappa = kernel
    eps = 4.0 * rho
    # clipped to the far bound hi, a super-solution: where p + eps psi is one
    # too, so is their minimum
    v = sides * np.minimum(y_p + eps * psi, hi)
    f_v = problem.rhs(v)
    d = sides * (problem.A.matrix @ v - f_v)
    if not float(np.min(d)) >= -defect_slack(problem.A, v, f_v):
        return None
    radius = float(np.max(psi)) * (max(float(np.max(d)), 0.0) / kappa + eps)
    return radius if radius <= tol_eq else None


# elliptic sweeps of one certificate retry: they converge only linearly, and
# Newton needs no more than its basin (on the Fisher benchmark config at
# n = 60, Newton from the swept state finds u* after 6 sweeps and the proof
# holds after 12 to 16; the sweeps run to tol_eq = 1e-9 in about 200)
SWEEP_MAX_ITER = 100
# sweep counts after which the retry tries the proof, besides the last sweep
SWEEP_CHECKPOINTS = (8, 16, 32, 64)


def _sweep(problem: ProblemSpec, sides: np.ndarray, start: np.ndarray, lo: np.ndarray,
           hi: np.ndarray, tol_eq: float) -> Iterator[tuple[np.ndarray, bool]]:
    """Elliptic monotone sweeps toward the minimal equilibrium u* of the box
    [lo, hi] in side coordinates y = T u (T = diag(sides)), from a start
    proven to lie below u*: a generator of (y, last), one per sweep, with y
    the swept state, which lies below u* too, and last whether the sweeps
    stop there.  It ends without a last state when the proof's premises
    fail or a value is not finite.

    With mu the march's shift (`march_shift`), G = F + mu id is increasing
    on the interval in side coordinates, and M = T (A + mu) T is a Z-matrix,
    since `ProblemSpec` refuses an A that couples components of opposite
    cone sign.  The test of `_m_matrix` on the blocks J = -mu makes M a
    nonsingular M-matrix, psi = M^-1 1 > 0, M^-1 >= 0, so the sweep y <-
    M^-1 T G(T y) preserves the order and fixes u*: from y <= u* it never
    passes u*.  Each solve x of (A + mu) x = g (the same blocks) is
    lowered by its residual bound (|(A + mu) x - g| + defect_slack) psi,
    which covers its round-off, and clamped into [lo, hi], which holds u*.
    The sweeps stop once the increment is at most tol_eq, or after
    SWEEP_MAX_ITER sweeps.
    """
    mu = march_shift(problem)
    c = problem.F.components
    shift = np.zeros((c, c, sides.size // c))
    shift[range(c), range(c)] = -mu  # A - shift = A + mu
    kernel = _m_matrix(problem, sides, shift)
    if kernel is None:
        return
    psi = kernel[0]
    # A + mu as one matrix: A x + mu x would round the residual differently
    a = add_potential(problem.A, np.full(problem.A.dim, mu))
    y = start
    for count in range(1, SWEEP_MAX_ITER + 1):
        g = problem.F.eval_shifted(sides * y, mu)
        x, ok = _banded_solve(problem.A, shift, g)
        if not ok:
            return
        bound = float(np.abs(a.matrix @ x - g).max()) + defect_slack(a, x, g)
        if not np.isfinite(bound):  # an overflow
            return
        # the clamp as np.clip computes it, without its dispatch cost
        y_next = np.minimum(np.maximum(sides * x - bound * psi, lo), hi)
        last = float(np.abs(y_next - y).max()) <= tol_eq or count == SWEEP_MAX_ITER
        y = y_next
        yield y, last
        if last:
            return


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
      from above entrywise (`_mean_jacobian_bound`: Simpson's rule on
      three boxes where F' is quadratic along segments, else the one box),
      its off-diagonal entries clipped at 0, so M+ = A - J+ is a Z-matrix;
    - M+ passes the M-matrix test of `_m_matrix`: psi = M+^-1 1 > 0 and
      kappa = min(M+ psi) >= 1/2, so M+^-1 >= 0;
    - v = min(p + eps psi, h), with eps = 4 rho and h the interval's far
      bound (a super-solution, and the minimum of two super-solutions is
      one), must be a super-solution (A v >= F(v) up to `defect_slack`, the
      slack of `verify_supersolution`).  In exact arithmetic, where the
      clamp did not move p, it is one: with kappa >= 1/2 and J_mean <= J+
      on the box, A v - F(v) >= -rho + eps kappa >= rho.

    Then l <= u* <= v: U_min rises to u*, and u* lies below every
    super-solution in the interval.  e = v - u* >= 0 has
    M+ e = d + (J_mean - J+) e <= d+, the positive part of d = A v - F(v),
    so e <= |d+| psi / kappa and |u* - p| <= |psi| (|d+| / kappa + eps),
    the radius, which must be <= tol_eq.  If p were not the extremal
    equilibrium, the box would hold u* <= p, u* != p, with
    M+ (p - u*) <= 0, which no M-matrix allows; an unstable or degenerate
    equilibrium fails the M-matrix test as well.

    When this pass fails, the proof is retried from swept states: `_sweep`
    runs elliptic monotone sweeps from l - slack, clamped into the interval
    (the row lies below u* up to the march's slack).  Every sweep stays
    below u*: the sweep map is order-preserving and fixes u*, and each
    iterate is lowered by its own solve-residual bound.  So each swept
    state y is an l as above.  The retry tries the proof after each of
    SWEEP_CHECKPOINTS sweeps and after the last sweep, every stage
    continuing from the last swept state.  The pass holds for any p with
    its own residual rho, so a stage reruns only `_enclose`, with y as the
    box's lower end, unless the stage is the last or y lies above p by more
    than tol_eq + slack somewhere; then Newton first reruns from y.  Such a
    p is more than tol_eq away from u*, which lies above y, so no proof for
    it can hold, and the first pass skips `_enclose` on the same test of
    the row.  The last stage is the pass with Newton from the sweeps' end,
    so a proof that holds there is never lost to the stages before it.
    """
    interval = problem.interval
    sides = side * interval.cone.sign_vector(interval.lower.n_points)
    a, b = sides * interval.lower.values, sides * interval.upper.values
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    row = sides * state
    p, rho, _ = newton_equilibrium(problem, state, tol_res=0.0)
    y_p = np.clip(sides * p, lo, hi)  # moves p only toward u*, which lies inside
    if not np.any(row > y_p + (tol_eq + slack)):
        radius = _enclose(problem, sides, y_p, np.minimum(row, y_p) - slack, hi, rho, tol_eq)
        if radius is not None:
            return sides * y_p, radius
    # the row lies below u* up to the march's slack
    sweeps = _sweep(problem, sides, np.clip(row - slack, lo, hi), lo, hi, tol_eq)
    for count, (y, last) in enumerate(sweeps, 1):
        if not (last or count in SWEEP_CHECKPOINTS):
            continue
        if last or np.any(y > y_p + (tol_eq + slack)):
            p, rho, _ = newton_equilibrium(problem, sides * y, tol_res=0.0)
            y_p = np.clip(sides * p, lo, hi)
        radius = _enclose(problem, sides, y_p, np.minimum(y, y_p) - slack, hi, rho, tol_eq)
        if radius is not None:
            return sides * y_p, radius
    return None


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
    newton_equilibria: list
    extremal_violation: float
    # per end (minimal, maximal): whether the equilibrium is Newton's point
    # proven extremal by _certify_extremal, and the proven radius (or None)
    certified: tuple
    certified_radius: tuple


MAX_WINDOWS = 256  # windows the equilibria march runs before it gives up
N_NEWTON_STARTS = 20  # random interior Newton starts of the cross-check


def asymptotic_equilibria(
    problem: ProblemSpec,
    tol: float = 1e-9,
    tol_eq: float = 1e-9,
    tol_res: float = 1e-8,
    seed: int = 20240901,
) -> EquilibriaResult:
    """Extremal equilibria as the t -> infinity limits of the extremal
    trajectories, with a minimality/maximality cross-check from
    N_NEWTON_STARTS random interior Newton runs (drawn from `seed`) where
    some end is uncertified.

    One march runs from the interval bounds and is advanced one window (the
    steps of dt that `time_grid` puts on the problem's horizon) at a time,
    for at most MAX_WINDOWS windows (then horizon_converged is False), each
    step of it by at most MAX_INNER_ITER inner iterations.  A window's t_end
    and the result's horizon are the march's time, dt times its steps.
    Window 1 is rows L and H of the problem's first
    window (`_first_window`), memoized by (problem, tol) and shared with
    `iterate`; called first, it marches those two rows alone.  Later
    windows march them on, and every figure of the result reads those two
    rows only.  After windows 1, 2, 4, 8, ...
    and at the stall stop, each end not yet certified tries
    `_certify_extremal` on its row's terminal state; an end is certified
    when the proof holds with a radius <= tol_eq, and then reports Newton's
    point p.  The march stops once both ends are certified, so U_min and
    U_max end at that horizon.
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

    A certified u_* is the least and a certified u^* the greatest
    equilibrium of the interval, so where both ends are certified no Newton
    start can find an equilibrium outside [u_*, u^*]: the cross-check is
    skipped, newton_equilibria is [] and extremal_violation 0.0.  Otherwise
    every converged start inside the interval must lie in [u_*, u^*], and
    extremal_violation is the largest order violation against them.
    """
    interval = problem.interval
    steps_per_window = time_grid(problem.horizon, problem.dt).size - 1
    march = _first_window(problem, tol)
    march = march.select()  # window 1, rows L and H
    window_summaries = []
    horizon_converged = False
    certified = [None, None]  # per end: (p, radius) once proven
    # a zero bound with F(0) = 0 is the extremal equilibrium on its side, as
    # the least (greatest) point of the interval
    for end, bound in enumerate((interval.lower.values, interval.upper.values)):
        if not np.any(bound) and not np.any(problem.rhs(bound)):
            certified[end] = (bound, 0.0)
    for count in range(1, MAX_WINDOWS + 1):
        if count > 1:
            march.advance(steps_per_window)
        chunk = march.states[-1]
        converged = march.converged()
        horizon = march.dt * march.n_steps  # the last node of U_min's time grid
        inc = float(np.max(np.abs(chunk[-1] - chunk[0])))
        window_summaries.append(
            {
                "t_end": horizon,
                "n_iters": march.n_iters(),
                "converged": converged,
                "increment": inc,
            }
        )
        stalled = inc < tol_eq and converged
        if converged and (stalled or count & (count - 1) == 0):
            for end, side in ((0, 1), (1, -1)):
                if certified[end] is None:
                    certified[end] = _certify_extremal(
                        problem, march._standard(march.y[end]), side, tol_eq, march.slack
                    )
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
            ends.append((values, res))
    (star_values, star_res), (upper_values, upper_res) = ends
    u_star = GridFunction(star_values, interval.components)
    u_upper_star = GridFunction(upper_values, interval.components)

    slack = order_slack(interval.value_scale(), interval.dim)
    if order_violation(u_star, u_upper_star, interval.cone) > max(slack, 10 * tol_eq):
        raise NumericalError("extremal equilibria are not ordered")

    # where an end is uncertified, independent equilibria from random
    # interior starts, one Newton run each; every one inside the interval
    # must be sandwiched by the extremal pair
    found = []
    extremal_violation = 0.0
    if any(c is None for c in certified):
        check_slack = max(100.0 * tol_res, slack)
        for start in _cross_starts(interval, seed):
            v, _, ok = newton_equilibrium(problem, start)
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
        worst_violation=march.worst_violation[0],
        continuation_defect=continuation_defect,
        newton_equilibria=found,
        extremal_violation=extremal_violation,
        certified=tuple(c is not None for c in certified),
        certified_radius=tuple(None if c is None else c[1] for c in certified),
    )


def _cross_starts(interval, seed: int) -> np.ndarray:
    """The cross-check's N_NEWTON_STARTS seeded interior starts, shape
    (N_NEWTON_STARTS, dim), uniform in the interval."""
    rng = np.random.default_rng(seed)
    svec = interval.cone.sign_vector(interval.lower.n_points)
    lo, hi = interval.standard_bounds()
    return svec * (lo + rng.uniform(size=(N_NEWTON_STARTS, interval.dim)) * (hi - lo))


def _polish(problem, raw: GridFunction, tol_res: float, tol_eq: float):
    """Newton-polish a terminal state.

    Newton's (clamped) iterate is kept when it converged, or when it stalled
    short of its target but still lowered the residual of the raw state.
    Either way it must not wander further than the horizon tolerance
    justifies; otherwise the raw state is returned.
    """
    v, _, ok = newton_equilibrium(problem, raw.values, tol_res=min(tol_res, 1e-10))
    guard = max(1e-5, 1e4 * tol_eq)
    raw_res = problem.equilibrium_residual(raw)
    if monotone_norm(v - raw.values) <= guard:
        v = clamp_values(v, problem.interval)
        res = problem.equilibrium_residual(GridFunction(v, raw.components))
        if ok or res < raw_res:
            return v, res
    return raw.values, raw_res
