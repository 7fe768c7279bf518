"""The iteration engine: sandwich, convergence, extremal objects."""

import copy
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mevolve as mv
from mevolve.errors import NumericalError, ValidationError
from mevolve.monotone import time_monotonicity_violation
from mevolve.nonlin import _SignedSqrt

from conftest import constant_trajectory, grid


@pytest.fixture(scope="module")
def scalar_run():
    scen = mv.build_scalar_nonunique(1.0, 2.0)
    prob = scen.problem(horizon=5.0, dt=1e-3)
    return scen, prob, mv.iterate(prob, grid([0.0]), tol=1e-10)


@pytest.fixture(scope="module")
def neumann_logistic():
    gen = mv.build_laplacian_1d(16, "neumann")
    return mv.build_logistic(gen, 1.0, 1.0)


def without_jacobian_bounds(f):
    """A copy of a reaction term whose jacobian_range has no upper bound on
    its diagonal: no end of the march certifies, so asymptotic_equilibria
    runs to its stall stop and polishes, as it did before the certified stop.
    The lower bounds, and with them the quasi-increasing shift and the
    cooperativity check, stay those of the term."""
    g = copy.copy(f)

    def jacobian_range(lo, hi):
        low, high = f.jacobian_range(lo, hi)
        high = high.copy()
        diag = np.arange(f.components)
        high[diag, diag] = np.inf
        return low, high

    g.jacobian_range = jacobian_range
    return g


def stall_problem(source, horizon, dt):
    """The problem of a scenario (or problem) on its interval, with the
    reaction term stripped of Jacobian bounds."""
    return mv.ProblemSpec(
        source.A, without_jacobian_bounds(source.F), source.interval,
        horizon=horizon, dt=dt,
    )


class LinearDecay(mv.Nonlinearity):
    """F = c*id with c < 0; keeps constants as sub/super-solutions."""

    name = "linear"

    def __init__(self, c):
        self.c = c

    def eval_values(self, values):
        return self.c * values

    def jacobian_blocks(self, values):
        return np.full((1, 1, values.size), float(self.c))

    def jacobian_range(self, lo, hi):
        return self.jacobian_blocks(lo), self.jacobian_blocks(hi)


def test_linear_problem_matches_spectral_solution(rng):
    """For linear F the iteration reproduces e^{-t(A - c)} u0 up to O(dt)."""
    gen = mv.build_laplacian_1d(10, "neumann")
    c = -1.0
    interval = mv.OrderInterval(grid(-2 * np.ones(10)), grid(2 * np.ones(10)))
    prob = mv.ProblemSpec(gen, LinearDecay(c), interval, horizon=1.0, dt=2e-3)
    u0 = rng.uniform(-1.5, 1.5, size=10)
    rpt = mv.iterate(prob, grid(u0), tol=1e-12)
    assert rpt.converged and rpt.unique_flag
    effective = mv.GeneratorSpec(gen.matrix - c * np.eye(10), gen.mesh_h, "neumann")
    for k in (0, 100, 250, 500):
        oracle = mv.semigroup_apply(effective, rpt.u_min.t_grid[k], u0)
        assert np.max(np.abs(rpt.u_min.states[k] - oracle)) <= 50 * prob.dt
    gap = np.max(np.abs(rpt.u_max.states - rpt.u_min.states))
    assert gap <= 1e-10


class TestScalarNonUnique:
    def test_extremal_branches_pointwise(self, scalar_run):
        scen, prob, rpt = scalar_run
        t = rpt.u_max.t_grid
        exact = scen.oracles["u_max"](t)
        assert np.max(np.abs(rpt.u_max.states[:, 0] - exact)) <= 5e-3
        assert np.max(np.abs(rpt.u_min.states[:, 0] + exact)) <= 5e-3

    def test_gap_detects_non_uniqueness(self, scalar_run):
        _, _, rpt = scalar_run
        assert not rpt.unique_flag
        gap_at_end = abs(rpt.u_max.states[-1, 0] - rpt.u_min.states[-1, 0])
        assert gap_at_end > 0.5

    def test_distances_non_increasing(self, scalar_run):
        _, _, rpt = scalar_run
        assert np.all(np.diff(rpt.distances) <= 1e-12)

    def test_sandwich_certified(self, scalar_run):
        _, _, rpt = scalar_run
        ok, worst = mv.certify_sandwich(rpt)
        assert ok and worst <= 1e-12

    def test_tampered_report_fails_certification(self, scalar_run):
        _, _, rpt = scalar_run
        bad = mv.Trajectory(
            rpt.u_min.t_grid, rpt.u_max.states - 1.0, rpt.u_min.components
        )
        broken = mv.IterationReport(**{**rpt.__dict__, "u_max": bad})
        ok, worst = mv.certify_sandwich(broken)
        assert not ok and worst > 1e-6

    def test_fixed_point_residual_bound(self, scalar_run):
        _, prob, rpt = scalar_run
        scaled = mv.auto_scale(prob)
        bound = 2 * (rpt.tol + prob.dt)
        assert mv.mild_residual(scaled, rpt.u_min) <= bound
        assert mv.mild_residual(scaled, rpt.u_max) <= bound


class TestDegenerateInterval:
    def test_equilibrium_short_circuit(self):
        gen = mv.build_laplacian_1d(6, "neumann")
        v = grid(0.5 * np.ones(6))
        interval = mv.OrderInterval(v, v)
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 2.0), interval, horizon=1.0, dt=0.1)
        rpt = mv.iterate(prob, v)
        assert rpt.converged and rpt.n_iters == 1
        assert np.all(rpt.u_min.states == 0.5)

    def test_degenerate_report_certifies_its_chain(self):
        gen = mv.build_laplacian_1d(6, "neumann")
        v = grid(0.5 * np.ones(6))
        prob = mv.ProblemSpec(
            gen, mv.logistic(1.0, 2.0), mv.OrderInterval(v, v), horizon=1.0, dt=0.1
        )
        rpt = mv.iterate(prob, v)
        ok, worst = mv.certify_sandwich(rpt)
        assert ok and worst <= 0.0
        raised = mv.Trajectory(rpt.u_min.t_grid, rpt.u_min.states + 1.0)
        broken = mv.IterationReport(**{**rpt.__dict__, "u_min": raised})
        assert not mv.certify_sandwich(broken)[0]

    def test_non_equilibrium_rejected(self):
        gen = mv.build_laplacian_1d(6, "neumann")
        v = grid(0.3 * np.ones(6))
        interval = mv.OrderInterval(v, v)
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 2.0), interval, horizon=1.0, dt=0.1)
        with pytest.raises(ValidationError):
            mv.iterate(prob, v)


class TestComparison:
    def test_ordered_initial_values_give_ordered_minimal_solutions(
        self, neumann_logistic, rng
    ):
        prob = neumann_logistic.problem(horizon=1.5, dt=0.02)
        lo, hi = prob.interval.standard_bounds()
        for _ in range(5):
            a = lo + rng.uniform(size=16) * (hi - lo)
            b = np.minimum(a + rng.uniform(size=16) * 0.3, hi)
            ra = mv.iterate(prob, grid(a), tol=1e-10)
            rb = mv.iterate(prob, grid(b), tol=1e-10)
            assert np.max(ra.u_min.states - rb.u_min.states) <= 1e-12
            assert np.max(ra.u_max.states - rb.u_max.states) <= 1e-12

    def test_every_solution_between_extremal_trajectories(
        self, neumann_logistic, rng
    ):
        prob = neumann_logistic.problem(horizon=1.5, dt=0.02)
        u_min_env, u_max_env, _ = mv.extremal_trajectories(prob, tol=1e-10)
        lo, hi = prob.interval.standard_bounds()
        for _ in range(5):
            u0 = lo + rng.uniform(size=16) * (hi - lo)
            rpt = mv.iterate(prob, grid(u0), tol=1e-10)
            assert np.max(u_min_env.states - rpt.u_min.states) <= 1e-12
            assert np.max(rpt.u_max.states - u_max_env.states) <= 1e-12


class TestSeparateInitialValues:
    """One two-sided iteration against the two one-sided calls it replaces."""

    @pytest.fixture(scope="class")
    def dirichlet_logistic(self):
        scen = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
        return scen.problem(horizon=2.0, dt=0.02)

    @pytest.fixture(scope="class")
    def flipped_competition(self):
        scen = mv.build_competition(
            mv.build_laplacian_1d(10, "neumann"), mv.build_laplacian_1d(10, "neumann"),
            1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
        )
        assert scen.cone == mv.FLIPPED_CONE
        return scen.problem(horizon=2.0, dt=0.02)

    @pytest.mark.parametrize("case", ["dirichlet_logistic", "flipped_competition"])
    @pytest.mark.parametrize("upper_kind", ["upper", "midpoint"])
    def test_matches_two_one_sided_runs(self, request, case, upper_kind):
        prob = request.getfixturevalue(case)
        itv = prob.interval
        a = itv.lower
        b = itv.upper if upper_kind == "upper" else grid(
            0.5 * (itv.lower.values + itv.upper.values), itv.components
        )
        tol = 1e-9
        both = mv.iterate(prob, a, tol=tol, u0_upper=b)
        assert both.converged
        from_a = mv.iterate(prob, a, tol=tol).u_min
        from_b = mv.iterate(prob, b, tol=tol).u_max
        assert np.max(np.abs(both.u_min.states - from_a.states)) <= 10 * tol
        assert np.max(np.abs(both.u_max.states - from_b.states)) <= 10 * tol
        assert not both.unique_flag
        ok, worst = mv.certify_sandwich(both)
        assert ok, worst

    def test_upper_start_below_lower_start_rejected(self, dirichlet_logistic):
        itv = dirichlet_logistic.interval
        with pytest.raises(ValidationError, match="u0_upper"):
            mv.iterate(dirichlet_logistic, itv.upper, u0_upper=itv.lower)

    def test_one_iteration_per_window_and_per_extremal_pair(
        self, dirichlet_logistic, monkeypatch
    ):
        # asymptotic_equilibria advances one march once per window and calls
        # no iterate; extremal_trajectories makes one iterate call
        calls, marches, advances = [], [], []
        original = mv.monotone.iterate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        class CountingMarch(mv.monotone._March):
            def __init__(self, *args, **kwargs):
                marches.append(1)
                super().__init__(*args, **kwargs)

            def advance(self, n_steps):
                advances.append(n_steps)
                return super().advance(n_steps)

        monkeypatch.setattr(mv.monotone, "iterate", counting)
        monkeypatch.setattr(mv.monotone, "_March", CountingMarch)
        # without Jacobian bounds the march runs to its stall, window by window
        prob = mv.ProblemSpec(
            dirichlet_logistic.A, without_jacobian_bounds(dirichlet_logistic.F),
            dirichlet_logistic.interval, horizon=1.0, dt=0.02,
        )
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
        assert len(eq.windows) > 1
        assert calls == [] and len(marches) == 1
        assert advances == [50] * len(eq.windows)
        assert all(isinstance(w["n_iters"], int) for w in eq.windows)
        calls.clear()
        mv.extremal_trajectories(prob)
        assert len(calls) == 1


class TestExtremalTrajectories:
    def test_equilibrium_endpoints_stay_constant(self):
        gen = mv.build_laplacian_1d(6, "neumann")
        v = grid(0.5 * np.ones(6))
        interval = mv.OrderInterval(v, v)
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 2.0), interval, horizon=1.0, dt=0.1)
        u_min_env, u_max_env, _ = mv.extremal_trajectories(prob)
        assert np.all(u_min_env.states == 0.5) and np.all(u_max_env.states == 0.5)

    def test_scalar_envelope_matches_ode_oracle(self):
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        prob = scen.problem(horizon=6.0, dt=1e-3)
        u_min_env, u_max_env, _ = mv.extremal_trajectories(prob, tol=1e-10)

        sol = scipy.integrate.solve_ivp(
            lambda t, y: np.sign(y) * np.sqrt(np.abs(y)) - y,
            (0.0, 6.0), [2.0], rtol=1e-10, atol=1e-10, dense_output=True,
        )
        sample = u_max_env.t_grid[::250]
        oracle = sol.sol(sample)[0]
        engine = u_max_env.states[::250, 0]
        assert np.max(np.abs(engine - oracle)) <= 5e-3
        # closed-form envelope start time t_M = (2/a) log(a sqrt(M) - 1)
        closed = scen.oracles["U_max"](sample)
        assert np.max(np.abs(closed - oracle)) <= 1e-8
        assert np.max(np.abs(u_min_env.states[::250, 0] + oracle)) <= 5e-3

    def test_time_monotonicity(self, neumann_logistic):
        prob = neumann_logistic.problem(horizon=2.0, dt=0.02)
        u_min_env, u_max_env, _ = mv.extremal_trajectories(prob, tol=1e-10)
        assert time_monotonicity_violation(u_min_env, prob.interval, "increasing") <= 1e-12
        assert time_monotonicity_violation(u_max_env, prob.interval, "decreasing") <= 1e-12


class TestAsymptotics:
    def test_scalar_equilibria(self):
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        prob = scen.problem(horizon=8.0, dt=0.01)
        eq = mv.asymptotic_equilibria(prob, tol=1e-10, tol_eq=1e-7, tol_res=1e-8)
        assert eq.horizon_converged
        assert abs(eq.u_star.values[0] + 1.0) <= 1e-4
        assert abs(eq.u_upper_star.values[0] - 1.0) <= 1e-4
        assert max(eq.residuals) <= 1e-8
        assert mv.leq(eq.u_star, eq.u_upper_star, prob.interval.cone)
        # Newton cross-check sandwiches every interior equilibrium it finds
        assert eq.extremal_violation <= 1e-6
        assert len(eq.newton_equilibria) > 0

    def test_logistic_unique_equilibrium(self, neumann_logistic):
        prob = neumann_logistic.problem(horizon=2.0, dt=0.05)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
        assert np.max(np.abs(eq.u_star.values - 1.0)) <= 1e-6  # a/b = 1
        assert np.max(np.abs(eq.u_upper_star.values - eq.u_star.values)) <= 1e-6

    def test_squeeze_from_below(self):
        # minimal solutions started inside [lower, u_*] end up at u_*
        gen = mv.build_laplacian_1d(20, "dirichlet")
        scen = mv.build_logistic(gen, 12.0, 2.0)
        # eq.horizon is the time the march from the lower bound takes to stall
        prob = stall_problem(scen, horizon=2.0, dt=0.02)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
        u0 = grid(0.5 * (prob.interval.lower.values + eq.u_star.values))
        final = mv.iterate(
            mv.ProblemSpec(prob.A, prob.F, prob.interval, horizon=eq.horizon, dt=0.02),
            u0, tol=1e-9,
        )
        assert np.max(np.abs(final.u_min.states[-1] - eq.u_star.values)) <= 1e-6

    def test_horizon_cap_flags(self):
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        prob = stall_problem(scen, horizon=0.5, dt=0.01)
        eq = mv.asymptotic_equilibria(
            prob, tol=1e-9, tol_eq=1e-12, tol_res=1e-8, max_windows=1
        )
        assert not eq.horizon_converged

    def test_continuation_seams_inherit_iteration_tolerance(self):
        scen = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
        prob = stall_problem(scen, horizon=1.0, dt=0.02)
        eq = mv.asymptotic_equilibria(prob, tol=1e-10, tol_eq=1e-8, tol_res=1e-8)
        assert len(eq.windows) > 1
        assert eq.continuation_defect <= 1e-7  # bounded by ~tol, not exact
        # concatenated grid is one uniform trajectory covering the horizon
        assert eq.U_min.horizon == pytest.approx(eq.horizon)
        assert eq.U_min.dt == pytest.approx(0.02)


def test_distances_non_increasing_across_presets():
    """Per-iteration sup-distances shrink monotonically for the presets."""
    runs = []
    scen = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
    runs.append(mv.iterate(scen.problem(horizon=2.0, dt=0.02), scen.interval.lower))
    scen = mv.build_competition(
        mv.build_laplacian_1d(10, "neumann"), mv.build_laplacian_1d(10, "neumann"),
        1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
    )
    runs.append(mv.iterate(scen.problem(horizon=2.0, dt=0.02), scen.interval.upper))
    gen = mv.build_laplacian_1d(24, "neumann")
    x = mv.mesh_nodes(gen)
    scen = mv.build_fisher(gen, 8.0 * np.sin(2 * np.pi * x), 0.5)
    runs.append(mv.iterate(scen.problem(horizon=4.0, dt=0.05), scen.interval.lower))
    for rpt in runs:
        assert rpt.converged
        assert np.all(np.diff(rpt.distances) <= 1e-12)


def test_lipschitz_presets_set_unique_flag():
    scen = mv.build_logistic(mv.build_laplacian_1d(14, "neumann"), 1.0, 2.0)
    rpt = mv.iterate(scen.problem(horizon=2.0, dt=0.02), scen.interval.upper, tol=1e-10)
    assert rpt.unique_flag
    gap = np.max(np.abs(rpt.u_max.states - rpt.u_min.states))
    assert gap <= 10 * rpt.tol


def test_sandwich_breach_raises():
    """A nonlinearity violating its own monotonicity certificate is caught."""

    class Lying(mv.Nonlinearity):
        name = "lying"

        def eval_values(self, values):
            return -3.0 * values  # decreasing, yet claims F' = 0, so shift 0

        def jacobian_range(self, lo, hi):
            zero = np.zeros((1, 1, lo.size))
            return zero, zero

    gen = mv.generators.shifted(mv.build_laplacian_1d(5, "neumann"), 1.0)
    interval = mv.OrderInterval(grid(-np.ones(5)), grid(np.ones(5)))
    prob = mv.ProblemSpec(gen, Lying(), interval, horizon=1.0, dt=0.05)
    with pytest.raises(NumericalError, match="sandwich"):
        mv.iterate(prob, grid(np.zeros(5)))


class Unbounded(mv.Nonlinearity):
    """A custom term that states no jacobian_range."""

    name = "unbounded"

    def eval_values(self, values):
        return -values


def _rejected_problem(case):
    if case == "no_jacobian_range":
        gen = mv.generators.shifted(mv.build_laplacian_1d(5, "neumann"), 1.0)
        interval = mv.OrderInterval(grid(-np.ones(5)), grid(np.ones(5)))
        return mv.ProblemSpec(gen, Unbounded(), interval, horizon=1.0, dt=0.05)
    # competition is cooperative only in a flipped cone
    lap = mv.build_laplacian_1d(6, "neumann")
    interval = mv.OrderInterval(
        grid(np.zeros(12), 2), grid(np.ones(12), 2), mv.ConeSpec((1, 1))
    )
    return mv.ProblemSpec(
        mv.generators.block_generator([lap, lap]),
        mv.competition(1.0, 1.0, 1.0, 0.1, 0.1, 1.0), interval, horizon=1.0, dt=0.05,
    )


@pytest.mark.parametrize("case, message", [
    ("no_jacobian_range", "no finite quasi-increasing shift"),
    ("competition_standard_cone", "not cooperative"),
])
def test_march_rejects_a_term_with_no_certified_shift(case, message):
    """A term whose jacobian_range certifies no shift is rejected before the
    march starts, not caught later by a sandwich breach."""
    prob = _rejected_problem(case)
    itv = prob.interval
    with pytest.raises(ValidationError, match=message):
        mv.iterate(prob, itv.lower, u0_upper=itv.upper)


def test_stalled_polish_kept_when_it_lowers_the_residual():
    # Newton stalls just above its 1e-10 target on the upper terminal state;
    # the stalled iterate is still far better than the raw state (3e-8)
    scen = mv.build_from_config(
        "logistic", {"a": 15.033426440004314, "b": 1.0008698045916355},
        99, "robin", 1.0,
    )
    eq = mv.asymptotic_equilibria(
        stall_problem(scen, horizon=1.0, dt=0.02), tol=1e-9, tol_eq=1e-9, tol_res=1e-8,
        seed=1330254769,
    )
    assert max(eq.residuals) <= 1e-8
    assert min(eq.polish_moved) > 0.0


def sweep_oracle(prob, u0, u0_upper, tol, max_iter=2000):
    """The global two-sided Picard iteration the march replaced: every sweep
    maps whole trajectories through mv.picard_step, from the constant
    trajectories at the interval bounds, until both sup-distances drop
    below tol.  Returns the (lower, upper) limits."""
    scaled = mv.auto_scale(prob)
    itv = prob.interval
    lower = constant_trajectory(itv.lower, prob.horizon, prob.dt)
    upper = constant_trajectory(itv.upper, prob.horizon, prob.dt)
    for _ in range(max_iter):
        lower_next = mv.picard_step(scaled, u0, lower)
        upper_next = mv.picard_step(scaled, u0_upper, upper)
        d_low = np.max(np.abs(lower_next.states - lower.states))
        d_up = np.max(np.abs(upper_next.states - upper.states))
        lower, upper = lower_next, upper_next
        if d_low < tol and d_up < tol:
            return lower, upper
    raise AssertionError("sweep oracle did not converge")


class TestMarchAgainstSweepOracle:
    """The step-by-step march reaches the fixed point of the global sweeps."""

    @pytest.fixture(scope="class")
    def problems(self):
        logistic = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
        competition = mv.build_competition(
            mv.build_laplacian_1d(10, "neumann"), mv.build_laplacian_1d(10, "neumann"),
            1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
        )
        assert competition.cone == mv.FLIPPED_CONE
        gen = mv.build_laplacian_1d(24, "neumann")
        fisher = mv.build_fisher(gen, 8.0 * np.sin(2 * np.pi * mv.mesh_nodes(gen)), 0.5)
        return {
            "dirichlet_logistic": logistic.problem(horizon=2.0, dt=0.02),
            "flipped_competition": competition.problem(horizon=2.0, dt=0.02),
            "fisher_neumann": fisher.problem(horizon=2.0, dt=0.05),
        }

    @pytest.mark.parametrize("case", [
        "dirichlet_logistic", "flipped_competition", "fisher_neumann",
    ])
    @pytest.mark.parametrize("start", ["lower", "midpoint", "upper"])
    def test_matches_the_sweep_fixed_point(self, problems, case, start):
        prob = problems[case]
        itv = prob.interval
        u0 = {
            "lower": itv.lower,
            "midpoint": grid(0.5 * (itv.lower.values + itv.upper.values), itv.components),
            "upper": itv.upper,
        }[start]
        tol = 1e-9
        rpt = mv.iterate(prob, u0, tol=tol)
        assert rpt.converged
        lower, upper = sweep_oracle(prob, u0, u0, tol)
        # every step stops on its own increment and keeps an error of about
        # tol*q/(1-q), q ~ dt*Lip(G), which the flow damps only at its decay
        # rate: ~17*tol on the slowly decaying Dirichlet logistic, <= 4*tol
        # on the other cases
        assert np.max(np.abs(rpt.u_min.states - lower.states)) <= 20 * tol
        assert np.max(np.abs(rpt.u_max.states - upper.states)) <= 20 * tol
        assert mv.certify_sandwich(rpt)[0]
        if start == "upper":
            # the lower row falls from the upper bound, so its steps start cold
            slack = mv.order.order_slack(itv.value_scale(), itv.dim)
            assert time_monotonicity_violation(rpt.u_min, itv, "increasing") > slack

    def test_scalar_branches_from_zero(self):
        # the step map fixes 0, yet the minimal step solution is negative:
        # both branches must leave the equilibrium
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        rpt = mv.iterate(scen.problem(horizon=3.0, dt=0.01), grid([0.0]), tol=1e-9)
        assert rpt.u_min.states[-1, 0] == pytest.approx(-0.6103, abs=1e-4)
        assert rpt.u_max.states[-1, 0] == pytest.approx(0.6103, abs=1e-4)

    def test_equilibria_march_is_monotone_in_time(self, problems):
        prob = stall_problem(problems["dirichlet_logistic"], horizon=1.0, dt=0.02)
        itv = prob.interval
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
        assert len(eq.windows) > 1
        assert eq.continuation_defect <= mv.order.order_slack(itv.value_scale(), itv.dim)
        assert eq.U_min.n_steps == 50 * len(eq.windows)
        assert mv.certify_sandwich(eq.report)[0]


class InsideOnly(mv.Nonlinearity):
    """Wraps a preset and records how far any block of states the march
    evaluates strays outside the order interval, in standard coordinates.

    Only evaluations made while `marching` is set are recorded; `watch`
    sets it around `_March.advance`.  The bound certificates and the Newton
    runs evaluate states that may leave the interval; the cross-check
    evaluates its random starts as one stacked 2-D block.
    """

    def __init__(self, inner, interval):
        self.inner, self.name, self.components = inner, inner.name, inner.components
        self.svec = interval.cone.sign_vector(interval.lower.n_points)
        self.lo, self.hi = interval.standard_bounds()
        self.blocks, self.excursion = 0, -np.inf
        self.marching = False

    def watch(self, monkeypatch):
        advance = mv.monotone._March.advance

        def marking(march, n_steps):
            self.marching = True
            try:
                return advance(march, n_steps)
            finally:
                self.marching = False

        monkeypatch.setattr(mv.monotone._March, "advance", marking)

    def eval_shifted(self, values, shift):
        if self.marching:
            y = self.svec * values
            self.blocks += 1
            self.excursion = max(
                self.excursion, np.max(self.lo - y), np.max(y - self.hi)
            )
        return self.inner.eval_shifted(values, shift)

    def eval_values(self, values):
        return self.eval_shifted(values, 0.0)

    def jacobian_blocks(self, values):
        return self.inner.jacobian_blocks(values)

    def jacobian_range(self, lo, hi):
        return self.inner.jacobian_range(lo, hi)


class TestMarchKernel:
    @pytest.fixture(scope="class")
    def problems(self):
        logistic = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
        competition = mv.build_competition(
            mv.build_laplacian_1d(10, "neumann"), mv.build_laplacian_1d(10, "neumann"),
            1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
        )
        assert competition.cone == mv.FLIPPED_CONE
        # the upper bound sits 1e-6 below the equilibrium 1: it misses its
        # super-solution inequality by a deficit the breach guard allows, and
        # the upper row leaves the interval within a step; only the clamp
        # keeps the reaction term inside
        gen = mv.build_laplacian_1d(8, "neumann")
        near = mv.OrderInterval(grid(0.5 * np.ones(8)), grid((1.0 - 1e-6) * np.ones(8)))
        return {
            "dirichlet_logistic": logistic.problem(horizon=1.0, dt=0.02),
            "flipped_competition": competition.problem(horizon=1.0, dt=0.02),
            "bound_with_deficit": mv.ProblemSpec(
                gen, mv.logistic(1.0, 1.0), near, horizon=1.0, dt=0.02
            ),
        }

    @pytest.mark.parametrize(
        "case", ["dirichlet_logistic", "flipped_competition", "bound_with_deficit"]
    )
    @pytest.mark.parametrize("run", ["from_lower", "from_upper", "equilibria"])
    def test_reaction_term_only_sees_states_in_the_interval(self, problems, case, run,
                                                            monkeypatch):
        # the march skips the clamp while its last check proved
        # lo <= z <= Z <= hi; the reaction term must never see a state outside
        prob = problems[case]
        itv = prob.interval
        recorder = InsideOnly(prob.F, itv)
        recorder.watch(monkeypatch)
        watched = mv.ProblemSpec(prob.A, recorder, itv, horizon=prob.horizon, dt=prob.dt)
        if run == "equilibria":
            eq = mv.asymptotic_equilibria(watched, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
            assert eq.horizon_converged
        else:
            start = itv.lower if run == "from_lower" else itv.upper
            assert mv.iterate(watched, start, tol=1e-9).converged
        assert recorder.blocks > 0
        assert recorder.excursion <= 0.0

    def test_start_outside_the_interval_is_clamped(self, problems):
        prob = problems["dirichlet_logistic"]
        itv = prob.interval
        slack = mv.order.order_slack(itv.value_scale(), itv.dim)
        with pytest.warns(UserWarning, match="initial value clamped to the order interval"):
            rpt = mv.iterate(
                prob, grid(itv.lower.values - 0.5), u0_upper=grid(itv.upper.values + 0.5)
            )
        ref = mv.iterate(prob, itv.lower, u0_upper=itv.upper)
        assert np.array_equal(rpt.u_min.states[0], itv.lower.values)
        assert np.array_equal(rpt.u_max.states[0], itv.upper.values)
        assert np.array_equal(rpt.u_min.states, ref.u_min.states)
        assert np.array_equal(rpt.u_max.states, ref.u_max.states)
        with warnings.catch_warnings():  # within the slack: no warning
            warnings.simplefilter("error")
            mv.iterate(prob, grid(itv.lower.values - 0.5 * slack))


class NumpySignedSqrt(_SignedSqrt):
    """The signed sqrt through the base class's numpy eval_shifted_scalars."""

    eval_shifted_scalars = mv.Nonlinearity.eval_shifted_scalars


def _scalar_march_outputs(prob, run):
    """Every array the dim == 1 march produces, and its counts."""
    extra = []
    if run == "equilibria":
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
        rpt = eq.report
        extra = [eq.U_min.states, eq.U_max.states, eq.u_star.values, eq.u_upper_star.values]
    elif run == "from_zero":
        rpt = mv.iterate(prob, grid([0.0]), tol=1e-9)
    else:
        rpt = mv.iterate(prob, prob.interval.lower, tol=1e-9, u0_upper=prob.interval.upper)
    out = [
        rpt.u_min.states, rpt.u_max.states, rpt.stored["lower_prev"].states,
        rpt.stored["upper_prev"].states, rpt.distances_lower, rpt.distances_upper,
        rpt.sandwich_violations, *extra,
    ]
    return out, (rpt.n_iters, rpt.clamp_fraction, rpt.converged)


class BlockMarch(mv.monotone._March):
    """A march whose dim == 1 rows take the block (numpy) path."""

    _advance_scalar = mv.monotone._March._advance_block


@pytest.mark.parametrize("cone", ["standard", "reversed"])
@pytest.mark.parametrize("run", ["from_zero", "from_bounds", "equilibria"])
class TestScalarMarch:
    """The dim == 1 march on Python floats against the numpy evaluations."""

    def test_float_path_matches_the_numpy_path(self, cone, run):
        # bit for bit, bytes compared so that the sign of a zero counts
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        itv = scen.interval
        if cone == "reversed":  # one component ordered backwards: g(y) = -F(-y)
            itv = mv.OrderInterval(itv.upper, itv.lower, mv.ConeSpec((-1,)))
        (floats, counts), (numpy, numpy_counts) = (
            _scalar_march_outputs(mv.ProblemSpec(scen.A, f, itv, horizon=1.0, dt=5e-3), run)
            for f in (mv.signed_sqrt(), NumpySignedSqrt())
        )
        assert counts[2] and counts == numpy_counts
        assert [a.tobytes() for a in floats] == [a.tobytes() for a in numpy]

    def test_float_path_matches_the_block_path(self, cone, run, monkeypatch):
        # the signed sqrt is odd and cannot show a wrong cone sign, logistic
        # can; the block path adds p*y to 0.0 in a matmul, so its zeros may
        # carry the other sign, which array_equal ignores
        lower, upper = grid([0.0]), grid([4.0])
        itv = (
            mv.OrderInterval(lower, upper) if cone == "standard"
            else mv.OrderInterval(upper, lower, mv.ConeSpec((-1,)))
        )
        prob = mv.ProblemSpec(
            mv.generators.scalar_generator(1.0), mv.logistic(3.0, 1.0), itv,
            horizon=1.0, dt=5e-3,
        )
        floats, counts = _scalar_march_outputs(prob, run)
        monkeypatch.setattr(mv.monotone, "_March", BlockMarch)
        block, block_counts = _scalar_march_outputs(prob, run)
        assert counts[2] and counts == block_counts
        assert all(np.array_equal(a, b) for a, b in zip(floats, block))


@given(
    arrays(float, st.integers(2, 8), elements=st.floats(-1e6, 1e6)),
    st.floats(0.0, 1e3),
    st.floats(-10.0, -0.01),
)
@settings(max_examples=100, deadline=None)
def test_default_eval_shifted_is_exact_for_a_custom_term(values, shift, c):
    # the base class adds the shift to eval_values, and ProblemSpec.rhs uses it
    f = LinearDecay(c)
    expected = c * values + shift * values
    assert np.array_equal(f.eval_shifted(values, shift), expected)
    # the base class's eval_shifted_scalars goes through eval_shifted
    scalars = f.eval_shifted_scalars(values[0], values[1], shift)
    assert np.array(scalars).tobytes() == expected[:2].tobytes()
    n = values.size
    box = mv.OrderInterval(grid(-1e6 * np.ones(n)), grid(1e6 * np.ones(n)))
    prob = mv.ProblemSpec(mv.build_laplacian_1d(n, "neumann"), f, box, mu=shift)
    assert np.array_equal(prob.rhs(values), expected)


def _dense_newton_matrix(prob, v):
    return prob.A.matrix - prob.F.jacobian_matrix(v) - prob.mu * np.eye(v.size)


NEWTON_CASES = [
    "logistic_dirichlet", "logistic_neumann", "logistic_robin", "fisher",
    "competition_flipped", "scalar", "dense_generator", "custom_term",
]


@pytest.fixture(scope="module")
def newton_problems():
    """Problems whose Newton matrix is tridiagonal, pentadiagonal once
    interleaved (competition), 1 x 1, or dense."""
    cases = {}
    for bc, beta in (("dirichlet", None), ("neumann", None), ("robin", 0.7)):
        scen = mv.build_logistic(mv.build_laplacian_1d(12, bc, beta), 15.0, 2.0)
        cases[f"logistic_{bc}"] = scen.problem()
    weight = 8.0 * np.sin(2 * np.pi * mv.generators.mesh_nodes(mv.build_laplacian_1d(10, "neumann")))
    cases["fisher"] = mv.build_fisher(mv.build_laplacian_1d(10, "neumann"), weight, 0.5).problem()
    competition = mv.build_competition(
        mv.build_laplacian_1d(9, "dirichlet"), mv.build_laplacian_1d(9, "dirichlet"),
        30.0, 30.0, 1.0, 0.3, 0.3, 1.0,
    )
    assert competition.cone == mv.FLIPPED_CONE
    cases["competition_flipped"] = competition.problem()
    cases["scalar"] = mv.build_scalar_nonunique(1.0, 2.0).problem()
    rng = np.random.default_rng(3)
    off = -rng.uniform(0.1, 1.0, size=(7, 7))
    dense = off - np.diag(np.diag(off)) + np.diag(np.sum(np.abs(off), axis=1) + 1.0)
    box = mv.OrderInterval(grid(np.zeros(7)), grid(4.0 * np.ones(7)))
    cases["dense_generator"] = mv.ProblemSpec(
        mv.GeneratorSpec(dense, 1.0, "dense"), mv.logistic(2.0, 1.0), box
    )
    # a custom term: the base class assembles its dense oracle from its blocks
    box = mv.OrderInterval(grid(-2.0 * np.ones(10)), grid(2.0 * np.ones(10)))
    cases["custom_term"] = mv.ProblemSpec(
        mv.build_laplacian_1d(10, "neumann"), LinearDecay(-1.5), box
    )
    assert sorted(cases) == sorted(NEWTON_CASES)
    return cases


class TestNewtonLinearAlgebra:
    """Each Newton step is one banded LU on the node-major ordering; the
    dense solve of the same matrix is its oracle."""

    @staticmethod
    def check_against_dense(prob, v, rhs):
        (x,), (ok,) = mv.monotone.linearized_solve(prob, v[None], rhs[None])
        assert ok
        matrix = _dense_newton_matrix(prob, v)
        oracle = scipy.linalg.solve(matrix, rhs)
        # backward-stable solves of one matrix agree to eps * cond relative
        bound = 64 * v.size * np.finfo(float).eps * np.linalg.cond(matrix)
        assert np.max(np.abs(x - oracle)) <= bound * np.max(np.abs(oracle))
        return x

    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_step_matches_the_dense_solve(self, newton_problems, case):
        prob = newton_problems[case]
        lo, hi = prob.interval.lower.values, prob.interval.upper.values
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = lo + rng.uniform(0.1, 0.9, size=lo.size) * (hi - lo)
            r = prob.A.matrix @ v - prob.rhs(v)
            self.check_against_dense(prob, v, -r)

    @pytest.mark.parametrize("case", ["logistic_dirichlet", "competition_flipped"])
    def test_shifted_copy_after_its_parent(self, newton_problems, case):
        # a shifted generator shares its parent's propagator cache; its band
        # must still carry its own diagonal
        parent = newton_problems[case]
        v = 0.5 * (parent.interval.lower.values + parent.interval.upper.values)
        rhs = np.linspace(-1.0, 1.0, v.size)
        x_parent = self.check_against_dense(parent, v, rhs)
        scaled = mv.scale_problem(parent, 40.0)
        assert scaled.A._prop_cache is parent.A._prop_cache
        x_scaled = self.check_against_dense(scaled, v, rhs)
        # A + mu - F' - mu is A - F': the same system up to round-off
        bound = 1e-10 * np.max(np.abs(x_parent))
        assert np.max(np.abs(x_scaled - x_parent)) <= bound

    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_newton_converges_on_each_structure(self, newton_problems, case):
        prob = newton_problems[case]
        lo, hi = prob.interval.lower.values, prob.interval.upper.values
        v, res, ok = mv.newton_equilibrium(prob, lo + 0.7 * (hi - lo))
        assert ok and res <= 1e-10
        assert res == mv.monotone_norm(prob.A.matrix @ v - prob.rhs(v))

    @pytest.mark.parametrize("matrix, a, b, start", [
        # 1 x 1: A - F' = 1 - (3 - 2*1) = 0, a zero pivot
        ([[1.0]], 3.0, 1.0, [1.0]),
        # F' = 1 - 2*0.5 = 0 leaves the singular A itself, an exact zero pivot
        ([[1.0, -1.0], [-1.0, 1.0]], 1.0, 1.0, [0.5, 0.5]),
    ], ids=["scalar", "two_nodes"])
    def test_singular_matrix_is_reported(self, matrix, a, b, start):
        n = len(start)
        prob = mv.ProblemSpec(
            mv.GeneratorSpec(np.array(matrix), 1.0, "neumann"), mv.logistic(a, b),
            mv.OrderInterval(grid(np.zeros(n)), grid(4.0 * np.ones(n))),
        )
        start = np.array(start)
        (_,), (ok,) = mv.monotone.linearized_solve(prob, start[None], np.ones((1, n)))
        assert not ok
        v, res, ok = mv.newton_equilibrium(prob, start)
        assert not ok and np.array_equal(v, start)
        assert res == mv.monotone_norm(prob.A.matrix @ start - prob.rhs(start))

    def test_run_to_the_floor_stops_at_the_first_failed_full_step(self):
        # tol_res = 0 is a run to the residual floor; once a full step no
        # longer lowers a residual within defect_slack, the run ends
        # without the 13 damped trials that could follow
        gen = mv.build_laplacian_1d(60, "dirichlet")
        scen = mv.build_logistic(gen, 30.0, 1.0)
        prob = mv.ProblemSpec(gen, scen.F, scen.interval)
        rhs, residuals = prob.rhs, []

        def counting(x):  # Newton evaluates a stack of states, one row here
            out = rhs(x)
            (state,), (f,) = x, out
            residuals.append(mv.monotone_norm(prob.A.matrix @ state - f))
            return out

        prob.rhs = counting
        v, res, ok = mv.newton_equilibrium(prob, scen.interval.upper.values, tol_res=0.0)
        assert not ok and res > 0.0
        assert res <= mv.mild.defect_slack(prob.A, grid(v), rhs(v))
        # every evaluation but the last is an accepted step's, and the last
        # is the one failed full step
        accepted, failed = residuals[:-1], residuals[-1]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))
        assert accepted[-1] == res and failed > 0.75 * res

    def test_infinite_jacobian_is_reported(self):
        # signed sqrt has an infinite derivative at 0: the Newton matrix is
        # not finite, which is a reported failure and not a ValueError
        box = mv.OrderInterval(grid([-2.0, -2.0]), grid([2.0, 2.0]))
        prob = mv.ProblemSpec(mv.GeneratorSpec(np.eye(2), 1.0, "neumann"), mv.signed_sqrt(), box)
        start = np.array([0.0, 0.5])
        v, res, ok = mv.newton_equilibrium(prob, start)
        assert not ok and np.array_equal(v, start)
        assert res == pytest.approx(abs(0.5 - np.sqrt(0.5)))


def _reference_newton(prob, start, tol_res=1e-10, max_iter=80):
    """Damped Newton from one start, each step one scipy.linalg.solve_banded
    call of its own: the oracle of the lock-step `_newton_batch`."""
    a, c = prob.A.matrix, prob.F.components
    nb = prob.A.node_band(c)

    def residual(x):
        return a @ x - prob.rhs(x)

    def newton_step(x, rhs):
        jac = prob.F.jacobian_blocks(x)
        if prob.mu:
            jac = jac + prob.mu * np.eye(c)[:, :, None]
        ab = nb.band.copy()
        ab[nb.blocks] -= jac
        if not np.all(np.isfinite(ab)):
            return None
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                step = scipy.linalg.solve_banded(nb.lower_upper, ab, rhs[nb.perm],
                                                 check_finite=False)
        except scipy.linalg.LinAlgError:
            return None
        return step[nb.inverse] if np.all(np.isfinite(step)) else None

    v = np.array(start, dtype=float)
    r = residual(v)
    for _ in range(max_iter):
        norm_r = mv.monotone_norm(r)
        if norm_r <= tol_res:
            return v, norm_r, True
        step = newton_step(v, -r)
        if step is None:
            return v, norm_r, False
        t = 1.0
        while t >= 1e-4:
            trial = v + t * step
            r_trial = residual(trial)
            if np.all(np.isfinite(r_trial)) and mv.monotone_norm(r_trial) <= (1 - 0.25 * t) * norm_r:
                v, r = trial, r_trial
                break
            if t == 1.0 and norm_r <= mv.mild.defect_slack(prob.A, mv.GridFunction(v, c), a @ v - r):
                return v, norm_r, False
            t *= 0.5
        else:
            return v, norm_r, False
    norm_r = mv.monotone_norm(r)
    return v, norm_r, norm_r <= tol_res


def _assert_rows_are_their_own_runs(prob, starts, tol_res=1e-10, max_iter=80):
    vs, res, ok = mv.monotone._newton_batch(prob, starts, tol_res, max_iter)
    assert vs.shape == starts.shape and res.shape == ok.shape == (len(starts),)
    for start, v, r, o in zip(starts, vs, res, ok):
        alone = mv.newton_equilibrium(prob, start, tol_res, max_iter)
        assert type(alone[1]) is float and type(alone[2]) is bool
        for run in (alone, _reference_newton(prob, start, tol_res, max_iter)):
            assert np.array_equal(v, run[0]) and r == run[1] and o == run[2]
    return ok


class TestNewtonBatch:
    """The cross-check's random starts run as one lock-step batch; every row
    is bit for bit the run its start gets alone."""

    @pytest.mark.parametrize("tol_res", [1e-10, 0.0], ids=["converge", "to_the_floor"])
    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_rows_match_runs_alone(self, newton_problems, case, tol_res):
        prob = newton_problems[case]
        lo, hi = prob.interval.lower.values, prob.interval.upper.values
        rng = np.random.default_rng(11)
        starts = lo + rng.uniform(size=(12, lo.size)) * (hi - lo)
        ok = _assert_rows_are_their_own_runs(prob, starts, tol_res)
        # a run to the floor converges only where a residual reaches 0
        assert ok.all() or not tol_res

    def test_rows_stopped_by_max_iter(self, newton_problems):
        prob = newton_problems["logistic_dirichlet"]
        lo, hi = prob.interval.lower.values, prob.interval.upper.values
        starts = lo + np.random.default_rng(5).uniform(size=(8, lo.size)) * (hi - lo)
        for max_iter in (0, 1, 3):
            _assert_rows_are_their_own_runs(prob, starts, max_iter=max_iter)

    def test_infinite_jacobian_fails_only_its_row(self):
        # signed sqrt has an infinite derivative at 0: the start with an
        # entry exactly 0 fails, and every other row runs on unchanged
        n = 6
        box = mv.OrderInterval(grid(-2.0 * np.ones(n)), grid(2.0 * np.ones(n)))
        prob = mv.ProblemSpec(mv.build_laplacian_1d(n, "neumann"), mv.signed_sqrt(), box)
        starts = np.random.default_rng(2).uniform(0.2, 1.8, size=(9, n))
        starts[4, 2] = 0.0
        ok = _assert_rows_are_their_own_runs(prob, starts)
        assert not ok[4] and ok.sum() >= 6

    @pytest.mark.parametrize("matrix, singular", [
        # F' = 3 - 2*1 = 1 = A: a 1 x 1 zero pivot
        ([[1.0]], [1.0]),
        # F' = 0 leaves the singular A itself: tridiagonal, LAPACK gtsv
        ([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5]),
        # the same on a full 3 x 3 band, LAPACK gbsv
        ([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]], [0.5, 0.5, 0.5]),
    ], ids=["scalar", "tridiagonal", "full_band"])
    def test_singular_block_fails_only_its_row(self, matrix, singular):
        n = len(singular)
        a = 3.0 if n == 1 else 1.0
        prob = mv.ProblemSpec(
            mv.GeneratorSpec(np.array(matrix), 1.0, "neumann"), mv.logistic(a, 1.0),
            mv.OrderInterval(grid(np.zeros(n)), grid(4.0 * np.ones(n))),
        )
        starts = np.random.default_rng(4).uniform(0.1, 3.9, size=(7, n))
        for row in (0, 3, 6):  # the first, a middle and the last block
            stack = starts.copy()
            stack[row] = singular
            ok = _assert_rows_are_their_own_runs(prob, stack)
            assert not ok[row] and np.delete(ok, row).all()

    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_empty_stack(self, newton_problems, case):
        prob = newton_problems[case]
        vs, res, ok = mv.monotone._newton_batch(prob, np.empty((0, prob.A.dim)))
        assert vs.shape == (0, prob.A.dim) and res.shape == ok.shape == (0,)


def test_flipped_cone_term_matches_the_sign_flip_wrapper(monkeypatch):
    """The competition preset folds the cone signs into its coefficients;
    sign flips are exact, so the march is the base class wrapper's, bit for
    bit (== also holds for signed zeros, which the tobytes check pins)."""
    scen = mv.build_competition(
        mv.build_laplacian_1d(10, "neumann"), mv.build_laplacian_1d(10, "neumann"),
        1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
    )
    assert scen.cone == mv.FLIPPED_CONE
    svec = scen.cone.sign_vector(10)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((3, 20))
    y[0, :4] = [0.0, -0.0, 0.0, -0.0]
    folded = scen.F.shifted_in_cone(svec, 2.5)(y)
    wrapped = svec * scen.F.eval_shifted(svec * y, 2.5)
    assert folded.tobytes() == wrapped.tobytes()

    prob = stall_problem(scen, horizon=0.5, dt=0.02)
    itv = prob.interval

    def runs():
        rpt = mv.iterate(prob, itv.lower, u0_upper=itv.upper)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, n_newton_starts=0)
        return rpt.u_min, rpt.u_max, eq.U_min, eq.U_max

    ours = runs()
    monkeypatch.setattr(type(scen.F), "shifted_in_cone", mv.Nonlinearity.shifted_in_cone)
    theirs = runs()
    for a, b in zip(ours, theirs):
        assert a.states.shape == b.states.shape
        assert np.all(a.states == b.states)
        assert a.states.tobytes() == b.states.tobytes()


def steady_state(a_mat, f, start):
    """Equilibrium reached from `start` by the semi-discrete flow
    du/dt = F(u) - A u (BDF), polished by a root solve: a reference that
    shares the model with the engine but none of its solver."""

    def rhs(_t, u):
        return f.eval_values(u) - a_mat @ u

    def jac(_t, u):
        return f.jacobian_matrix(u) - a_mat

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, 100.0), start, method="BDF", jac=jac, rtol=1e-6, atol=1e-9
    )
    assert sol.success
    root = scipy.optimize.root(lambda u: rhs(0.0, u), sol.y[:, -1], jac=lambda u: jac(0.0, u))
    assert np.max(np.abs(rhs(0.0, root.x))) <= 1e-9
    return root.x


class TestCertifiedStop:
    """The march ends once Newton's points are proven to be the extremal
    equilibria (monotone._certify_extremal); ends that never certify keep
    the stall stop and the polish."""

    @pytest.fixture(scope="class")
    def cases(self):
        logistic = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
        competition = mv.build_competition(
            mv.build_laplacian_1d(12, "dirichlet"), mv.build_laplacian_1d(12, "dirichlet"),
            30.0, 30.0, 1.0, 0.3, 0.3, 1.0,
        )
        gen = mv.build_laplacian_1d(24, "neumann")
        fisher = mv.build_fisher(gen, 8.0 * np.sin(2 * np.pi * mv.mesh_nodes(gen)), 0.5)
        return {
            "dirichlet_logistic": (logistic, 1.0, 0.02),
            "dirichlet_competition": (competition, 1.0, 0.02),
            "fisher_neumann": (fisher, 1.0, 0.05),
        }

    @pytest.mark.parametrize("case", [
        "dirichlet_logistic", "dirichlet_competition", "fisher_neumann",
    ])
    def test_certified_equilibria_match_an_independent_reference(self, cases, case):
        scen, horizon, dt = cases[case]
        eq = mv.asymptotic_equilibria(
            scen.problem(horizon=horizon, dt=dt), tol=1e-9, tol_eq=1e-9, tol_res=1e-8,
        )
        assert eq.certified == (True, True) and eq.horizon_converged
        assert all(r <= 1e-9 for r in eq.certified_radius)
        assert eq.polish_moved == (0.0, 0.0)
        itv = scen.interval
        # in a cooperative system the flow from each bound ends at the
        # extremal equilibrium on its side
        lower = steady_state(scen.A.matrix, scen.F, itv.lower.values)
        upper = steady_state(scen.A.matrix, scen.F, itv.upper.values)
        assert np.max(np.abs(eq.u_star.values - lower)) <= 1e-8
        assert np.max(np.abs(eq.u_upper_star.values - upper)) <= 1e-8

    def test_certified_stop_shortens_the_march_only(self, cases):
        scen, horizon, dt = cases["dirichlet_logistic"]
        stalled = mv.asymptotic_equilibria(
            stall_problem(scen, horizon, dt), tol=1e-9, tol_eq=1e-9, tol_res=1e-8,
        )
        eq = mv.asymptotic_equilibria(
            scen.problem(horizon=horizon, dt=dt), tol=1e-9, tol_eq=1e-9, tol_res=1e-8,
        )
        assert stalled.certified == (False, False)
        assert stalled.certified_radius == (None, None)
        assert len(eq.windows) < len(stalled.windows)
        # the certified march is the first part of the stalled one
        n = eq.U_min.states.shape[0]
        assert np.array_equal(eq.U_min.states, stalled.U_min.states[:n])
        assert np.array_equal(eq.U_max.states, stalled.U_max.states[:n])
        assert np.max(np.abs(eq.u_star.values - stalled.u_star.values)) <= 1e-9
        assert np.max(np.abs(eq.u_upper_star.values - stalled.u_upper_star.values)) <= 1e-9

    @staticmethod
    def _reversed_logistic():
        # in the reversed cone the lower bound 1 lies below the stable
        # equilibrium 1/2 and the upper bound 0 is the unstable one, so the
        # minimal equilibrium is 1/2 and 0 is a non-minimal one
        gen = mv.build_laplacian_1d(12, "neumann")
        itv = mv.OrderInterval(grid(np.ones(12)), grid(np.zeros(12)), mv.ConeSpec((-1,)))
        return mv.ProblemSpec(gen, mv.logistic(1.0, 2.0), itv, horizon=1.0, dt=0.05), 0.5, 0.0

    @staticmethod
    def _scalar():
        # equilibria -1 < 0 < 1 in [-2, 2]; +1 is a non-minimal one
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        return scen.problem(horizon=1.0, dt=0.01), -1.0, 1.0

    @pytest.mark.parametrize("build", ["_reversed_logistic", "_scalar"])
    def test_non_minimal_newton_point_is_rejected(self, monkeypatch, build):
        prob, minimal, other = getattr(self, build)()
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert eq.certified[0]
        assert np.max(np.abs(eq.u_star.values - minimal)) <= 1e-9
        state = eq.U_min.terminal().values
        slack = mv.order.order_slack(prob.interval.value_scale(), prob.interval.dim)
        assert mv.monotone._certify_extremal(prob, state, 1, 1e-9, slack) is not None

        original = mv.monotone.newton_equilibrium

        def wrong_root(problem, start, tol_res=1e-10, max_iter=80):
            if tol_res == 0.0 and np.max(np.abs(start - minimal)) < 0.5 * abs(other - minimal):
                # the certificate's run from the lower row: a genuine
                # equilibrium, but not the minimal one
                v = np.full_like(start, other)
                return v, mv.monotone.monotone_norm(problem.A.matrix @ v - problem.rhs(v)), True
            return original(problem, start, tol_res, max_iter)

        monkeypatch.setattr(mv.monotone, "newton_equilibrium", wrong_root)
        assert mv.monotone._certify_extremal(prob, state, 1, 1e-9, slack) is None
        mutated = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert not mutated.certified[0]
        # the lower end falls back to the stall stop and the polish
        assert np.max(np.abs(mutated.u_star.values - minimal)) <= 1e-8

    def test_unstable_extremal_equilibrium_stays_uncertified(self):
        # competition with a1 below lambda_1 (about 9.8) on the box
        # [(0, M), (M, 0)]: the maximal end (0, 0) is unstable and is not an
        # interval bound, so neither Newton's run from the row nor the one
        # from the swept state certifies it
        gen = mv.build_laplacian_1d(8, "dirichlet")
        scen = mv.build_competition(gen, gen, 5.0, 30.0, 1.0, 0.3, 0.3, 1.0)
        prob = scen.problem(horizon=1.0, dt=0.05)
        for bound in (scen.interval.lower.values, scen.interval.upper.values):
            assert np.any(prob.A.matrix @ bound - prob.rhs(bound))
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert eq.certified == (True, False)
        assert eq.certified_radius[0] <= 1e-9 and eq.certified_radius[1] is None
        assert eq.horizon_converged
        assert np.max(np.abs(eq.u_upper_star.values)) <= 1e-12
        assert np.min(eq.u_star.values[8:]) > 1.0

    def test_zero_bound_certifies_with_radius_0(self, monkeypatch):
        # logistic on [0, M] with a > lambda_1: the lower bound 0 is the
        # minimal equilibrium, unstable; 0 with F(0) = 0 is an equilibrium by
        # construction, so as the least point of the interval it certifies
        # with no Newton run
        gen = mv.build_laplacian_1d(20, "dirichlet")
        itv = mv.OrderInterval(grid(np.zeros(20)), grid(12.0 * np.ones(20)))
        prob = mv.ProblemSpec(gen, mv.logistic(12.0, 2.0), itv, horizon=1.0, dt=0.02)
        sides = []
        original = mv.monotone._certify_extremal

        def recorded(problem, state, side, *args):
            sides.append(side)
            return original(problem, state, side, *args)

        monkeypatch.setattr(mv.monotone, "_certify_extremal", recorded)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert eq.certified == (True, True)
        assert eq.certified_radius[0] == 0.0 and eq.certified_radius[1] <= 1e-9
        assert eq.polish_moved == (0.0, 0.0)
        assert np.all(eq.u_star.values == 0.0) and eq.residuals[0] == 0.0
        assert np.min(eq.u_upper_star.values) > 0.1
        assert 1 not in sides  # only the upper end tried the proof
        assert len(eq.windows) == 1

    def test_nonzero_bound_with_residual_zero_runs_the_proof(self, monkeypatch):
        # constant Fisher weight on Neumann: the upper bound 1 has A 1 - F(1)
        # computed as 0.0, but only a zero bound is taken on construction,
        # so the upper end runs the proof; the lower bound 0 needs none
        gen = mv.build_laplacian_1d(12, "neumann")
        prob = mv.build_fisher(gen, 4.0 * np.ones(12), 0.5).problem(horizon=1.0, dt=0.05)
        upper = prob.interval.upper.values
        assert np.all(upper == 1.0)
        assert not np.any(prob.A.matrix @ upper - prob.rhs(upper))
        sides = []
        original = mv.monotone._certify_extremal

        def recorded(problem, state, side, *args):
            sides.append(side)
            return original(problem, state, side, *args)

        monkeypatch.setattr(mv.monotone, "_certify_extremal", recorded)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert sides and set(sides) == {-1}
        assert eq.certified == (True, True) and eq.certified_radius[0] == 0.0

    def test_stable_end_on_a_bound_certifies(self):
        # the lower bound [6, 6] is the minimal equilibrium; the march leaves
        # its row one ulp below it and Newton returns that start, so only the
        # clamp into the interval lets the certificate's v = p + eps*psi
        # (eps = 0 at residual 0) lie inside
        scen = mv.build_logistic(mv.build_laplacian_1d(2, "dirichlet"), 15.0, 1.0)
        assert np.all(scen.interval.lower.values == 6.0)
        eq = mv.asymptotic_equilibria(scen.problem(horizon=1.0, dt=0.05))
        assert eq.certified == (True, True)
        assert eq.certified_radius[0] == 0.0
        assert len(eq.windows) == 1
        assert np.all(eq.u_star.values == 6.0)

    def test_benchmark_configs_certify_early(self):
        # the bound of the mean-value Jacobian (Simpson's rule on three
        # boxes), the second pass on the narrowed box and, for Fisher, the
        # retry from the swept state; a bound of F' over the one box
        # [x_lo, top] certifies these at windows 8 (Fisher) and 2 (mesh),
        # the mean-value bound Fisher at window 4, and the sweeps at window 1
        gen = mv.build_laplacian_1d(60, "neumann")
        fisher = mv.build_fisher(gen, 8.0 * np.sin(2 * np.pi * mv.mesh_nodes(gen)), 0.5)
        eq = mv.asymptotic_equilibria(
            fisher.problem(horizon=1.0, dt=0.02), tol=1e-9, tol_eq=1e-9, tol_res=1e-8,
        )
        assert eq.certified == (True, True) and len(eq.windows) == 1
        mesh = mv.build_logistic(mv.build_laplacian_1d(160, "neumann"), 1.0, 2.0)
        eq = mv.asymptotic_equilibria(
            mesh.problem(horizon=0.2, dt=0.02), tol=1e-9, tol_eq=1e-9, tol_res=1e-8,
        )
        assert eq.certified == (True, True) and len(eq.windows) == 1
        # the Neumann logistic's extremal equilibria are both a/b
        assert np.max(np.abs(eq.u_star.values - 0.5)) <= 1e-9
        assert np.max(np.abs(eq.u_upper_star.values - 0.5)) <= 1e-9


def _first_pass(problem, state, side, tol_eq, slack):
    """The certificate's first pass alone, Newton from the row and the two
    `_enclose` passes, as `_certify_extremal` ran before it had a retry."""
    interval = problem.interval
    sides = side * interval.cone.sign_vector(interval.lower.n_points)
    a, b = sides * interval.lower.values, sides * interval.upper.values
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    p, rho, _ = mv.newton_equilibrium(problem, state, tol_res=0.0)
    y_p = np.clip(sides * p, lo, hi)
    p = sides * y_p
    x_lo = np.minimum(sides * state, y_p) - slack
    cert = mv.monotone._enclose(problem, sides, y_p, x_lo, hi, rho, tol_eq)
    if cert is not None and cert[0] > tol_eq:
        narrow = mv.monotone._enclose(
            problem, sides, y_p, np.maximum(x_lo, cert[1] - slack), hi, rho, tol_eq
        )
        if narrow is not None and narrow[0] < cert[0]:
            cert = narrow
    return None if cert is None else (p, cert[0])


class TestSweptEnd:
    """The certificate's retry: elliptic monotone sweeps from the march's
    row (monotone._sweep), then Newton from the swept state."""

    @staticmethod
    def _fisher(n):
        gen = mv.build_laplacian_1d(n, "neumann")
        return mv.build_fisher(gen, 8.0 * np.sin(2 * np.pi * mv.mesh_nodes(gen)), 0.5)

    @pytest.fixture(scope="class")
    def problems(self):
        competition = mv.build_competition(
            mv.build_laplacian_1d(12, "dirichlet"), mv.build_laplacian_1d(12, "dirichlet"),
            30.0, 30.0, 1.0, 0.3, 0.3, 1.0,
        )
        return {
            "scalar": TestCertifiedStop._scalar()[0],
            "reversed_logistic": TestCertifiedStop._reversed_logistic()[0],
            "fisher_neumann": self._fisher(24).problem(horizon=1.0, dt=0.05),
            "flipped_competition": competition.problem(horizon=1.0, dt=0.02),
        }

    @pytest.mark.parametrize("case", [
        "scalar", "reversed_logistic", "fisher_neumann", "flipped_competition",
    ])
    def test_every_sweep_stays_on_its_side(self, problems, case, monkeypatch):
        monkeypatch.setattr(mv.monotone, "SWEEP_MAX_ITER", 1)  # one sweep per call
        prob = problems[case]
        itv = prob.interval
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert eq.certified == (True, True)
        march = mv.monotone._March(prob, itv.lower, itv.upper, 1e-9, 2000)
        steps = mv.time_grid(prob.horizon, prob.dt).size - 1
        for window in (1, 2):
            march.advance(steps)
            for end, side, star, radius in (
                (0, 1, eq.u_star, eq.certified_radius[0]),
                (1, -1, eq.u_upper_star, eq.certified_radius[1]),
            ):
                sides = side * itv.cone.sign_vector(itv.lower.n_points)
                a, b = sides * itv.lower.values, sides * itv.upper.values
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                # the extremal equilibrium lies within radius of the reported one
                top = sides * star.values + radius
                y = np.clip(sides * march._standard(march.y[end]) - march.slack, lo, hi)
                assert np.all(y <= top)
                for _ in range(30):  # every iterate
                    y = mv.monotone._sweep(prob, sides, y, lo, hi, 0.0)
                    assert y is not None
                    assert np.all(y <= top), (window, end)
                    assert np.all((lo <= y) & (y <= hi))

    @pytest.mark.parametrize("case", [
        "scalar", "neumann_logistic_2", "dirichlet_competition_2", "fisher_neumann",
    ])
    def test_sweep_matches_a_dense_solve(self, problems, case, monkeypatch):
        # one banded-LU sweep against the same sweep by a dense solve, on
        # 1 x 1, 2 x 2 tridiagonal, interleaved two-species and n = 24 bands
        monkeypatch.setattr(mv.monotone, "SWEEP_MAX_ITER", 1)
        if case == "neumann_logistic_2":
            prob = mv.build_logistic(mv.build_laplacian_1d(2, "neumann"), 1.0, 2.0).problem()
        elif case == "dirichlet_competition_2":
            gen = mv.build_laplacian_1d(2, "dirichlet")
            prob = mv.build_competition(gen, gen, 30.0, 30.0, 1.0, 0.3, 0.3, 1.0).problem()
        else:
            prob = problems[case]
        itv = prob.interval
        scaled = mv.auto_scale(prob)
        for side in (1, -1):
            sides = side * itv.cone.sign_vector(itv.lower.n_points)
            a, b = sides * itv.lower.values, sides * itv.upper.values
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            y = lo + 0.25 * (hi - lo)
            ours = mv.monotone._sweep(prob, sides, y, lo, hi, 0.0)
            x = np.linalg.solve(scaled.A.matrix, scaled.rhs(sides * y))
            psi = sides * np.linalg.solve(scaled.A.matrix, sides)
            assert np.all(psi > 0.0)
            dense = np.clip(sides * x, lo, hi)
            # the banded sweep lies below the dense one by its residual bound,
            # about defect_slack (>= 1e-12) times psi, unless clamped at lo
            assert np.all((ours < dense) | (ours == lo))
            scale = max(1.0, np.max(np.abs(hi))) * max(1.0, np.max(psi))
            assert np.max(np.abs(ours - dense)) <= 1e-11 * scale

    def test_fisher_benchmark_config_certifies_at_window_1_through_the_retry(
        self, monkeypatch
    ):
        scen = self._fisher(60)
        prob = scen.problem(horizon=1.0, dt=0.02)
        swept = []
        original = mv.monotone._sweep

        def recorded(problem, sides, *args, **kwargs):
            y = original(problem, sides, *args, **kwargs)
            swept.append(int(sides[0]))
            return y

        monkeypatch.setattr(mv.monotone, "_sweep", recorded)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert eq.certified == (True, True) and len(eq.windows) == 1
        assert all(r <= 1e-9 for r in eq.certified_radius)
        assert sorted(swept) == [-1, 1]  # each end retried once
        itv = scen.interval
        lower = steady_state(scen.A.matrix, scen.F, itv.lower.values)
        upper = steady_state(scen.A.matrix, scen.F, itv.upper.values)
        assert np.max(np.abs(eq.u_star.values - lower)) <= 1e-8
        assert np.max(np.abs(eq.u_upper_star.values - upper)) <= 1e-8

    def test_first_pass_result_is_unchanged_where_it_certifies(self, monkeypatch):
        # the mesh benchmark config: the retry never runs, and (p, radius)
        # is bit for bit what the first pass alone gives
        mesh = mv.build_logistic(mv.build_laplacian_1d(160, "neumann"), 1.0, 2.0)
        prob = mesh.problem(horizon=0.2, dt=0.02)
        itv = prob.interval
        march = mv.monotone._March(prob, itv.lower, itv.upper, 1e-9, 2000)
        march.advance(mv.time_grid(prob.horizon, prob.dt).size - 1)

        def never(*args, **kwargs):
            raise AssertionError("the retry ran")

        monkeypatch.setattr(mv.monotone, "_sweep", never)
        for end, side in ((0, 1), (1, -1)):
            state = march._standard(march.y[end])
            cert = mv.monotone._certify_extremal(prob, state, side, 1e-9, march.slack)
            ref = _first_pass(prob, state, side, 1e-9, march.slack)
            assert cert is not None and cert[1] <= 1e-9
            assert cert[0].tobytes() == ref[0].tobytes() and cert[1] == ref[1]

    def test_sweep_refuses_a_coupling_against_the_cone(self):
        # A couples the two components, whose cone signs differ: T A T has
        # positive off-diagonal entries, so the sweep does not preserve the
        # order and gives up
        gen = mv.build_laplacian_1d(4, "dirichlet")
        a = scipy.linalg.block_diag(gen.matrix, gen.matrix)
        a[0, 4] = a[4, 0] = -1.0
        coupled = mv.GeneratorSpec(a, gen.mesh_h, gen.bc)
        f = mv.competition(30.0, 30.0, 1.0, 0.3, 0.3, 1.0)
        lower = grid(np.concatenate([np.zeros(4), 60.0 * np.ones(4)]), 2)
        upper = grid(np.concatenate([60.0 * np.ones(4), np.zeros(4)]), 2)
        itv = mv.OrderInterval(lower, upper, mv.ConeSpec((1, -1)))
        prob = mv.ProblemSpec(coupled, f, itv)
        sides = itv.cone.sign_vector(4).astype(float)
        lo = np.minimum(sides * lower.values, sides * upper.values)
        hi = np.maximum(sides * lower.values, sides * upper.values)
        assert mv.monotone._sweep(prob, sides, lo, lo, hi, 1e-9) is None
        ok = mv.ProblemSpec(mv.block_generator([gen, gen]), f, itv)
        assert mv.monotone._sweep(ok, sides, lo, lo, hi, 1e-9) is not None
