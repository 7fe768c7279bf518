"""The iteration engine: sandwich, convergence, extremal objects."""

import copy
import gc
import itertools
import math
import warnings

import hypothesis
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
from mevolve.order import order_slack

from conftest import (
    bench_module,
    constant_trajectory,
    dense_generator_matrix,
    fresh,
    grid,
)

workloads = bench_module("workloads")  # the benchmark's workload definitions


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
        bound = 2 * (rpt.tol + prob.dt)
        assert mv.mild_residual(prob, rpt.u_min) <= bound
        assert mv.mild_residual(prob, rpt.u_max) <= bound


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
        # the first window is one march per tolerance: rows L and H until
        # iterate from the lower bound asks for row U, then rows L, U and H;
        # the equilibria march goes on from it with a copy of rows L and H,
        # one advance per later window; another start marches its own pair
        calls, marches, advances = [], [], []
        original = mv.monotone.iterate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        class CountingMarch(mv.monotone._March):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                marches.append(self.k)

            def advance(self, n_steps):
                advances.append((self.k, n_steps))
                super().advance(n_steps)

        monkeypatch.setattr(mv.monotone, "iterate", counting)
        monkeypatch.setattr(mv.monotone, "_March", CountingMarch)
        # without Jacobian bounds the march runs to its stall, window by window
        prob = mv.ProblemSpec(
            dirichlet_logistic.A, without_jacobian_bounds(dirichlet_logistic.F),
            dirichlet_logistic.interval, horizon=1.0, dt=0.02,
        )
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
        assert len(eq.windows) > 1
        assert calls == [] and marches == [2]
        assert advances == [(2, 50)] * len(eq.windows)
        assert all(isinstance(w["n_iters"], int) for w in eq.windows)
        mv.extremal_trajectories(prob)
        assert len(calls) == 1 and marches == [2] and len(advances) == len(eq.windows)
        mv.iterate(prob, prob.interval.lower, tol=1e-9)
        mv.iterate(prob, prob.interval.lower, tol=1e-9)
        mv.extremal_trajectories(prob)
        mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
        assert len(calls) == 2 and marches == [2, 3]
        assert advances[len(eq.windows)] == (3, 50)
        # a first window per tolerance, and a pair of its own for another start
        mv.iterate(prob, prob.interval.lower, tol=1e-8)
        mv.iterate(prob, prob.interval.upper, tol=1e-9)
        assert marches == [2, 3, 3, 2]


class TestSharedFirstWindow:
    """One march per tolerance serves `iterate` from the lower bound (pair
    L, U), from both bounds (pair L, H) and the first window of
    `asymptotic_equilibria`: rows L and H alone until row U is asked for,
    then rows L, U and H in one block."""

    @pytest.fixture(scope="class")
    def problems(self):
        logistic = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
        competition = mv.build_competition(
            mv.build_laplacian_1d(10, "neumann"), mv.build_laplacian_1d(10, "neumann"),
            1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
        )
        return {
            "dirichlet_logistic": logistic.problem(horizon=1.0, dt=0.02),
            "flipped_competition": competition.problem(horizon=1.0, dt=0.02),
            "scalar": mv.build_scalar_nonunique(1.0, 2.0).problem(horizon=1.0, dt=0.01),
        }

    @staticmethod
    def _outputs(prob, order):
        """Every array and figure of the three callers, each asked twice,
        in the given order."""
        itv, out = prob.interval, {}
        calls = {
            "iterate": lambda: mv.iterate(prob, itv.lower, tol=1e-9),
            "extremal": lambda: mv.extremal_trajectories(prob, tol=1e-9)[2],
            "equilibria": lambda: mv.asymptotic_equilibria(
                prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8),
        }
        for name in order * 2:
            result = calls[name]()
            if name == "equilibria":
                figures = [result.U_min.states, result.U_max.states, result.u_star.values,
                           result.u_upper_star.values, result.windows,
                           result.worst_violation, result.certified]
                result = result.report
            else:
                figures = []
            figures += [
                result.u_min.states, result.u_max.states, result.stored["lower_prev"].states,
                result.stored["upper_prev"].states, result.distances_lower,
                result.distances_upper, result.sandwich_violations, result.n_iters,
                result.converged, result.unique_flag, result.clamp_fraction,
            ]
            out.setdefault(name, []).append(
                [f.tobytes() if isinstance(f, np.ndarray) else repr(f) for f in figures])
        return out

    @pytest.mark.parametrize("case", ["dirichlet_logistic", "flipped_competition", "scalar"])
    def test_results_do_not_depend_on_the_order_of_the_calls(self, problems, case):
        orders = (["iterate", "extremal", "equilibria"], ["equilibria", "extremal", "iterate"])
        first, second = (self._outputs(fresh(problems[case]), order) for order in orders)
        assert first == second
        for repeats in first.values():
            assert repeats[0] == repeats[1]

    @pytest.mark.parametrize("workload", ["sweep", "windows", "setup", "mesh"])
    def test_iterate_is_the_first_window_of_the_equilibria_march(self, workload):
        # on every seed-1 benchmark config, all of which certify at window 1
        for cfg in workloads.configs(workload, workloads.DEFAULT_SEED):
            scen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg.get("n", 1),
                                        cfg.get("bc", "scalar"), cfg.get("beta"))
            prob = scen.problem(horizon=cfg["T"], dt=cfg["dt"])
            rpt = mv.iterate(prob, scen.interval.lower, tol=cfg["tol"])
            eq = mv.asymptotic_equilibria(prob, tol=cfg["tol"], tol_eq=cfg["tol_eq"],
                                          tol_res=cfg["tol_res"], seed=cfg["seed"])
            assert len(eq.windows) == 1
            # one object: rendered once when the four CSVs are written
            assert eq.U_min is rpt.u_min is eq.report.u_min
            both = mv.iterate(prob, scen.interval.lower, tol=cfg["tol"],
                              u0_upper=scen.interval.upper)
            assert both.u_min is rpt.u_min
            assert both.u_max.states.tobytes() == eq.U_max.states.tobytes()

    @pytest.mark.parametrize("case", ["u0_upper", "nine_windows", "equilibria_first"])
    def test_U_min_is_another_object_where_it_is_another_row(self, case):
        # iterate's lower row from the upper bound falls; a march of nine
        # windows (its uncertified end stops at the stall) joins them into a
        # longer row; an equilibria march asked first has rows L and H alone,
        # and iterate then marches L, U and H
        if case == "nine_windows":
            gen = mv.build_laplacian_1d(4, "dirichlet")
            scen = mv.build_competition(gen, gen, 5.0, 30.0, 1.0, 0.3, 0.3, 1.0)
            prob = scen.problem(horizon=1.0, dt=0.03)
        else:
            scen = mv.build_logistic(mv.build_laplacian_1d(12, "neumann"), 1.0, 2.0)
            prob = scen.problem(horizon=1.0, dt=0.05)
        itv = prob.interval
        u0 = itv.upper if case == "u0_upper" else itv.lower
        if case == "equilibria_first":
            eq = mv.asymptotic_equilibria(prob)
            rpt = mv.iterate(prob, u0)
        else:
            rpt = mv.iterate(prob, u0)
            eq = mv.asymptotic_equilibria(prob)
        assert len(eq.windows) == (9 if case == "nine_windows" else 1)
        assert eq.U_min is not rpt.u_min
        n = rpt.u_min.states.shape[0]
        same = rpt.u_min.states.tobytes() == eq.U_min.states[:n].tobytes()
        assert same is (case != "u0_upper")

    @pytest.mark.parametrize("case", ["dirichlet_logistic", "flipped_competition", "scalar"])
    @pytest.mark.parametrize("start", ["upper", "midpoint"])
    def test_another_start_marches_a_plain_pair(self, problems, case, start):
        prob = fresh(problems[case])
        itv = prob.interval
        u0 = itv.upper if start == "upper" else grid(
            0.5 * (itv.lower.values + itv.upper.values), itv.components)
        rpt, plain = mv.iterate(prob, u0, tol=1e-9), _march(prob, u0, u0).report()
        assert prob._first_windows == {}
        for a, b in [(rpt.u_min.states, plain.u_min.states),
                     (rpt.u_max.states, plain.u_max.states),
                     (rpt.distances_lower, plain.distances_lower),
                     (rpt.distances_upper, plain.distances_upper),
                     (rpt.sandwich_violations, plain.sandwich_violations)]:
            assert a.tobytes() == b.tobytes()
        assert (rpt.n_iters, rpt.clamp_fraction) == (plain.n_iters, plain.clamp_fraction)

    def test_the_lower_row_does_not_depend_on_its_partner(self):
        # q = 0.14, so no ladder: every row takes the plain step, and each
        # GEMM multiplies both rows of the pair, a stopped one held.  Row L
        # from the lower bound then carries the same bits whether its
        # partner starts at the midpoint (a pair of its own) or at the upper
        # bound (the memoized first window)
        scen = mv.build_logistic(mv.build_laplacian_1d(12, "neumann"), 1.0, 2.0)
        prob = scen.problem(horizon=1.0, dt=0.05)
        itv = prob.interval
        midpoint = grid(0.5 * (itv.lower.values + itv.upper.values))
        inside = mv.iterate(prob, itv.lower, tol=1e-9, u0_upper=midpoint)
        bounds = mv.iterate(prob, itv.lower, tol=1e-9, u0_upper=itv.upper)
        assert inside.contraction_bound < mv.monotone.ACCELERATION_Q
        assert inside.u_min.states.tobytes() == bounds.u_min.states.tobytes()

    def test_each_pair_reads_its_own_rows(self):
        # the seed-1 `sweep` Dirichlet config: U needs up to 24 inner
        # iterations in a step, H up to 17 and L up to 19, so a figure taken
        # over all three rows would show in pair (L, H).  Row L's level in
        # the window comes from the box up to H's start, in a pair (L, U)
        # alone from the box up to U's: there the two marches agree only
        # to within the stop rule, and bit for bit up to the GEMM's rounding
        # in pair (L, H), whose box is the same in both
        cfg = workloads.configs("sweep", workloads.DEFAULT_SEED)[0]
        scen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg["n"], cfg["bc"])
        prob = scen.problem(horizon=cfg["T"], dt=cfg["dt"])
        itv, tol = prob.interval, cfg["tol"]
        shared = [
            (itv.lower, mv.iterate(prob, itv.lower, tol=tol)),
            (itv.upper, mv.extremal_trajectories(prob, tol=tol)[2]),
        ]
        eq = mv.asymptotic_equilibria(prob, tol=tol, tol_eq=cfg["tol_eq"],
                                      tol_res=cfg["tol_res"], seed=cfg["seed"])
        plain_n_iters = []
        for u0_upper, rpt in shared:
            plain = _march(prob, itv.lower, u0_upper, tol).report()
            plain_n_iters.append(plain.n_iters)
            # the same counts; the values up to the rounding of a wider GEMM
            assert (rpt.n_iters, rpt.converged, rpt.unique_flag, rpt.clamp_fraction) == (
                plain.n_iters, plain.converged, plain.unique_flag, plain.clamp_fraction)
            values = [(rpt.u_min.states, plain.u_min.states),
                      (rpt.u_max.states, plain.u_max.states)]
            figures = [(rpt.distances_lower, plain.distances_lower),
                       (rpt.distances_upper, plain.distances_upper),
                       (rpt.sandwich_violations, plain.sandwich_violations)]
            if u0_upper is itv.lower:  # pair (L, U): the values to within the stop rule
                checked, bound = values, 10 * tol
            else:
                checked, bound = values + figures, 1e-13
            for a, b in values + figures:
                assert a.shape == b.shape
            for a, b in checked:
                assert np.max(np.abs(a - b)) <= bound
        assert plain_n_iters == [24, 19]
        assert eq.windows[0]["n_iters"] == 19
        assert eq.report.n_iters == 19
        assert eq.worst_violation == shared[1][1].worst_violation

    @pytest.mark.parametrize("case", ["neumann_logistic", "scalar_logistic"])
    def test_links_are_the_chain_of_each_pair(self, case):
        # the lower row above the upper row H breaches L <= H, and fails the
        # march.  U <= H is not a link: row U below row H marches on, and
        # row U above row H, a state no exact march reaches, starts at H's
        # state (the cap) and rises, which fails its own monotonicity guard.
        # Each state is an equilibrium (0, or the positive one half way up
        # the interval), and so a fixed point of the march's step map T(y) =
        # P y + W0 G(y) + W1 G(y) up to the round-off of its weights: no row
        # moves by more than that, and only the links and the cap can fire
        if case == "scalar_logistic":  # u' + u = u (3 - u): equilibria 0 and 2
            gen, f = mv.generators.scalar_generator(1.0), mv.logistic(3.0, 1.0)
            lower, upper = grid([0.0]), grid([4.0])
        else:  # constants with u (1 - 2 u) = 0: 0 and 1/2
            gen, f = mv.build_laplacian_1d(8, "neumann"), mv.logistic(1.0, 2.0)
            lower, upper = grid(np.zeros(8)), grid(np.ones(8))
        prob = mv.ProblemSpec(gen, f, mv.OrderInterval(lower, upper), horizon=0.1, dt=0.02)
        zero, half = lower.values, 0.5 * upper.values
        assert prob.equilibrium_residual(grid(half)) <= 1e-15

        def march_from(rows):
            march = mv.monotone._March(prob, lower, (lower, upper), 1e-9)
            march.y = np.array(rows)
            march.y_prev, march.c_prev = march.y.copy(), march._constant(march.y)
            march.advance(2)
            return march

        march = march_from([zero, zero, half])
        assert march.q is not None and max(march.worst_violation) <= march.slack
        for rows in ([zero, half, zero], [half, half, zero]):
            with pytest.raises(NumericalError, match="sandwich"):
                march_from(rows)

    @pytest.mark.parametrize("case", ["neumann_logistic", "scalar_logistic"])
    def test_a_clamp_overflow_fails_the_whole_march(self, case, monkeypatch):
        # row L starts on the lower bound, a strict sub-solution, and rises;
        # row U starts on the upper bound, a strict super-solution, and row
        # H 1e-3 above it, where its first evaluation is clamped, and both
        # fall.  Only pair (L, H) clamps, and the whole march fails
        if case == "scalar_logistic":  # u' + u = u (3 - u) on [1/2, 4]
            gen, f = mv.generators.scalar_generator(1.0), mv.logistic(3.0, 1.0)
            lower, upper = grid([0.5]), grid([4.0])
        else:  # u' + A u = u (1 - 2 u) on [0.1, 1], Neumann n = 8
            gen, f = mv.build_laplacian_1d(8, "neumann"), mv.logistic(1.0, 2.0)
            lower, upper = grid(np.full(8, 0.1)), grid(np.ones(8))
        prob = mv.ProblemSpec(gen, f, mv.OrderInterval(lower, upper), horizon=0.1, dt=5e-3)
        march = mv.monotone._March(prob, lower, (lower, upper), 1e-9)
        march.y = np.array([lower.values, upper.values, upper.values + 1e-3])
        march.y_prev, march.c_prev = march.y.copy(), march._constant(march.y)
        monkeypatch.setattr(mv.monotone, "MAX_CLAMP_FRACTION", 0.0)
        with pytest.raises(NumericalError, match="left the order interval"):
            march.advance(2)

    @pytest.mark.parametrize("case", ["dirichlet_logistic", "scalar_logistic"])
    def test_a_failed_window_fails_as_a_whole(self, problems, case, monkeypatch):
        # delta = 0 starts the rising row U at its own state, below the
        # step's solution, so pair (L, U) breaches and fails the three-row
        # window.  The window is not memoized, and the equilibria march
        # then marches rows L and H alone, as a run without `iterate` does
        if case == "scalar_logistic":  # u' + u = u (3 - u), from 1/2 and 4
            itv = mv.OrderInterval(grid([0.5]), grid([4.0]))
            prob = mv.ProblemSpec(mv.generators.scalar_generator(1.0), mv.logistic(3.0, 1.0),
                                  itv, horizon=1.0, dt=5e-3)
        else:
            prob = fresh(problems[case])

        def outputs(p):
            eq = mv.asymptotic_equilibria(p, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
            arrays = [eq.U_min.states, eq.U_max.states, eq.u_star.values,
                      eq.u_upper_star.values, eq.report.distances_lower,
                      eq.report.distances_upper, eq.report.sandwich_violations]
            return [a.tobytes() for a in arrays], eq.windows, eq.certified

        alone = outputs(fresh(prob))
        monkeypatch.setattr(mv.monotone._March, "_reach", lambda self, drift: 0.0)
        for _ in range(2):  # the second time afresh
            with pytest.raises(NumericalError, match="sandwich"):
                mv.iterate(prob, prob.interval.lower, tol=1e-9)
        assert prob._first_windows == {}
        assert outputs(prob) == alone

    def test_a_solve_leaves_no_cyclic_garbage(self):
        # the memo refers to no problem: reference counting alone frees a
        # problem with its first window once the caller drops it
        scens = [
            mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0),
            mv.build_competition(mv.build_laplacian_1d(10, "neumann"),
                                 mv.build_laplacian_1d(10, "neumann"),
                                 1.0, 1.0, 1.0, 0.1, 0.1, 1.0),
        ]
        gc.collect()
        gc.disable()
        try:
            for scen in scens:
                prob = scen.problem(horizon=1.0, dt=0.02)
                rpt = mv.iterate(prob, scen.interval.lower, tol=1e-9)
                mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
                assert mv.certify_sandwich(rpt)[0]
            del prob, rpt
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        # a certified pair is extremal by proof: the Newton cross-check is
        # skipped
        assert eq.certified == (True, True)
        assert eq.newton_equilibria == [] and eq.extremal_violation == 0.0

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

    def test_horizon_cap_flags(self, monkeypatch):
        monkeypatch.setattr(mv.monotone, "MAX_WINDOWS", 1)
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        prob = stall_problem(scen, horizon=0.5, dt=0.01)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-12, tol_res=1e-8)
        assert not eq.horizon_converged and len(eq.windows) == 1

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

    gen = mv.add_potential(mv.build_laplacian_1d(5, "neumann"), np.ones(5))
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
        gen = mv.add_potential(mv.build_laplacian_1d(5, "neumann"), np.ones(5))
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
    # both ends uncertified, and each reports its polished, not its raw, state
    assert eq.certified == (False, False)
    assert not np.array_equal(eq.u_star.values, eq.U_min.terminal().values)
    assert not np.array_equal(eq.u_upper_star.values, eq.U_max.terminal().values)


def test_unordered_extremal_equilibria_are_refused(monkeypatch):
    # a certificate that returns the far bound of each end: u_* is the
    # upper bound and u^* the lower one, which lies below it
    scen = mv.build_logistic(mv.build_laplacian_1d(8, "dirichlet"), 15.0, 1.0)
    prob = scen.problem(horizon=1.0, dt=0.05)
    itv = prob.interval
    assert np.all(itv.lower.values > 0.0)  # no bound certifies before the march
    far = {1: itv.upper.values, -1: itv.lower.values}
    monkeypatch.setattr(mv.monotone, "_certify_extremal",
                        lambda problem, state, side, *args: (far[side], 0.0))
    with pytest.raises(NumericalError, match="not ordered"):
        mv.asymptotic_equilibria(prob)


def sweep_oracle(prob, u0, u0_upper, tol, max_iter=2000):
    """The global two-sided Picard iteration the march replaced: every sweep
    maps whole trajectories through mv.picard_step, from the constant
    trajectories at the interval bounds, until both sup-distances drop
    below tol.  Returns the (lower, upper) limits."""
    itv = prob.interval
    lower = constant_trajectory(itv.lower, prob.horizon, prob.dt)
    upper = constant_trajectory(itv.upper, prob.horizon, prob.dt)
    for _ in range(max_iter):
        lower_next = mv.picard_step(prob, u0, lower)
        upper_next = mv.picard_step(prob, u0_upper, upper)
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
        # both branches must leave the equilibrium, and each follows the
        # closed-form branch -+(1 - e^{-t/2})^2, 0.603527 at t = 3, to the
        # trapezoid rule's O(dt^2) (6e-6 at dt 0.01)
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        rpt = mv.iterate(scen.problem(horizon=3.0, dt=0.01), grid([0.0]), tol=1e-9)
        exact = (1.0 - math.exp(-1.5)) ** 2
        assert rpt.u_min.states[-1, 0] == pytest.approx(-exact, abs=2e-5)
        assert rpt.u_max.states[-1, 0] == pytest.approx(exact, abs=2e-5)

    def test_second_order_in_dt(self):
        # u_min of a Dirichlet logistic against a Radau solution of the
        # semi-discrete flow du/dt = F(u) - A u at rtol 1e-12: every halving
        # of dt cuts the sup distance about 4x (3.9 and 4.0)
        scen = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
        a, f, u0 = scen.A.matrix, scen.F, scen.interval.lower.values
        nodes = np.linspace(0.0, 1.0, 51)  # the nodes of dt = 0.02
        ref = scipy.integrate.solve_ivp(
            lambda t, u: f.eval_values(u) - a @ u, (0.0, 1.0), u0, method="Radau",
            t_eval=nodes, rtol=1e-12, atol=1e-14, jac=lambda t, u: f.jacobian_matrix(u) - a)
        assert ref.success
        errors = []
        for dt, stride in ((0.02, 1), (0.01, 2), (0.005, 4)):
            rpt = mv.iterate(scen.problem(horizon=1.0, dt=dt), scen.interval.lower, tol=1e-12)
            errors.append(np.max(np.abs(rpt.u_min.states[::stride] - ref.y.T)))
        assert errors[0] >= 3.5 * errors[1] and errors[1] >= 3.5 * errors[2]

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
                advance(march, n_steps)
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
        # a plain two-row march from the bounds: `iterate` from the bounds
        # reads the first window, whose held rows round their GEMMs
        # differently
        ref = _march(prob, itv.lower, itv.upper).report()
        assert np.array_equal(rpt.u_min.states[0], itv.lower.values)
        assert np.array_equal(rpt.u_max.states[0], itv.upper.values)
        assert np.array_equal(rpt.u_min.states, ref.u_min.states)
        assert np.array_equal(rpt.u_max.states, ref.u_max.states)
        with warnings.catch_warnings():  # within the slack: no warning
            warnings.simplefilter("error")
            mv.iterate(prob, grid(itv.lower.values - 0.5 * slack))

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
    def test_flipped_cone_propagators_carry_no_negative_zero(self, bc):
        # A couples no components of opposite cone sign, so P, W0 and W1 are
        # the same in standard coordinates and need no sign fold, which would
        # turn their zero cross blocks into -0.0
        gen = mv.build_laplacian_1d(8, bc, 1.0)
        scen = mv.build_competition(gen, gen, 30.0, 30.0, 1.0, 0.3, 0.3, 1.0)
        assert scen.cone == mv.FLIPPED_CONE
        itv = scen.interval
        prob = scen.problem(horizon=1.0, dt=0.05)
        march = mv.monotone._March(prob, itv.lower, (itv.upper,), 1e-9)
        for weight in (march.p_t, march.w0_t, march.w1_t):
            assert not np.signbit(weight).any()


@pytest.mark.parametrize("case", ["dirichlet_logistic", "scalar"])
class TestInnerIterationCap:
    """A real march stopped by MAX_INNER_ITER, on the block and on the
    dim == 1 path, reports itself unconverged."""

    CAP = 3

    @pytest.fixture
    def prob(self, case, monkeypatch):
        monkeypatch.setattr(mv.monotone, "MAX_INNER_ITER", self.CAP)
        if case == "scalar":
            return mv.build_scalar_nonunique(1.0, 2.0).problem(horizon=0.1, dt=0.01)
        scen = mv.build_logistic(mv.build_laplacian_1d(20, "dirichlet"), 12.0, 2.0)
        return scen.problem(horizon=0.2, dt=0.02)

    def test_iterate_reports_the_cap(self, prob):
        itv = prob.interval
        rpt = mv.iterate(prob, itv.lower, tol=1e-9, u0_upper=itv.upper)
        assert rpt.converged is False and rpt.n_iters == self.CAP

    def test_equilibria_windows_report_the_cap(self, prob, monkeypatch):
        # an unconverged window neither certifies nor stalls
        monkeypatch.setattr(mv.monotone, "MAX_WINDOWS", 2)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert not eq.horizon_converged and eq.certified == (False, False)
        assert [(w["converged"], w["n_iters"]) for w in eq.windows] == [(False, self.CAP)] * 2
        assert eq.report.converged is False and eq.report.n_iters == self.CAP


def _march(prob, u0, u0_upper, tol=1e-9):
    """A march over the problem's whole grid, as `iterate` runs it."""
    march = mv.monotone._March(prob, u0, (u0_upper,), tol)
    march.advance(mv.mild.time_grid(prob.horizon, prob.dt).size - 1)
    return march


class TestContractionStart:
    """The contraction bound q of the step map, and the start it gives a row
    that moved against its side: Y -+ D / (1 - q) instead of its bound."""

    CASES = ["logistic_dirichlet", "logistic_neumann", "logistic_robin", "fisher",
             "flipped_competition"]

    @pytest.fixture(scope="class")
    def problems(self):
        fisher = {"alpha": 0.5, "m": {"profile": "sin", "amplitude": 8.0, "frequency": 1.0}}
        gen = mv.build_laplacian_1d(10, "neumann")
        scens = {
            f"logistic_{bc}": mv.build_logistic(mv.build_laplacian_1d(20, bc, 1.0), 12.0, 2.0)
            for bc in ("dirichlet", "neumann", "robin")
        }
        scens["fisher"] = mv.build_from_config("fisher", fisher, 20, "neumann")
        scens["flipped_competition"] = mv.build_competition(gen, gen, 1.0, 1.0, 1.0, 0.1,
                                                            0.1, 1.0)
        assert scens["flipped_competition"].cone == mv.FLIPPED_CONE
        return {name: scen.problem(horizon=1.0, dt=0.02) for name, scen in scens.items()}

    @pytest.mark.parametrize("case", CASES)
    def test_bound_holds_on_random_pairs(self, problems, case, rng):
        # |W1 (G(x) - G(y))|_inf <= q |x - y|_inf in standard coordinates, on
        # independent pairs and on close ordered pairs near the lower bound,
        # where the logistic slope is largest and the bound nearly tight
        itv = problems[case].interval
        march = mv.monotone._March(problems[case], itv.lower, (itv.upper,), 1e-9)
        q, lo, width = march.q, march.lo, march.hi - march.lo
        assert q is not None and 0.0 < q < 1.0
        x, y = (lo + rng.uniform(size=(200, lo.size)) * width for _ in range(2))
        near = lo + rng.uniform(size=(200, 1)) * 1e-3 * width
        pairs = [(x, y), (near, near + rng.uniform(size=(200, 1)) * 1e-3 * width)]
        ratios = []
        for a, b in pairs:
            lhs = np.abs((march.g(a) - march.g(b)) @ march.w1_t).max(axis=1)
            ratios.append(lhs / np.abs(a - b).max(axis=1))
        assert np.max(ratios) <= q
        assert np.max(ratios[1]) >= 0.5 * q  # and far from vacuous

    def test_signed_sqrt_gets_no_bound(self):
        # the slope is unbounded at 0, so the rows from 0 restart at their
        # bounds and stay apart: the maximal and minimal branches
        prob = mv.build_scalar_nonunique(1.0, 2.0).problem(horizon=1.0, dt=0.01)
        rpt = mv.iterate(prob, grid([0.0]), tol=1e-9)
        assert rpt.contraction_bound is None
        assert rpt.u_max.states[-1, 0] - rpt.u_min.states[-1, 0] > 0.3

    @pytest.mark.parametrize("case", ["logistic_dirichlet", "scalar_logistic"])
    def test_start_below_the_step_solution_breaches(self, problems, case, monkeypatch):
        # delta = 0 starts the rising upper row at its own state, below the
        # step's solution: the first iterate rises, and the guard raises
        if case == "scalar_logistic":
            itv = mv.OrderInterval(grid([0.0]), grid([4.0]))
            prob = mv.ProblemSpec(mv.generators.scalar_generator(1.0), mv.logistic(3.0, 1.0),
                                  itv, horizon=1.0, dt=5e-3)
            u0 = grid([0.5])
        else:
            prob = problems[case]
            u0 = prob.interval.lower
        assert mv.iterate(prob, u0, tol=1e-9).converged
        monkeypatch.setattr(mv.monotone._March, "_reach", lambda self, drift: 0.0)
        with pytest.raises(NumericalError, match="sandwich"):
            mv.iterate(fresh(prob), u0, tol=1e-9)

    @pytest.mark.parametrize("case", CASES)
    def test_equilibria_march_is_unchanged(self, problems, case, monkeypatch):
        # its rows start at the bounds and never move against their side
        def outputs():
            eq = mv.asymptotic_equilibria(fresh(problems[case]), tol=1e-9, tol_eq=1e-8,
                                          tol_res=1e-8)
            rpt = eq.report
            arrays = [eq.U_min.states, eq.U_max.states, eq.u_star.values,
                      eq.u_upper_star.values, rpt.distances_lower, rpt.distances_upper,
                      rpt.sandwich_violations]
            return [a.tobytes() for a in arrays], rpt.contraction_bound

        def unused(march, drift):
            raise AssertionError("the start rule fired")

        with_rule, q = outputs()
        assert q is not None
        # the rule off, with q and the accelerated step kept
        monkeypatch.setattr(mv.monotone._March, "_reach", unused)
        without_rule, q = outputs()
        assert q is not None and with_rule == without_rule

    def test_rising_upper_row_on_the_sweep_config(self, monkeypatch):
        # the seed-1 `sweep` Dirichlet config from u0 = lower: the upper row
        # took 1200 inner iterations restarting from the upper bound, 379
        # from the contraction start
        cfg = workloads.configs("sweep", workloads.DEFAULT_SEED)[0]
        assert cfg["bc"] == "dirichlet"
        scen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg["n"], cfg["bc"])
        prob = scen.problem(horizon=cfg["T"], dt=cfg["dt"])
        lower = prob.interval.lower
        fast = _march(prob, lower, lower, cfg["tol"])
        # the rule off, with q and the accelerated step kept: the upper row
        # restarts from the upper bound
        monkeypatch.setattr(mv.monotone._March, "_reach", lambda self, drift: np.inf)
        cold = _march(prob, lower, lower, cfg["tol"])
        assert fast.row_iters[1] <= 400 < 1000 < cold.row_iters[1]
        fast_rows, cold_rows = fast.trajectories(), cold.trajectories()
        # the same step solutions, each reached to within tol; the lower
        # row's box ends at the upper row's start, so it moves too
        assert np.max(np.abs(fast_rows[0].states - cold_rows[0].states)) <= 10 * cfg["tol"]
        assert np.max(np.abs(fast_rows[1].states - cold_rows[1].states)) <= 10 * cfg["tol"]
        assert mv.certify_sandwich(fast.report())[0]


def _levels_forced_to_0(patch):
    """Every box of every march takes level 0: the plain step."""
    patch.setattr(mv.monotone._Ladder, "level", lambda self, a, b: 0)


def _rungs_forced_to_0(patch):
    """Every row of every march takes the plain step, level 0's rung, while
    the march still evaluates its box on the accelerated schedule: a march
    that differs from the accelerated one in gamma alone, and a step whose
    box sits on level 0 does the same float operations in both."""
    rung = mv.monotone._Ladder.rung
    patch.setattr(mv.monotone._Ladder, "rung", lambda self, m: rung(self, 0))


def _first_window_rows(prob, tol):
    """Rows L, U and H of the problem's first window as `iterate` reads
    them, and the equilibria."""
    itv = prob.interval
    rising = mv.iterate(prob, itv.lower, tol=tol)
    both = mv.iterate(prob, itv.lower, tol=tol, u0_upper=itv.upper)
    eq = mv.asymptotic_equilibria(prob, tol=tol, tol_eq=1e-8, tol_res=1e-8)
    return [rising.u_min.states, rising.u_max.states, both.u_max.states], eq


class TestAcceleratedStep:
    """The step map T_gamma(z) = c_gamma + W1_gamma (G(z) - gamma z), with
    gamma the level of a box that holds the step's iterates, where q > 1/4
    and dim > 1."""

    @staticmethod
    def _benchmark_problem(workload="sweep", index=0):
        """A seed-1 benchmark config's problem and tol; by default the
        `sweep` Dirichlet config (index 1 is `sweep` Robin)."""
        cfg = workloads.configs(workload, workloads.DEFAULT_SEED)[index]
        scen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg["n"], cfg["bc"],
                                    cfg.get("beta"))
        return scen.problem(horizon=cfg["T"], dt=cfg["dt"]), cfg["tol"]

    def test_the_sweep_first_window_needs_under_60_percent_of_the_inner_iterations(self):
        # rows L, U and H: [444, 437, 448] on the ladder, [828, 785, 873] on
        # the plain step; every row takes the level of the box of L and H
        prob, tol = self._benchmark_problem()
        fast = mv.monotone._first_window(prob, tol, rising=True)
        assert fast.q > mv.monotone.ACCELERATION_Q and max(fast.ladder.rungs) > 0
        with pytest.MonkeyPatch.context() as patch:
            _levels_forced_to_0(patch)
            plain = mv.monotone._first_window(fresh(prob), tol, rising=True)
        assert plain.row_iters == [828, 785, 873]
        assert all(5 * a < 3 * b for a, b in zip(fast.row_iters, plain.row_iters))
        for r in range(3):
            assert np.max(np.abs(fast.states[0][:, r] - plain.states[0][:, r])) <= 10 * tol

    def test_every_level_lies_below_the_slopes_of_its_box(self, monkeypatch, rng):
        # G - gamma id is order-preserving on the box: S (F' + mu) S has
        # its diagonal at or above gamma at every point of the box
        prob, tol = self._benchmark_problem()
        level, boxes = mv.monotone._Ladder.level, []

        def recording(ladder, a, b):
            m = level(ladder, a, b)
            boxes.append((ladder, a.copy(), b.copy(), m))
            return m

        monkeypatch.setattr(mv.monotone._Ladder, "level", recording)
        mv.iterate(prob, prob.interval.lower, tol=tol)
        assert {m for *_, m in boxes} >= {0, 3}
        for ladder, a, b, m in boxes[::7]:
            points = np.minimum(a, b) + rng.uniform(size=(20, a.size)) * np.abs(b - a)
            slopes = [prob.F.jacobian_blocks(u)[0, 0] + ladder.mu for u in points]
            assert np.min(slopes) >= ladder.gammas[m]
            if m < mv.monotone.LADDER_LEVELS - 1:  # the next level is out of reach
                low, _ = prob.F.jacobian_range(np.minimum(a, b), np.maximum(a, b))
                assert np.min(low) + ladder.mu < ladder.gammas[m + 1]

    @staticmethod
    def _march_from(rows):
        """A march of u' + A u = u (1 - 2 u) on [0, 1], Neumann n = 8 and
        dt = 0.2 (q = 0.33), over 5 steps from the given rows (each a
        constant or 8 values), each warm-started at its state."""
        gen, f = mv.build_laplacian_1d(8, "neumann"), mv.logistic(1.0, 2.0)
        lower, upper = grid(np.zeros(8)), grid(np.ones(8))
        prob = mv.ProblemSpec(gen, f, mv.OrderInterval(lower, upper), horizon=1.0, dt=0.2)
        march = mv.monotone._March(prob, lower, (lower,) * (len(rows) - 1), 1e-9)
        march.y = np.array([np.full(8, value) for value in rows])
        march.y_prev, march.c_prev = march.y.copy(), march._constant(march.y)
        march.advance(5)
        assert march.q > mv.monotone.ACCELERATION_Q
        return march

    @pytest.mark.parametrize("workload,index,calls", [("sweep", 0, None), ("sweep", 1, None),
                                                      ("setup", 0, 5)])
    def test_every_step_of_the_first_window_forms_one_level_group(self, monkeypatch,
                                                                  workload, index, calls):
        # every row takes the level of the box of rows L and H: one rung
        # for all three rows, one GEMM per inner iteration, and at most one
        # box evaluation per step.  On setup the box stays on level 0 and is
        # evaluated at steps 2, 4, 8, 16 and 32 only (step 1 takes the
        # interval's level): 5 calls.  Row U never starts above row H
        prob, tol = self._benchmark_problem(workload, index)
        level, rungs, calls_made, steps = (mv.monotone._Ladder.level, mv.monotone._March._rungs,
                                           [], [])

        def counting(ladder, a, b):
            calls_made.append(1)
            return level(ladder, a, b)

        def recording(march, cur, c, step, first):
            # per step: the rows of its rung's step constant, its box
            # evaluations, and whether row U started at or below row H
            before = len(calls_made)
            rung = rungs(march, cur, c, step, first)
            steps.append((rung[2].shape[0], len(calls_made) - before,
                          bool(np.all(cur[2] <= cur[3]))))
            return rung

        monkeypatch.setattr(mv.monotone._Ladder, "level", counting)
        monkeypatch.setattr(mv.monotone._March, "_rungs", recording)
        window = mv.monotone._first_window(prob, tol, rising=True)
        assert window.k == 3 and window.ladder is not None
        assert len(steps) == window.n_steps == 50
        assert all(rows == 3 and evaluations <= 1 and capped
                   for rows, evaluations, capped in steps)
        if calls is not None:
            assert sum(evaluations for _, evaluations, _ in steps) == calls

    @pytest.mark.parametrize("workload,index", [("sweep", 0), ("sweep", 1), ("setup", 0)])
    def test_rows_l_and_h_of_the_three_row_window_are_those_of_the_pair(self, workload,
                                                                        index):
        # the level is that of the box of rows L and H, and neither row
        # reads row U
        prob, tol = self._benchmark_problem(workload, index)
        pair = mv.monotone._first_window(prob, tol)
        window = mv.monotone._first_window(fresh(prob), tol, rising=True)
        assert pair.k == 2 and window.k == 3 and window.ladder is not None
        assert window.states[0][:, [0, 2]].tobytes() == pair.states[0].tobytes()

    @staticmethod
    def _record_iterate_hulls(monkeypatch):
        """Per march, step and row: the box between the starts of rows 0
        and k - 1, the level gamma every row took, and the hull of the
        states the row's reaction term G - gamma id was evaluated on, in
        standard coordinates."""
        rungs, hulls = mv.monotone._March._rungs, {}

        def recording(march, cur, c, step, first):
            w1_t, g, cc = rungs(march, cur, c, step, first)
            gamma = {id(g): gamma for gamma, _, g in march.ladder.rungs.values()}[id(g)]
            low, high = np.minimum(cur[1], cur[march.k]), np.maximum(cur[1], cur[march.k])
            for r in range(march.k):
                hulls[march, step, r] = (low, high, gamma, np.full(low.shape, np.inf),
                                         np.full(low.shape, -np.inf))

            def evaluating(z):
                for r, z_r in enumerate(z):
                    *_, z_min, z_max = hulls[march, step, r]
                    np.minimum(z_min, z_r, out=z_min)
                    np.maximum(z_max, z_r, out=z_max)
                return g(z)

            return w1_t, evaluating, cc

        monkeypatch.setattr(mv.monotone._March, "_rungs", recording)
        return hulls

    @pytest.mark.parametrize("case", [("sweep", 0), ("sweep", 1), ("setup", 0), "U above H"])
    def test_every_inner_iterate_lies_in_a_box_whose_slopes_bound_its_level(self, monkeypatch,
                                                                            case):
        # the premise of the accelerated step's proof, on every step and
        # row of a three-row march: each row's inner iterates stay, up to
        # the slack, inside the box of rows 0 and k - 1, and there the
        # diagonal of S (F' + mu) S lies at or above the gamma every row
        # took.  Row U stays inside through the cap.  "U above H" (rows
        # [0, 0.9, 0]) is a state no exact march reaches: row U starts at
        # row H's state and rises, and its own guard fails the march
        hulls = self._record_iterate_hulls(monkeypatch)
        if case == "U above H":
            with pytest.raises(NumericalError, match="sandwich"):
                self._march_from([0.0, 0.9, 0.0])
            return
        # the seed-1 sweep Dirichlet and Robin configs, and setup
        march = mv.monotone._first_window(*self._benchmark_problem(*case), rising=True)
        assert march.k == 3 and march.ladder is not None
        assert len(hulls) == 3 * march.n_steps
        svec = 1.0 if march.svec is None else march.svec
        for box_lo, box_hi, gamma, z_min, z_max in hulls.values():
            assert np.all(z_min >= box_lo - march.slack) and np.all(z_max <= box_hi + march.slack)
            a, b = svec * z_min, svec * z_max
            low, _ = march.F.jacobian_range(np.minimum(a, b), np.maximum(a, b))
            assert min(float(low[i, i].min()) for i in range(low.shape[0])) + march.mu >= gamma

    def test_repeated_equilibria_marches_are_byte_identical(self, monkeypatch):
        # no proof holds, so the march runs 9 windows of 10 steps.  Rows L
        # and H cross into level 1 at step 10, while their box sits at
        # level 0 and is evaluated only at steps 1, 2, 4, 8, 16, ...: the
        # back-off state at the end of window 1 decides the steps of
        # window 2, and each `select` copy must start from the window's own
        gen = mv.build_laplacian_1d(12, "dirichlet")
        scen = mv.build_competition(gen, gen, 30.0, 30.0, 1.0, 0.3, 0.3, 1.0)
        prob = scen.problem(horizon=0.2, dt=0.02)
        monkeypatch.setattr(mv.monotone, "_certify_extremal", lambda *args: None)

        def outputs():
            eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
            rpt = eq.report
            arrays = [eq.U_min.states, eq.U_max.states, rpt.distances_lower,
                      rpt.distances_upper, rpt.sandwich_violations]
            return [a.tobytes() for a in arrays], eq.windows

        first = outputs()
        window = prob._first_windows[1e-9]
        assert window.q > mv.monotone.ACCELERATION_Q and window.box_level == 0
        assert len(first[1]) >= 2
        assert outputs() == first
        assert window.box_level == 0
        assert outputs() == first

    @pytest.mark.parametrize("case", ["mesh", "fisher", "scalar"])
    def test_small_q_and_one_entry_take_the_plain_step(self, case):
        if case == "scalar":  # dim == 1: the float path
            prob = mv.ProblemSpec(
                mv.generators.scalar_generator(1.0), mv.logistic(3.0, 1.0),
                mv.OrderInterval(grid([0.0]), grid([4.0])), horizon=1.0, dt=0.1)
        else:
            cfg = workloads.configs("mesh" if case == "mesh" else "windows",
                                    workloads.DEFAULT_SEED)[0]
            scen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg["n"], cfg["bc"])
            prob = scen.problem(horizon=cfg["T"], dt=cfg["dt"])
        itv = prob.interval
        march = mv.monotone._March(prob, itv.lower, (itv.upper,), 1e-9)
        assert march.q is not None and march.ladder is None
        assert bool(march.q > mv.monotone.ACCELERATION_Q) is (case == "scalar")

    def test_a_march_bounds_the_interval_once(self, monkeypatch):
        # the contraction bound and the ladder read one bound of
        # S (F' + mu) S over the interval
        prob, tol = self._benchmark_problem()
        original, calls = mv.monotone._slope_bounds, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mv.monotone, "_slope_bounds", counted)
        itv = prob.interval
        march = mv.monotone._March(prob, itv.lower, (itv.upper,), tol)
        assert march.q > mv.monotone.ACCELERATION_Q and march.ladder is not None
        assert len(calls) == 1


@st.composite
def accelerated_configs(draw):
    """A logistic, competition or Fisher config: (scenario, params, n, bc, dt)."""
    kind = draw(st.sampled_from(["logistic", "competition", "fisher"]))
    if kind == "logistic":
        params = {"a": draw(st.floats(4.0, 20.0)), "b": draw(st.floats(0.5, 3.0))}
        n, bc = draw(st.integers(6, 16)), draw(st.sampled_from(["dirichlet", "neumann", "robin"]))
    elif kind == "competition":
        params = {"a1": draw(st.floats(10.0, 35.0)), "a2": draw(st.floats(10.0, 35.0)),
                  "b11": 1.0, "b12": draw(st.floats(0.1, 0.5)),
                  "b21": draw(st.floats(0.1, 0.5)), "b22": 1.0}
        n, bc = draw(st.integers(4, 8)), draw(st.sampled_from(["dirichlet", "neumann"]))
    else:
        params = {"alpha": draw(st.floats(0.2, 0.8)),
                  "m": {"profile": "sin", "amplitude": draw(st.floats(4.0, 40.0)),
                        "frequency": 1.0}}
        n, bc = draw(st.integers(8, 16)), "neumann"
    return kind, params, n, bc, draw(st.floats(0.01, 0.06))


@given(accelerated_configs())
@hypothesis.example(("competition", {"a1": 13.0, "a2": 10.0, "b11": 1.0, "b12": 0.5,
                                     "b21": 0.5, "b22": 1.0}, 4, "dirichlet", 0.015625))
@hypothesis.example(("competition", {"a1": 19.5, "a2": 10.0, "b11": 1.0, "b12": 0.125,
                                     "b21": 0.125, "b22": 1.0}, 5, "dirichlet", 0.0546875))
@settings(max_examples=25, deadline=None)
def test_accelerated_march_agrees_with_the_plain_step(cfg):
    # where q > 1/4, each of rows L, U and H of the first window sits
    # within 20 tol (the bound of TestMarchAgainstSweepOracle) of the step
    # solutions, taken from the plain step run to 1e-13, or no farther from
    # them than the plain step at tol; and the ends certify alike.  Both
    # steps stop on the increment, and the error of that stop grows along
    # an unstable mode: on the near-critical competition a1 = 13, a2 = 10,
    # b12 = b21 = 0.5, n = 4, dt = 1/64, row U sits 82 tol from the step
    # solutions with the plain step and 28 tol with the accelerated one.
    # The plain march keeps the accelerated one's box schedule, so a step
    # whose box sits on level 0 carries the same bits in both.  The second
    # example does not show that the 20 tol bound holds: on the
    # competition a1 = 19.5, a2 = 10, b12 = b21 = 0.125, n = 5,
    # dt = 0.0546875, row U sits 341 tol from the step solutions with the
    # accelerated step and 490 tol with the plain one, 17x and 25x over the
    # bound (the unstable-mode stop error above), and passes only through
    # the plain-step branch of the check.
    kind, params, n, bc, dt = cfg
    scen = mv.build_from_config(kind, params, n, bc, 1.0 if bc == "robin" else None)
    prob, tol = scen.problem(horizon=0.4, dt=dt), 1e-9
    itv = prob.interval
    march = mv.monotone._March(prob, itv.lower, (itv.upper,), tol)
    hypothesis.assume(march.q is not None and march.q > mv.monotone.ACCELERATION_Q)
    fast_rows, fast_eq = _first_window_rows(fresh(prob), tol)
    with pytest.MonkeyPatch.context() as patch:
        _rungs_forced_to_0(patch)
        plain_rows, plain_eq = _first_window_rows(fresh(prob), tol)
    with pytest.MonkeyPatch.context() as patch:
        _levels_forced_to_0(patch)
        exact = mv.monotone._first_window(fresh(prob), 1e-13, rising=True)
    for r, (fast, plain) in enumerate(zip(fast_rows, plain_rows)):
        row = exact._trajectory(exact.states[0], r).states
        assert np.max(np.abs(fast - row)) <= max(20 * tol, np.max(np.abs(plain - row)))
    assert fast_eq.certified == plain_eq.certified


@st.composite
def start_rule_configs(draw):
    """A small logistic, competition or Fisher config: (scenario, params, n,
    bc, dt).  The Fisher weight is a sin at frequency 1, which changes
    sign, or 0.5, where m >= 0 and the interval's lower bound 0 is an
    unstable equilibrium."""
    kind = draw(st.sampled_from(["logistic", "competition", "fisher"]))
    if kind == "logistic":
        params = {"a": draw(st.floats(1.0, 20.0)), "b": draw(st.floats(0.5, 3.0))}
        bc = draw(st.sampled_from(["dirichlet", "neumann", "robin"]))
    elif kind == "competition":
        params = {"a1": draw(st.floats(10.0, 35.0)), "a2": draw(st.floats(10.0, 35.0)),
                  "b11": 1.0, "b12": draw(st.floats(0.1, 0.5)),
                  "b21": draw(st.floats(0.1, 0.5)), "b22": 1.0}
        bc = draw(st.sampled_from(["dirichlet", "neumann"]))
    else:
        params = {"alpha": draw(st.floats(0.2, 0.8)),
                  "m": {"profile": "sin", "amplitude": draw(st.floats(4.0, 20.0)),
                        "frequency": draw(st.sampled_from([0.5, 1.0]))}}
        bc = "neumann"
    return kind, params, draw(st.integers(3, 8)), bc, draw(st.floats(0.01, 0.05))


@given(start_rule_configs())
@hypothesis.example(("fisher", {"alpha": 0.5349847038870532,
                                "m": {"profile": "sin", "amplitude": 5.487300271461031,
                                      "frequency": 0.5}}, 4, "neumann", 0.02))
@settings(max_examples=30, deadline=None)
def test_the_start_rules_hold_on_every_first_window(cfg):
    # the three-row first window over T = 1 never breaches, and wherever q
    # exists row U never starts above row H.  In the example row U sits
    # near 3e-11 above the unstable equilibrium 0 and rises by up to 1e-12
    # a step along its unstable mode, within the slack; a warm start there
    # is no proven super-solution, and would breach the sandwich at step 47
    kind, params, n, bc, dt = cfg
    scen = mv.build_from_config(kind, params, n, bc, 1.0 if bc == "robin" else None)
    prob = scen.problem(horizon=1.0, dt=dt)
    rungs, starts = mv.monotone._March._rungs, []

    def recording(march, cur, c, step, first):
        starts.append(cur[2:4].copy())  # the starts of rows U and H
        return rungs(march, cur, c, step, first)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mv.monotone._March, "_rungs", recording)
        window = mv.monotone._first_window(prob, 1e-9, rising=True)
    assert window.k == 3 and len(starts) == window.n_steps
    if window.q is not None:
        assert all(np.all(u <= h) for u, h in starts)


class NumpySignedSqrt(_SignedSqrt):
    """The signed sqrt through the base class's numpy eval_shifted_scalar;
    `shapes` records the array of every eval_shifted call."""

    eval_shifted_scalar = mv.Nonlinearity.eval_shifted_scalar

    def __init__(self):
        self.shapes = []

    def eval_shifted(self, values, shift):
        self.shapes.append(values.shape)
        return super().eval_shifted(values, shift)


def _scalar_march_outputs(prob, run):
    """Every array the dim == 1 march produces, and its counts."""
    extra = []
    if run == "equilibria":
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8, tol_res=1e-8)
        rpt = eq.report
        extra = [eq.U_min.states, eq.U_max.states, eq.u_star.values, eq.u_upper_star.values]
    elif run == "from_zero":
        rpt = mv.iterate(prob, grid([0.0]), tol=1e-9)
    elif run == "from_inside":  # both rows from the midpoint
        itv = prob.interval
        rpt = mv.iterate(prob, grid(0.5 * (itv.lower.values + itv.upper.values)), tol=1e-9)
    elif run == "from_lower":  # pair (L, U) of the three-row first window
        rpt = mv.iterate(prob, prob.interval.lower, tol=1e-9)
    else:
        rpt = mv.iterate(prob, prob.interval.lower, tol=1e-9, u0_upper=prob.interval.upper)
    out = [
        rpt.u_min.states, rpt.u_max.states, rpt.stored["lower_prev"].states,
        rpt.stored["upper_prev"].states, rpt.distances_lower, rpt.distances_upper,
        rpt.sandwich_violations, *extra,
    ]
    return out, (rpt.n_iters, rpt.clamp_fraction, rpt.converged, rpt.contraction_bound)


class BlockMarch(mv.monotone._March):
    """A march whose dim == 1 rows take the block (numpy) path."""

    _advance_scalar = mv.monotone._March._advance_block


def test_the_cap_on_the_float_path_matches_the_block_path():
    # u' + u = u (3 - u) on [0, 4], all rows at its equilibrium 2, which
    # row U rose into over the last step: it takes the contraction start,
    # above row H's warm start 2, and the cap starts it at row H's.  Both
    # paths then give row U row H's bits
    itv = mv.OrderInterval(grid([0.0]), grid([4.0]))
    prob = mv.ProblemSpec(mv.generators.scalar_generator(1.0), mv.logistic(3.0, 1.0), itv,
                          horizon=1.0, dt=0.05)
    chunks = []
    for march_type in (mv.monotone._March, BlockMarch):
        march = march_type(prob, itv.lower, (itv.lower, itv.upper), 1e-9)
        march.y = np.array([[2.0], [2.0], [2.0]])
        march.y_prev = np.array([[2.0], [2.0 - 1e-3], [2.0]])
        march.c_prev = march._constant(march.y_prev)
        march.advance(3)
        assert march.q is not None
        chunks.append(march.states[-1])
    assert chunks[0].tobytes() == chunks[1].tobytes()
    assert chunks[0][:, 1].tobytes() == chunks[0][:, 2].tobytes()


@pytest.mark.parametrize("cone", ["standard", "reversed"])
@pytest.mark.parametrize(
    "run", ["from_zero", "from_inside", "from_lower", "from_bounds", "equilibria"])
class TestScalarMarch:
    """The dim == 1 march on Python floats against the numpy evaluations."""

    def test_float_path_matches_the_numpy_path(self, cone, run):
        # bit for bit, bytes compared so that the sign of a zero counts
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        itv = scen.interval
        if cone == "reversed":  # one component ordered backwards: g(y) = -F(-y)
            itv = mv.OrderInterval(itv.upper, itv.lower, mv.ConeSpec((-1,)))
        numpy_term = NumpySignedSqrt()
        (floats, counts), (numpy, numpy_counts) = (
            _scalar_march_outputs(mv.ProblemSpec(scen.A, f, itv, horizon=1.0, dt=5e-3), run)
            for f in (mv.signed_sqrt(), numpy_term)
        )
        # the numpy run marched through eval_shifted, one state per call
        assert (1, 1) in numpy_term.shapes
        assert counts[2] and counts == numpy_counts
        assert [a.tobytes() for a in floats] == [a.tobytes() for a in numpy]

    def test_float_path_matches_the_block_path(self, cone, run, monkeypatch):
        # the signed sqrt is odd and cannot show a wrong cone sign, logistic
        # can; the block path adds p*y to 0.0 in a matmul, so its zeros may
        # carry the other sign, which array_equal ignores.  From the
        # midpoint 2 both rows rise toward 3: the upper row (the lower one
        # on the reversed cone) moves against its side, and the start rule
        # of the contraction bound fires on both paths.  From the lower
        # bound, row U of the three-row first window rises against its side
        # and fires it too, as it does in a pair (L, U) alone; rows L and H
        # never do
        reach, drifts = mv.monotone._March._reach, []

        def recording(march, drift):
            drifts.append(drift)
            return reach(march, drift)

        monkeypatch.setattr(mv.monotone._March, "_reach", recording)
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
        float_drifts = drifts[:]
        monkeypatch.setattr(mv.monotone, "_March", BlockMarch)
        drifts.clear()
        block, block_counts = _scalar_march_outputs(fresh(prob), run)
        assert counts[2] and counts == block_counts and counts[3] is not None
        assert all(np.array_equal(a, b) for a, b in zip(floats, block))
        assert float_drifts == drifts
        if run == "from_inside":
            assert drifts
        elif run == "from_lower":  # only row U fires
            drifts.clear()
            _march(prob, prob.interval.lower, prob.interval.lower)
            assert drifts and float_drifts == drifts
        elif run != "from_zero":  # rows from the bounds never move against their side
            assert not drifts


def _scalar_benchmark_problem():
    """The scalar config of the `windows` workload at the default seed:
    (config, scenario, problem)."""
    (cfg,) = [c for c in workloads.configs("windows", workloads.DEFAULT_SEED)
              if c["scenario"] == "scalar-nonunique"]
    scen = mv.build_from_config(cfg["scenario"], cfg["params"], 1, "scalar")
    return cfg, scen, scen.problem(horizon=cfg["T"], dt=cfg["dt"])


@pytest.mark.parametrize("u0", ["lower", "upper"])
def test_the_scalar_benchmark_config_takes_the_float_path(monkeypatch, u0):
    # TestScalarMarch shows the block path giving the float path's outputs,
    # but on the scalar benchmark config it runs about 7x slower: only the
    # dispatch in `_March.advance` keeps a dim == 1 march off it.  From the
    # lower bound the first window marches three rows, and the equilibria
    # march, certified at window 1, reads it; from the upper bound every
    # march has two
    cfg, scen, prob = _scalar_benchmark_problem()
    taken = []
    for name in ("_advance_block", "_advance_scalar"):
        def recording(march, out, pen, name=name, kernel=getattr(mv.monotone._March, name)):
            taken.append((name, march.y.shape[1], march.k))
            return kernel(march, out, pen)

        monkeypatch.setattr(mv.monotone._March, name, recording)
    # the calls of `mevolve run` and the benchmark's solve
    mv.iterate(prob, getattr(scen.interval, u0), tol=cfg["tol"])
    mv.asymptotic_equilibria(prob, tol=cfg["tol"], tol_eq=cfg["tol_eq"],
                             tol_res=cfg["tol_res"], seed=cfg["seed"])
    assert taken and {name for name, _, _ in taken} == {"_advance_scalar"}
    assert {dim for _, dim, _ in taken} == {1}
    assert {k for _, _, k in taken} == ({3} if u0 == "lower" else {2})


def test_the_scalar_march_evaluates_each_running_row_once(monkeypatch):
    # the three-row first window from the lower bound evaluates the reaction
    # term once per row per step for the step constant, and once per inner
    # iteration of a row while that row runs: rows L, U and H take 3000,
    # 4000 and 3000 inner iterations over 1000 steps
    cfg, scen, prob = _scalar_benchmark_problem()
    calls = []
    scalar = _SignedSqrt.eval_shifted_scalar

    def counting(f, x, shift):
        calls.append(x)
        return scalar(f, x, shift)

    monkeypatch.setattr(_SignedSqrt, "eval_shifted_scalar", counting)
    mv.iterate(prob, scen.interval.lower, tol=cfg["tol"])
    march = prob._first_windows[cfg["tol"]]
    assert march.k == 3
    assert len(calls) == sum(march.row_iters) + march.k * march.n_steps == 13000


@given(
    arrays(float, st.integers(2, 8), elements=st.floats(-1e6, 1e6)),
    st.floats(0.0, 1e3),
    st.floats(-10.0, -0.01),
)
@settings(max_examples=100, deadline=None)
def test_default_eval_shifted_is_exact_for_a_custom_term(values, shift, c):
    # the base class adds the shift to eval_values
    f = LinearDecay(c)
    expected = c * values + shift * values
    assert np.array_equal(f.eval_shifted(values, shift), expected)
    # the base class's eval_shifted_scalar goes through eval_shifted
    scalar = f.eval_shifted_scalar(values[0], shift)
    assert type(scalar) is float
    assert np.array(scalar).tobytes() == expected[:1].tobytes()


def _dense_newton_matrix(prob, v):
    return prob.A.matrix - prob.F.jacobian_matrix(v)


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
    box = mv.OrderInterval(grid(np.zeros(7)), grid(4.0 * np.ones(7)))
    cases["dense_generator"] = mv.ProblemSpec(
        mv.GeneratorSpec(dense_generator_matrix(), 1.0, "dense"), mv.logistic(2.0, 1.0), box
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
        x, ok = mv.monotone.linearized_solve(prob, v, rhs)
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
        _, ok = mv.monotone.linearized_solve(prob, start, np.ones(n))
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

        def counting(x):
            out = rhs(x)
            residuals.append(mv.monotone_norm(prob.A.matrix @ x - out))
            return out

        object.__setattr__(prob, "rhs", counting)  # ProblemSpec is frozen
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
    call of its own: the oracle of `newton_equilibrium`."""
    a, c = prob.A.matrix, prob.F.components
    nb = prob.A.node_band(c)

    def residual(x):
        return a @ x - prob.rhs(x)

    def newton_step(x, rhs):
        jac = prob.F.jacobian_blocks(x)
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


def _assert_runs_match_the_reference(prob, starts, tol_res=1e-10):
    """newton_equilibrium from each start is bit for bit `_reference_newton`
    from it: the runs' convergence flags."""
    max_iter = mv.monotone.NEWTON_MAX_ITER
    flags = []
    for start in starts:
        run = mv.newton_equilibrium(prob, start, tol_res)
        assert type(run[1]) is float and type(run[2]) is bool
        v, res, ok = _reference_newton(prob, start, tol_res, max_iter)
        assert np.array_equal(run[0], v) and run[1] == res and run[2] == ok
        flags.append(run[2])
    return np.array(flags)


class TestNewtonBatch:
    """Sets of random starts, as the cross-check draws them: each start's
    run is bit for bit the reference run, one banded solve per step."""

    @pytest.mark.parametrize("tol_res", [1e-10, 0.0], ids=["converge", "to_the_floor"])
    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_rows_match_runs_alone(self, newton_problems, case, tol_res):
        prob = newton_problems[case]
        lo, hi = prob.interval.lower.values, prob.interval.upper.values
        rng = np.random.default_rng(11)
        starts = lo + rng.uniform(size=(12, lo.size)) * (hi - lo)
        ok = _assert_runs_match_the_reference(prob, starts, tol_res)
        # a run to the floor converges only where a residual reaches 0
        assert ok.all() or not tol_res

    def test_rows_stopped_by_max_iter(self, newton_problems, monkeypatch):
        prob = newton_problems["logistic_dirichlet"]
        lo, hi = prob.interval.lower.values, prob.interval.upper.values
        starts = lo + np.random.default_rng(5).uniform(size=(8, lo.size)) * (hi - lo)
        for max_iter in (0, 1, 3):
            monkeypatch.setattr(mv.monotone, "NEWTON_MAX_ITER", max_iter)
            _assert_runs_match_the_reference(prob, starts)

    def test_infinite_jacobian_fails_only_its_row(self):
        # signed sqrt has an infinite derivative at 0: the start with an
        # entry exactly 0 fails, and the other starts converge
        n = 6
        box = mv.OrderInterval(grid(-2.0 * np.ones(n)), grid(2.0 * np.ones(n)))
        prob = mv.ProblemSpec(mv.build_laplacian_1d(n, "neumann"), mv.signed_sqrt(), box)
        starts = np.random.default_rng(2).uniform(0.2, 1.8, size=(9, n))
        starts[4, 2] = 0.0
        ok = _assert_runs_match_the_reference(prob, starts)
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
        starts[3] = singular
        ok = _assert_runs_match_the_reference(prob, starts)
        assert not ok[3] and np.delete(ok, 3).all()


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
    monkeypatch.setattr(mv.monotone, "N_NEWTON_STARTS", 0)

    def runs():
        rpt = mv.iterate(prob, itv.lower, u0_upper=itv.upper)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-8)
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
        itv = scen.interval
        # in a cooperative system the flow from each bound ends at the
        # extremal equilibrium on its side
        lower = steady_state(scen.A.matrix, scen.F, itv.lower.values)
        upper = steady_state(scen.A.matrix, scen.F, itv.upper.values)
        assert np.max(np.abs(eq.u_star.values - lower)) <= 1e-8
        assert np.max(np.abs(eq.u_upper_star.values - upper)) <= 1e-8

    def test_certified_stop_shortens_the_march_only(self, cases, monkeypatch):
        scen, horizon, dt = cases["dirichlet_logistic"]
        # no proof holds: the march runs to its stall stop; stripping the
        # term's Jacobian bounds instead would also switch off the
        # accelerated step
        with monkeypatch.context() as patch:
            patch.setattr(mv.monotone, "_certify_extremal", lambda *args: None)
            stalled = mv.asymptotic_equilibria(
                scen.problem(horizon=horizon, dt=dt), tol=1e-9, tol_eq=1e-9, tol_res=1e-8,
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

        def wrong_root(problem, start, tol_res=1e-10):
            if tol_res == 0.0 and np.max(np.abs(start - minimal)) < 0.5 * abs(other - minimal):
                # the certificate's run from the lower row: a genuine
                # equilibrium, but not the minimal one
                v = np.full_like(start, other)
                return v, mv.monotone.monotone_norm(problem.A.matrix @ v - problem.rhs(v)), True
            return original(problem, start, tol_res)

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

    def test_radius_above_tol_eq_is_refused(self, cases):
        # the proof holds only with a radius <= tol_eq: below the radius the
        # same row proves nothing, neither from the row nor after the sweeps
        scen, horizon, dt = cases["dirichlet_logistic"]
        prob = scen.problem(horizon=horizon, dt=dt)
        itv = prob.interval
        march = mv.monotone._March(prob, itv.lower, (itv.upper,), 1e-9)
        march.advance(mv.time_grid(prob.horizon, prob.dt).size - 1)
        for end, side in ((0, 1), (1, -1)):
            state = march._standard(march.y[end])
            cert = mv.monotone._certify_extremal(prob, state, side, 1e-9, march.slack)
            assert cert is not None and 0.0 < cert[1] <= 1e-9
            tight = 0.25 * cert[1]
            assert mv.monotone._certify_extremal(prob, state, side, tight, march.slack) is None

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
        # every seed-1 and seed-2 benchmark config certifies both ends at
        # window 1: through the bound of the mean-value Jacobian (Simpson's
        # rule on three boxes) and, for Fisher, the retry from the swept
        # state; a bound of F' over the one box [x_lo, top] certifies
        # Fisher at window 8 and mesh at window 2, the mean-value bound
        # Fisher at window 4
        for workload in sorted(workloads.WORKLOADS):
            for seed in (workloads.DEFAULT_SEED, workloads.RECHECK_SEED):
                for cfg in workloads.configs(workload, seed):
                    eq = self._run_config(cfg)
                    assert eq.certified == (True, True), (workload, seed)
                    assert len(eq.windows) == 1, (workload, seed)
                    exact = workloads.closed_form(cfg, eq.u_star.values.size)
                    if exact is not None:
                        assert np.max(np.abs(eq.u_star.values - exact[0])) <= 1e-9
                        assert np.max(np.abs(eq.u_upper_star.values - exact[1])) <= 1e-9
        # two configs whose maximal end stays uncertified: competition's
        # (0, 0), unstable and not an interval bound, and Fisher's Neumann
        # bound 1, whose computed residual 0.0 is not taken as a proof
        fisher = {"alpha": 0.5, "m": {"profile": "sin", "amplitude": 8.0, "frequency": 1.0}}
        for cfg in (
            {"scenario": "competition", "bc": "dirichlet", "n": 8,
             "params": {"a1": 5.0, "a2": 30.0, "b11": 1.0, "b12": 0.3, "b21": 0.3,
                        "b22": 1.0}},
            {"scenario": "fisher", "bc": "neumann", "n": 3, "params": fisher},
        ):
            eq = self._run_config(dict(cfg, dt=0.05, T=1.0, seed=1, **workloads.TOL))
            assert eq.certified == (True, False), cfg["scenario"]
            assert eq.certified_radius[1] is None and eq.horizon_converged

    @staticmethod
    def _run_config(cfg):
        """asymptotic_equilibria on a `mevolve run` config, as the CLI calls it."""
        return mv.asymptotic_equilibria(_config_problem(cfg), tol=cfg["tol"],
                                        tol_eq=cfg["tol_eq"], tol_res=cfg["tol_res"],
                                        seed=cfg["seed"])


def _config_problem(cfg):
    """The problem of a `mevolve run` config, as the CLI builds it."""
    scen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg.get("n", 1),
                                cfg.get("bc", "scalar"), cfg.get("beta"))
    return scen.problem(horizon=cfg["T"], dt=cfg["dt"])


class TestCrossCheckGate:
    """The random-start Newton cross-check runs only where an end is
    uncertified: a certified u_* is the least and a certified u^* the
    greatest equilibrium of the interval, which is what the cross-check
    tests."""

    A1_5 = {"scenario": "competition", "bc": "dirichlet", "n": 8, "dt": 0.05, "T": 1.0,
            "seed": 1, "params": {"a1": 5.0, "a2": 30.0, "b11": 1.0, "b12": 0.3,
                                  "b21": 0.3, "b22": 1.0}, **workloads.TOL}

    @staticmethod
    def _solve(cfg, monkeypatch):
        """The config's problem, asymptotic_equilibria on it, the start
        arrays `_cross_starts` drew, and the start of each Newton run the
        cross-check made (a row of a drawn array)."""
        draw, newton = mv.monotone._cross_starts, mv.monotone.newton_equilibrium
        drawn, runs = [], []

        def drawing(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def counting(problem, start, *args, **kwargs):
            if any(np.shares_memory(start, starts) for starts in drawn):
                runs.append(start.copy())
            return newton(problem, start, *args, **kwargs)

        prob = _config_problem(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(mv.monotone, "_cross_starts", drawing)
            patch.setattr(mv.monotone, "newton_equilibrium", counting)
            eq = mv.asymptotic_equilibria(prob, tol=cfg["tol"], tol_eq=cfg["tol_eq"],
                                          tol_res=cfg["tol_res"], seed=cfg["seed"])
        return prob, eq, drawn, runs

    def test_a_certified_pair_runs_no_batch(self, monkeypatch):
        cfg = workloads.configs("mesh", workloads.DEFAULT_SEED)[0]
        _, eq, drawn, runs = self._solve(cfg, monkeypatch)
        assert eq.certified == (True, True) and drawn == [] and runs == []
        assert eq.newton_equilibria == [] and eq.extremal_violation == 0.0

    def test_an_uncertified_end_runs_the_seeded_batch(self, monkeypatch):
        prob, eq, drawn, runs = self._solve(self.A1_5, monkeypatch)
        assert eq.certified == (True, False)
        assert len(drawn) == 1 and len(runs) == mv.monotone.N_NEWTON_STARTS
        seeded = mv.monotone._cross_starts(prob.interval, self.A1_5["seed"])
        assert np.array(runs).tobytes() == seeded.tobytes()
        assert len(eq.newton_equilibria) > 0
        cone, bound = prob.interval.cone, 10 * self.A1_5["tol_eq"]
        for g in eq.newton_equilibria:
            assert mv.order_violation(eq.u_star, g, cone) <= bound
            assert mv.order_violation(g, eq.u_upper_star, cone) <= bound
        assert eq.extremal_violation <= bound

    @pytest.mark.parametrize("workload", ["sweep", "windows", "setup", "mesh"])
    def test_certified_pair_implies_the_cross_check(self, workload, monkeypatch):
        # the heuristic the gate skips, run by hand on every seed-1
        # benchmark config: every converged start inside the interval lies
        # in [u_*, u^*] within 10*tol_eq, so skipping it drops no verdict
        for cfg in workloads.configs(workload, workloads.DEFAULT_SEED):
            prob, eq, _, runs = self._solve(cfg, monkeypatch)
            assert eq.certified == (True, True) and runs == [], workloads.label(cfg)
            itv = prob.interval
            inside = max(100.0 * cfg["tol_res"], order_slack(itv.value_scale(), itv.dim))
            starts = mv.monotone._cross_starts(itv, cfg["seed"])
            assert starts.shape == (mv.monotone.N_NEWTON_STARTS, itv.dim)
            found = 0
            for start in starts:
                v, _, ok = mv.newton_equilibrium(prob, start)
                g = grid(v, itv.components)
                if not ok or max(mv.order_violation(itv.lower, g, itv.cone),
                                 mv.order_violation(g, itv.upper, itv.cone)) > inside:
                    continue
                found += 1
                assert mv.order_violation(eq.u_star, g, itv.cone) <= 10 * cfg["tol_eq"]
                assert mv.order_violation(g, eq.u_upper_star, itv.cone) <= 10 * cfg["tol_eq"]
            assert found > 0, workloads.label(cfg)


def test_window_ends_are_the_marched_time():
    # T = 1 is not a multiple of dt = 0.03: a window marches round(T / dt)
    # = 33 steps, so it ends at 0.99, not at T
    gen = mv.build_laplacian_1d(4, "dirichlet")
    prob = mv.build_competition(gen, gen, 5.0, 30.0, 1.0, 0.3, 0.3, 1.0).problem(
        horizon=1.0, dt=0.03
    )
    eq = mv.asymptotic_equilibria(prob)
    steps = mv.time_grid(prob.horizon, prob.dt).size - 1
    assert steps == 33 and len(eq.windows) > 1
    t_grid = eq.U_min.t_grid
    assert t_grid.size == len(eq.windows) * steps + 1
    for count, window in enumerate(eq.windows, 1):
        assert window["t_end"] == t_grid[count * steps]
    assert eq.horizon == t_grid[-1] == eq.U_max.t_grid[-1]


def _side_box(problem, side):
    """The side signs and the interval [lo, hi] in side coordinates."""
    interval = problem.interval
    sides = side * interval.cone.sign_vector(interval.lower.n_points)
    a, b = sides * interval.lower.values, sides * interval.upper.values
    return sides, np.minimum(a, b), np.maximum(a, b)


def _first_pass(problem, state, side, tol_eq, slack):
    """The certificate's first pass alone, Newton from the row and one
    `_enclose`, as `_certify_extremal` ran before it had a retry."""
    sides, lo, hi = _side_box(problem, side)
    p, rho, _ = mv.newton_equilibrium(problem, state, tol_res=0.0)
    y_p = np.clip(sides * p, lo, hi)
    x_lo = np.minimum(sides * state, y_p) - slack
    radius = mv.monotone._enclose(problem, sides, y_p, x_lo, hi, rho, tol_eq)
    return None if radius is None else (sides * y_p, radius)


def _single_retry(problem, state, side, tol_eq, slack):
    """The certificate as it ran before its retry had stages: the first
    pass, then the same pass once more from the sweeps' last state."""
    cert = _first_pass(problem, state, side, tol_eq, slack)
    if cert is not None:
        return cert
    sides, lo, hi = _side_box(problem, side)
    start = np.clip(sides * state - slack, lo, hi)
    ends = [y for y, last in mv.monotone._sweep(problem, sides, start, lo, hi, tol_eq) if last]
    return _first_pass(problem, sides * ends[0], side, tol_eq, slack) if ends else None


class TestSweptEnd:
    """The certificate's retry: elliptic monotone sweeps from the march's
    row (monotone._sweep), with the proof tried after SWEEP_CHECKPOINTS
    sweeps and at the sweeps' stop."""

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
    def test_every_sweep_stays_on_its_side(self, problems, case):
        prob = problems[case]
        itv = prob.interval
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert eq.certified == (True, True)
        march = mv.monotone._March(prob, itv.lower, (itv.upper,), 1e-9)
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
                # a negative tol_eq never stops on the increment, so the
                # sweeps run on where an iterate repeats
                sweeps = itertools.islice(mv.monotone._sweep(prob, sides, y, lo, hi, -1.0), 30)
                count = 0
                for count, (y, _) in enumerate(sweeps, 1):  # every iterate
                    assert np.all(y <= top), (window, end)
                    assert np.all((lo <= y) & (y <= hi))
                assert count == 30

    @pytest.mark.parametrize("case", [
        "scalar", "neumann_logistic_2", "dirichlet_competition_2", "fisher_neumann",
    ])
    def test_sweep_matches_a_dense_solve(self, problems, case):
        # one banded-LU sweep against the same sweep by a dense solve, on
        # 1 x 1, 2 x 2 tridiagonal, interleaved two-species and n = 24 bands
        if case == "neumann_logistic_2":
            prob = mv.build_logistic(mv.build_laplacian_1d(2, "neumann"), 1.0, 2.0).problem()
        elif case == "dirichlet_competition_2":
            gen = mv.build_laplacian_1d(2, "dirichlet")
            prob = mv.build_competition(gen, gen, 30.0, 30.0, 1.0, 0.3, 0.3, 1.0).problem()
        else:
            prob = problems[case]
        itv = prob.interval
        mu = mv.march_shift(prob)
        a_mu = prob.A.matrix + mu * np.eye(prob.A.dim)
        for side in (1, -1):
            sides = side * itv.cone.sign_vector(itv.lower.n_points)
            a, b = sides * itv.lower.values, sides * itv.upper.values
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            y = lo + 0.25 * (hi - lo)
            ours, _ = next(mv.monotone._sweep(prob, sides, y, lo, hi, 0.0))
            x = np.linalg.solve(a_mu, prob.rhs(sides * y) + mu * (sides * y))
            psi = sides * np.linalg.solve(a_mu, sides)
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
        # Newton from the row falls to a lower equilibrium, so the first
        # pass fails; Newton from the swept state finds u* after 6 sweeps and
        # the proof holds after 12 to 16
        scen = self._fisher(60)
        prob = scen.problem(horizon=1.0, dt=0.02)
        calls = []  # per certificate call: [side, sweeps, Newton runs]
        active = []
        certify, sweep, newton = (
            mv.monotone._certify_extremal, mv.monotone._sweep, mv.monotone.newton_equilibrium
        )

        def counted_certify(problem, state, side, *args):
            calls.append([side, 0, 0])
            active.append(calls[-1])
            try:
                return certify(problem, state, side, *args)
            finally:
                active.pop()

        def counted_sweep(*args):
            for item in sweep(*args):
                active[-1][1] += 1
                yield item

        def counted_newton(*args, **kwargs):
            if active:
                active[-1][2] += 1
            return newton(*args, **kwargs)

        monkeypatch.setattr(mv.monotone, "_certify_extremal", counted_certify)
        monkeypatch.setattr(mv.monotone, "_sweep", counted_sweep)
        monkeypatch.setattr(mv.monotone, "newton_equilibrium", counted_newton)
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        assert eq.certified == (True, True) and len(eq.windows) == 1
        assert all(r <= 1e-9 for r in eq.certified_radius)
        assert sorted(side for side, _, _ in calls) == [-1, 1]  # one call per end
        for side, sweeps, newton_runs in calls:
            assert 0 < sweeps <= 16 and newton_runs <= 2, side
        itv = scen.interval
        lower = steady_state(scen.A.matrix, scen.F, itv.lower.values)
        upper = steady_state(scen.A.matrix, scen.F, itv.upper.values)
        assert np.max(np.abs(eq.u_star.values - lower)) <= 1e-8
        assert np.max(np.abs(eq.u_upper_star.values - upper)) <= 1e-8

    def test_no_certificate_is_lost_to_the_schedule(self):
        # every window-1 end that the single retry from the sweeps' stop
        # certifies also certifies under the schedule, at a point within
        # tol_eq of the single retry's: the last stage is the single retry,
        # and the stages before it only add chances
        competition = {"a1": 30.0, "a2": 30.0, "b11": 1.0, "b12": 0.3, "b21": 0.3, "b22": 1.0}
        params = {
            "logistic": {"a": 15.0, "b": 1.0},
            "competition": competition,
            "fisher": {"alpha": 0.5,
                       "m": {"profile": "sin", "amplitude": 8.0, "frequency": 1.0}},
        }
        cases = [(name, params[name], bc, n) for name in params
                 for bc in ("dirichlet", "neumann", "robin") for n in (2, 3, 8, 20)]
        # a1 below lambda_1: the maximal end (0, 0) is unstable
        cases.append(("competition", dict(competition, a1=5.0), "dirichlet", 8))
        results, retried = {}, 0
        for name, par, bc, n in cases:
            prob = mv.build_from_config(name, par, n, bc, 1.0).problem(horizon=1.0, dt=0.05)
            itv = prob.interval
            march = mv.monotone._March(prob, itv.lower, (itv.upper,), 1e-9)
            march.advance(mv.time_grid(prob.horizon, prob.dt).size - 1)
            for end, side in ((0, 1), (1, -1)):
                key = (name, par["a1"] if name == "competition" else None, bc, n, end)
                state = march._standard(march.y[end])
                ref = _single_retry(prob, state, side, 1e-9, march.slack)
                cert = mv.monotone._certify_extremal(prob, state, side, 1e-9, march.slack)
                results[key] = (ref, cert)
                if ref is not None:
                    assert cert is not None and cert[1] <= 1e-9, key
                    assert np.max(np.abs(cert[0] - ref[0])) <= 1e-9, key
                    retried += _first_pass(prob, state, side, 1e-9, march.slack) is None
        assert retried > 0  # some ends certify only through the retry
        for key in (("competition", 5.0, "dirichlet", 8, 1), ("fisher", None, "neumann", 2, 1),
                    ("fisher", None, "neumann", 3, 1)):
            assert results[key] == (None, None), key

    def test_last_stage_reruns_newton(self, monkeypatch):
        # Newton from the row returns a genuine equilibrium above u*, which no
        # swept state passes, so no stage before the last reruns Newton; the
        # last stage's run from the swept state finds u*, as the single
        # retry did
        prob, minimal, other = TestCertifiedStop._scalar()
        eq = mv.asymptotic_equilibria(prob, tol=1e-9, tol_eq=1e-9, tol_res=1e-8)
        state = eq.U_min.terminal().values
        slack = mv.order.order_slack(prob.interval.value_scale(), prob.interval.dim)
        original = mv.monotone.newton_equilibrium
        starts = []

        def wrong_first(problem, start, tol_res=1e-10):
            starts.append(start)
            if len(starts) == 1:  # the run from the row
                v = np.full_like(start, other)
                return v, mv.monotone.monotone_norm(problem.A.matrix @ v - problem.rhs(v)), True
            return original(problem, start, tol_res)

        monkeypatch.setattr(mv.monotone, "newton_equilibrium", wrong_first)
        cert = mv.monotone._certify_extremal(prob, state, 1, 1e-9, slack)
        assert cert is not None and cert[1] <= 1e-9
        assert np.max(np.abs(cert[0] - minimal)) <= 1e-9
        assert len(starts) == 2

    def test_first_pass_result_is_unchanged_where_it_certifies(self, monkeypatch):
        # the mesh benchmark config: the retry never runs, and (p, radius)
        # is bit for bit what the first pass alone gives
        mesh = mv.build_logistic(mv.build_laplacian_1d(160, "neumann"), 1.0, 2.0)
        prob = mesh.problem(horizon=0.2, dt=0.02)
        itv = prob.interval
        march = mv.monotone._March(prob, itv.lower, (itv.upper,), 1e-9)
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

    def test_problem_refuses_a_coupling_against_the_cone(self):
        # A couples the two components, whose cone signs differ: T A T has
        # positive off-diagonal entries, so neither the propagators nor the
        # sweep would preserve the order, and the problem is refused
        gen = mv.build_laplacian_1d(4, "dirichlet")
        a = scipy.linalg.block_diag(gen.matrix, gen.matrix)
        a[0, 4] = a[4, 0] = -1.0
        coupled = mv.GeneratorSpec(a, gen.mesh_h, gen.bc)
        f = mv.competition(30.0, 30.0, 1.0, 0.3, 0.3, 1.0)
        lower = grid(np.concatenate([np.zeros(4), 60.0 * np.ones(4)]), 2)
        upper = grid(np.concatenate([60.0 * np.ones(4), np.zeros(4)]), 2)
        itv = mv.OrderInterval(lower, upper, mv.ConeSpec((1, -1)))
        with pytest.raises(ValidationError, match="opposite cone sign"):
            mv.ProblemSpec(coupled, f, itv)
        # the same coupling between components of one cone sign is allowed
        same = mv.OrderInterval(grid(np.zeros(8), 2), upper, mv.ConeSpec((1, 1)))
        mv.ProblemSpec(coupled, f, same)
        # block-diagonal A: the sweep runs
        ok = mv.ProblemSpec(mv.block_generator([gen, gen]), f, itv)
        sides = itv.cone.sign_vector(4).astype(float)
        lo = np.minimum(sides * lower.values, sides * upper.values)
        hi = np.maximum(sides * lower.values, sides * upper.values)
        swept = next(mv.monotone._sweep(ok, sides, lo, lo, hi, 1e-9), None)
        assert swept is not None
        assert np.all((lo <= swept[0]) & (swept[0] <= hi))


class TestMMatrixKernel:
    """`_m_matrix`, the one M-matrix test that the certificate's proof
    (`_enclose`) and its sweeps (`_sweep`) share: a banded solve of
    M psi = 1, psi > 0 and kappa = min(M psi) >= 1/2."""

    @pytest.fixture(scope="class")
    def prob(self):
        scen = mv.build_logistic(mv.build_laplacian_1d(8, "dirichlet"), 15.0, 1.0)
        return scen.problem(horizon=1.0, dt=0.05)

    @staticmethod
    def _diagonal(prob, value):
        """The node-local blocks J = value * I."""
        return np.full((1, 1, prob.A.dim), value)

    def test_a_plus_mu_passes_with_kappa_one(self, prob):
        mu = mv.march_shift(prob)
        assert mu > 0.0
        sides = np.ones(prob.A.dim)
        psi, kappa = mv.monotone._m_matrix(prob, sides, self._diagonal(prob, -mu))
        assert np.all(psi > 0.0) and abs(kappa - 1.0) <= 1e-12
        ref = np.linalg.solve(prob.A.matrix + mu * np.eye(prob.A.dim), sides)
        assert np.max(np.abs(psi - ref)) <= 1e-12 * np.max(ref)

    def test_a_shift_past_lambda_1_is_refused_by_psi(self, prob):
        # A - (lambda_1 + 1) is nonsingular and solves M psi = 1 to round-off,
        # so kappa is 1: only psi > 0 refuses it
        shift = prob.A.min_eigenvalue() + 1.0
        a_shifted = prob.A.matrix - shift * np.eye(prob.A.dim)
        ref = np.linalg.solve(a_shifted, np.ones(prob.A.dim))
        assert np.any(ref <= 0.0) and abs(np.min(a_shifted @ ref) - 1.0) <= 1e-9
        sides = np.ones(prob.A.dim)
        assert mv.monotone._m_matrix(prob, sides, self._diagonal(prob, shift)) is None

    def test_an_inaccurate_solve_is_refused_by_kappa(self, prob, monkeypatch):
        # 0.3 psi is still positive, but M (0.3 psi) = 0.3 < 1/2
        solve = mv.monotone._banded_solve

        def inaccurate(*args):
            x, ok = solve(*args)
            return 0.3 * x, ok

        monkeypatch.setattr(mv.monotone, "_banded_solve", inaccurate)
        mu = mv.march_shift(prob)
        sides = np.ones(prob.A.dim)
        assert mv.monotone._m_matrix(prob, sides, self._diagonal(prob, -mu)) is None

    def test_a_failed_solve_is_refused(self, prob, monkeypatch):
        # the exact solution, flagged as failed
        solve = mv.monotone._banded_solve

        def failed(*args):
            x, ok = solve(*args)
            return x, np.zeros_like(ok)

        monkeypatch.setattr(mv.monotone, "_banded_solve", failed)
        mu = mv.march_shift(prob)
        sides = np.ones(prob.A.dim)
        assert mv.monotone._m_matrix(prob, sides, self._diagonal(prob, -mu)) is None

    def test_the_proof_and_the_sweeps_stop_on_a_refusal(self, prob, monkeypatch):
        itv = prob.interval
        march = mv.monotone._March(prob, itv.lower, (itv.upper,), 1e-9)
        march.advance(mv.time_grid(prob.horizon, prob.dt).size - 1)
        state = march._standard(march.y[0])
        sides, lo, hi = _side_box(prob, 1)
        start = np.clip(sides * state - march.slack, lo, hi)

        def outcomes():
            cert = _first_pass(prob, state, 1, 1e-9, march.slack)
            return cert, list(mv.monotone._sweep(prob, sides, start, lo, hi, 1e-9))

        cert, sweeps = outcomes()
        assert cert is not None and sweeps
        monkeypatch.setattr(mv.monotone, "_m_matrix", lambda *args: None)
        assert outcomes() == (None, [])

    @pytest.mark.parametrize("fault", ["failed_solve", "overflow"])
    def test_the_sweeps_stop_on_a_failed_sweep(self, prob, monkeypatch, fault):
        # after _m_matrix's solve, each sweep's solve returns its exact
        # solution flagged as failed, or its residual bound overflows: the
        # sweeps end without a state, where they run from the lower bound
        # otherwise
        sides, lo, hi = _side_box(prob, 1)

        def sweeps():
            return list(mv.monotone._sweep(prob, sides, lo, lo, hi, 1e-9))

        assert sweeps()
        if fault == "failed_solve":
            solve, calls = mv.monotone._banded_solve, []

            def failing(*args):
                x, ok = solve(*args)
                calls.append(ok)
                return x, ok and len(calls) == 1

            monkeypatch.setattr(mv.monotone, "_banded_solve", failing)
            assert sweeps() == [] and len(calls) == 2 and all(calls)
        else:
            monkeypatch.setattr(mv.monotone, "defect_slack", lambda *args: np.inf)
            assert sweeps() == []
