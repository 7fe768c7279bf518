"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Golden runs are shared through session fixtures; the timed
criteria measure their own engine work.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate

import mevolve as mv
from mevolve.generators import mesh_nodes
from mevolve.monotone import time_monotonicity_violation

from conftest import grid


def announce(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared golden runs --------------------------------------------------------


@pytest.fixture(scope="module")
def scalar_golden():
    scen = mv.build_scalar_nonunique(1.0, 2.0)
    t0 = time.perf_counter()
    prob = scen.problem(horizon=10.0, dt=1e-3)
    rpt = mv.iterate(prob, grid([0.0]), tol=1e-10)
    u_min_env, u_max_env, rep_env = mv.extremal_trajectories(prob, tol=1e-10)
    elapsed = time.perf_counter() - t0
    eq = mv.asymptotic_equilibria(
        scen.problem(horizon=8.0, dt=0.01), tol=1e-10, tol_eq=1e-7, tol_res=1e-8
    )
    return {
        "scen": scen, "prob": prob, "rpt": rpt, "elapsed": elapsed,
        "U_min": u_min_env, "U_max": u_max_env,
        "rep_env": rep_env, "eq": eq,
    }


@pytest.fixture(scope="module")
def neumann_golden():
    t0 = time.perf_counter()
    scen = mv.build_logistic(mv.build_laplacian_1d(50, "neumann"), 1.0, 2.0)
    eq = mv.asymptotic_equilibria(
        scen.problem(horizon=4.0, dt=0.02), tol=1e-9, tol_eq=1e-8, tol_res=1e-8
    )
    return {"scen": scen, "eq": eq, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def dirichlet_golden():
    scen = mv.build_logistic(mv.build_laplacian_1d(40, "dirichlet"), 12.0, 2.0)
    eq = mv.asymptotic_equilibria(
        scen.problem(horizon=2.0, dt=0.02), tol=1e-9, tol_eq=1e-8, tol_res=1e-8
    )
    return {"scen": scen, "eq": eq}


@pytest.fixture(scope="module")
def competition_golden():
    t0 = time.perf_counter()
    scen = mv.build_competition(
        mv.build_laplacian_1d(50, "neumann"), mv.build_laplacian_1d(50, "neumann"),
        1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
    )
    eq = mv.asymptotic_equilibria(
        scen.problem(horizon=4.0, dt=0.02), tol=1e-10, tol_eq=1e-9, tol_res=1e-9
    )
    return {"scen": scen, "eq": eq, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def fisher_golden():
    gen = mv.build_laplacian_1d(60, "neumann")
    x = mesh_nodes(gen)
    scen = mv.build_fisher(gen, 8.0 * np.sin(2.0 * np.pi * x), 0.5)
    eq = mv.asymptotic_equilibria(
        scen.problem(horizon=8.0, dt=0.05), tol=1e-9, tol_eq=1e-7, tol_res=1e-8
    )
    return {"scen": scen, "gen": gen, "eq": eq}


def closed_branch(t):
    return (1.0 - np.exp(-0.5 * np.asarray(t))) ** 2


def test_criterion_1_scalar_closed_forms(scalar_golden):
    rpt = scalar_golden["rpt"]
    t = rpt.u_max.t_grid
    err_branch = max(
        np.max(np.abs(rpt.u_max.states[:, 0] - closed_branch(t))),
        np.max(np.abs(rpt.u_min.states[:, 0] + closed_branch(t))),
    )

    # oracle for the envelopes: adaptive integration started at +/-M
    sol = scipy.integrate.solve_ivp(
        lambda _, y: np.sign(y) * np.sqrt(np.abs(y)) - y,
        (0.0, 10.0), [2.0], rtol=1e-10, atol=1e-10, dense_output=True,
    )
    sample = slice(None, None, 100)
    oracle = sol.sol(t[sample])[0]
    err_env = max(
        np.max(np.abs(scalar_golden["U_max"].states[sample, 0] - oracle)),
        np.max(np.abs(scalar_golden["U_min"].states[sample, 0] + oracle)),
    )
    # the re-derived start-time constant agrees with the integrator
    closed_env = scalar_golden["scen"].oracles["U_max"](t[sample])
    assert np.max(np.abs(closed_env - oracle)) <= 1e-8

    elapsed = scalar_golden["elapsed"]
    ok = err_branch <= 5e-3 and err_env <= 5e-3 and elapsed < 5.0
    announce(
        1, ok,
        f"branch error {err_branch:.2e}, envelope error {err_env:.2e} "
        f"(tol 5e-3), runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_scalar_equilibria(scalar_golden):
    eq = scalar_golden["eq"]
    err = max(
        abs(eq.u_upper_star.values[0] - 1.0), abs(eq.u_star.values[0] + 1.0)
    )
    ok = err <= 1e-4 and max(eq.residuals) <= 1e-8 and eq.horizon_converged
    announce(
        2, ok,
        f"u* = {eq.u_upper_star.values[0]:+.6f}, u_* = {eq.u_star.values[0]:+.6f} "
        f"(err {err:.2e} <= 1e-4), residuals {max(eq.residuals):.2e} <= 1e-8",
    )


def test_criterion_3_non_uniqueness_detected(scalar_golden):
    scen, rpt = scalar_golden["scen"], scalar_golden["rpt"]
    # the upper bound of F' over the interval's box, which holds 0
    _, slope = scen.F.jacobian_range(scen.interval.lower.values, scen.interval.upper.values)
    unbounded = bool(math.isinf(np.max(slope)))
    k5 = int(round(5.0 / rpt.u_min.dt))
    gap = abs(rpt.u_max.states[k5, 0] - rpt.u_min.states[k5, 0])
    ok = unbounded and gap > 0.5 and not rpt.unique_flag
    announce(
        3, ok,
        f"Lipschitz certificate unbounded at 0: {unbounded}, "
        f"gap at T=5 is {gap:.3f} > 0.5",
    )


def test_criterion_4_sandwich_invariant(
    scalar_golden, neumann_golden, dirichlet_golden, competition_golden, fisher_golden
):
    worst = {}
    worst["scalar"] = max(
        scalar_golden["rpt"].worst_violation,
        scalar_golden["rep_env"].worst_violation,
        scalar_golden["eq"].worst_violation,
    )
    worst["logistic-neumann"] = neumann_golden["eq"].worst_violation
    worst["logistic-dirichlet"] = dirichlet_golden["eq"].worst_violation
    worst["competition"] = competition_golden["eq"].worst_violation
    worst["fisher"] = fisher_golden["eq"].worst_violation
    overall = max(worst.values())
    ok = overall <= 1e-12
    announce(
        4, ok,
        "worst order violation across golden scenarios "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + f"; overall {overall:.2e} <= 1e-12",
    )


def test_criterion_5_logistic_neumann(neumann_golden):
    eq = neumann_golden["eq"]
    err = np.max(np.abs(eq.u_upper_star.values - 0.5))
    gap = np.max(np.abs(eq.u_upper_star.values - eq.u_star.values))
    elapsed = neumann_golden["elapsed"]
    ok = err <= 1e-6 and gap <= 1e-6 and elapsed < 10.0
    announce(
        5, ok,
        f"equilibrium error vs 0.5 is {err:.2e} <= 1e-6, uniqueness gap "
        f"{gap:.2e} <= 1e-6, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_6_logistic_dirichlet_99():
    gen = mv.build_laplacian_1d(99, "dirichlet")
    pair = mv.principal_eig(gen)
    h = 0.01
    lam_err = abs(pair.lambda1 - (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2)

    scen5 = mv.build_logistic(gen, 5.0, 1.0)
    eq5 = mv.asymptotic_equilibria(
        scen5.problem(horizon=2.0, dt=0.02), tol=1e-9, tol_eq=1e-8, tol_res=1e-8
    )
    sup5 = max(
        np.max(np.abs(eq5.u_upper_star.values)), np.max(np.abs(eq5.u_star.values))
    )

    scen15 = mv.build_logistic(gen, 15.0, 1.0)
    eq15 = mv.asymptotic_equilibria(
        scen15.problem(horizon=4.0, dt=0.02), tol=1e-9, tol_eq=1e-8, tol_res=1e-8
    )
    u15 = eq15.u_upper_star.values
    ok = (
        lam_err <= 1e-12
        and sup5 <= 1e-4
        and np.min(u15) > 0
        and max(eq15.residuals) <= 1e-6
        and np.max(u15) <= 15.0
    )
    announce(
        6, ok,
        f"lambda_1 error {lam_err:.2e} <= 1e-12; a=5 sup {sup5:.2e} <= 1e-4; "
        f"a=15 min interior {np.min(u15):.3f} > 0, residual "
        f"{max(eq15.residuals):.2e} <= 1e-6, bounded by a/b",
    )


def test_criterion_7_eigenvalue_monotonicity():
    gen = mv.build_laplacian_1d(40, "dirichlet")
    rng = np.random.default_rng(7)
    min_margin = np.inf
    for _ in range(100):
        m1 = rng.uniform(0.0, 1.0, size=40)
        m2 = m1.copy()
        m2[rng.integers(40)] += rng.uniform(0.1, 1.0)
        lam1 = mv.principal_eig(mv.add_potential(gen, m1)).lambda1
        lam2 = mv.principal_eig(mv.add_potential(gen, m2)).lambda1
        min_margin = min(min_margin, lam2 - lam1)
    ok = min_margin > 0.0
    announce(
        7, ok,
        f"100 ordered potential pairs on n=40: smallest strictness margin "
        f"{min_margin:.3e} > 0",
    )


def test_criterion_8_competition_coexistence(competition_golden):
    eq = competition_golden["eq"]
    scen = competition_golden["scen"]
    expected = 1.0 / 1.1
    star = eq.u_star.values
    err = np.max(np.abs(star - expected))
    below_w = np.max(star[:50]) <= 1.0 + 1e-9 and np.max(star[50:]) <= 1.0 + 1e-9
    ok_sandwich, worst = mv.certify_sandwich(eq.report)
    elapsed = competition_golden["elapsed"]
    ok = (
        err <= 1e-5 and below_w and ok_sandwich
        and scen.certificates["coexistence"] and elapsed < 30.0
    )
    announce(
        8, ok,
        f"coexistence state error {err:.2e} <= 1e-5, bounds u_k <= w_k hold, "
        f"flipped-cone sandwich certified (worst {worst:.1e}), "
        f"runtime {elapsed:.2f}s < 30s",
    )


def test_criterion_9_comparison_principle():
    scen = mv.build_logistic(mv.build_laplacian_1d(30, "neumann"), 1.0, 2.0)
    prob = scen.problem(horizon=1.5, dt=0.02)
    u_min_env, u_max_env, _ = mv.extremal_trajectories(prob, tol=1e-10)
    lo, hi = prob.interval.standard_bounds()
    rng = np.random.default_rng(9)
    worst = -np.inf
    for _ in range(20):
        a = lo + rng.uniform(size=30) * (hi - lo)
        b = np.minimum(a + rng.uniform(size=30) * (hi - lo), hi)
        ra = mv.iterate(prob, grid(a), tol=1e-10)
        rb = mv.iterate(prob, grid(b), tol=1e-10)
        worst = max(worst, np.max(ra.u_min.states - rb.u_min.states))
        # every solution stays inside the extremal envelopes
        worst = max(worst, np.max(u_min_env.states - ra.u_min.states))
        worst = max(worst, np.max(ra.u_max.states - u_max_env.states))
    ok = worst <= 1e-12
    announce(
        9, ok,
        f"20 ordered initial pairs: worst comparison violation {worst:.2e} <= 1e-12",
    )


def test_criterion_10_time_monotonicity(
    scalar_golden, neumann_golden, dirichlet_golden, competition_golden, fisher_golden
):
    worst = max(
        time_monotonicity_violation(
            scalar_golden["U_min"], scalar_golden["scen"].interval, "increasing"
        ),
        time_monotonicity_violation(
            scalar_golden["U_max"], scalar_golden["scen"].interval, "decreasing"
        ),
    )
    cases = {
        "logistic-neumann": (neumann_golden["scen"], 4.0, 0.02),
        "logistic-dirichlet": (dirichlet_golden["scen"], 2.0, 0.02),
        "competition": (competition_golden["scen"], 4.0, 0.02),
        "fisher": (fisher_golden["scen"], 8.0, 0.05),
    }
    for scen, horizon, dt in cases.values():
        u_min_env, u_max_env, _ = mv.extremal_trajectories(
            scen.problem(horizon=horizon, dt=dt), tol=1e-10
        )
        worst = max(
            worst,
            time_monotonicity_violation(u_min_env, scen.interval, "increasing"),
            time_monotonicity_violation(u_max_env, scen.interval, "decreasing"),
        )
    ok = worst <= 1e-12
    announce(
        10, ok,
        f"U_min nondecreasing / U_max nonincreasing in all golden scenarios, "
        f"worst node-to-node violation {worst:.2e} <= 1e-12",
    )


def test_criterion_11_quadrature_convergence():
    scen = mv.build_scalar_nonunique(1.0, 2.0)
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    residuals = []
    for dt in dts:
        prob = scen.problem(horizon=4.0, dt=dt)
        tg = mv.time_grid(4.0, dt)
        traj = mv.Trajectory(tg, closed_branch(tg)[:, None])
        residuals.append(mv.mild_residual(prob, traj))
    slope = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
    # the exponential trapezoid rule is second order
    ok = 1.8 <= slope <= 2.2
    announce(
        11, ok,
        f"mild residual of the closed-form branch decays with observed order "
        f"{slope:.3f} in [1.8, 2.2] over dt {dts}",
    )


def test_criterion_12_fisher_property_suite(fisher_golden):
    gen = fisher_golden["gen"]
    scen = fisher_golden["scen"]
    prob_global = scen.problem(interval=scen.alt_intervals["global"])
    res0 = prob_global.equilibrium_residual(grid(np.zeros(60)))
    res1 = prob_global.equilibrium_residual(grid(np.ones(60)))

    eq = fisher_golden["eq"]
    u = eq.u_star.values
    interior = float(np.min(u)) > 0.001 and float(np.max(u)) < 0.999
    lams = (scen.eig_data["lambda0"], scen.eig_data["lambda1_tilde"])

    plain = mv.build_fisher(gen, np.ones(60), 0.5)
    ok = (
        res0 == 0.0 and res1 == 0.0
        and lams[0] < 0 and lams[1] < 0
        and interior and max(eq.residuals) <= 1e-6
        and not plain.certificates["nontrivial_available"]
    )
    announce(
        12, ok,
        f"residuals at 0/1 are {res0}/{res1}; instability eigenvalues "
        f"({lams[0]:.3f}, {lams[1]:.3f}) < 0; equilibrium in "
        f"[{np.min(u):.3f}, {np.max(u):.3f}] with residual "
        f"{max(eq.residuals):.1e} <= 1e-6; m >= 0 gate unavailable: "
        f"{not plain.certificates['nontrivial_available']}",
    )
