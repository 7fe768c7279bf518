"""Scenario builders and sub/super-solution certificates."""

import numpy as np
import pytest

import mevolve as mv
from mevolve.errors import ValidationError
from mevolve.generators import mesh_nodes

from conftest import grid


class TestCertificates:
    def test_equilibrium_is_both(self):
        gen = mv.build_laplacian_1d(8, "neumann")
        f = mv.logistic(1.0, 2.0)
        v = grid(0.5 * np.ones(8))
        assert mv.verify_subsolution(gen, f, v)
        assert mv.verify_supersolution(gen, f, v)

    def test_eigenvector_subsolution_with_admissible_eps(self):
        gen = mv.build_laplacian_1d(20, "dirichlet")
        pair = mv.principal_eig(gen)
        a, b = 12.0, 1.0
        eps = (a - pair.lambda1) / (b * np.max(pair.phi0.values))
        assert mv.verify_subsolution(gen, mv.logistic(a, b), grid(eps * pair.phi0.values))

    def test_oversized_eps_fails_with_margin(self):
        gen = mv.build_laplacian_1d(20, "dirichlet")
        pair = mv.principal_eig(gen)
        a, b = 10.5, 1.0  # a - lambda_1 small
        eps = 10.0 * (a - pair.lambda1) / b
        cand = grid(eps * pair.phi0.values)
        f = mv.logistic(a, b)
        assert not mv.verify_subsolution(gen, f, cand)
        assert mv.subsolution_margin(gen, f, cand, mv.STANDARD_CONE) < -1e-3

    def test_constant_supersolution_needs_mb_above_a(self):
        gen = mv.build_laplacian_1d(8, "neumann")
        f = mv.logistic(1.0, 2.0)
        assert mv.verify_supersolution(gen, f, grid(np.ones(8)))  # M b = 2 > 1
        assert not mv.verify_supersolution(gen, f, grid(0.25 * np.ones(8)))  # M b < a


class TestLogisticScenario:
    def test_neumann_predicts_constant_state(self):
        scen = mv.build_logistic(mv.build_laplacian_1d(10, "neumann"), 1.0, 2.0)
        assert np.allclose(scen.predicted["equilibrium"], 0.5)
        assert scen.certificates["sub_margin"] >= -1e-9
        assert scen.certificates["super_margin"] >= -1e-9

    def test_subcritical_returns_zero_interval(self):
        gen = mv.build_laplacian_1d(30, "dirichlet")
        scen = mv.build_logistic(gen, 5.0, 1.0)  # lambda_1 ~ pi^2 > 5
        assert np.all(scen.interval.lower.values == 0.0)
        assert np.allclose(scen.predicted["equilibrium"], 0.0)

    def test_supercritical_dirichlet_runs_to_positive_state(self):
        gen = mv.build_laplacian_1d(30, "dirichlet")
        scen = mv.build_logistic(gen, 12.0, 1.0)
        eq = mv.asymptotic_equilibria(
            scen.problem(horizon=2.0, dt=0.02), tol=1e-9, tol_eq=1e-8, tol_res=1e-8
        )
        u = eq.u_upper_star.values
        assert np.min(u) > 0
        assert np.max(u) <= 12.0  # below (a/b) * 1
        assert max(eq.residuals) <= 1e-8
        assert np.max(np.abs(eq.u_star.values - u)) <= 1e-6  # uniqueness

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            mv.build_logistic(mv.build_laplacian_1d(5, "neumann"), -1.0, 1.0)


class TestCompetitionScenario:
    def test_decoupled_species_reduce_to_logistic_states(self):
        g = mv.build_laplacian_1d(12, "neumann")
        f = mv.competition(1.0, 1.0, 1.0, 1e-12, 1e-12, 1.0)
        # b12 = b21 ~ 0: coexistence state is the pair of logistic states
        scen = mv.build_competition(
            mv.build_laplacian_1d(12, "neumann"), mv.build_laplacian_1d(12, "neumann"),
            1.0, 1.0, 1.0, 1e-12, 1e-12, 1.0,
        )
        eq = mv.asymptotic_equilibria(
            scen.problem(horizon=2.0, dt=0.05), tol=1e-9, tol_eq=1e-8, tol_res=1e-8
        )
        assert np.max(np.abs(eq.u_star.values[:12] - 1.0)) <= 1e-6
        assert np.max(np.abs(eq.u_star.values[12:] - 1.0)) <= 1e-6

    def test_symmetric_weak_competition_constants(self):
        scen = mv.build_competition(
            mv.build_laplacian_1d(10, "neumann"), mv.build_laplacian_1d(10, "neumann"),
            1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
        )
        assert scen.certificates["coexistence"]
        # gate: 1 > lambda_1(A + 0.1 * w2) = 0.1
        assert scen.eig_data["lambda1_A1_plus_b12w2"] == pytest.approx(0.1, abs=1e-9)
        eq = mv.asymptotic_equilibria(
            scen.problem(horizon=2.0, dt=0.05), tol=1e-10, tol_eq=1e-9, tol_res=1e-9
        )
        expected = 1.0 / 1.1
        assert np.max(np.abs(eq.u_star.values - expected)) <= 1e-6
        # coexistence bounds: each species below its semi-trivial state
        assert np.max(eq.u_star.values[:10]) <= 1.0 + 1e-9
        assert np.max(eq.u_star.values[10:]) <= 1.0 + 1e-9

    def test_large_cross_rate_disables_coexistence_gate(self):
        scen = mv.build_competition(
            mv.build_laplacian_1d(10, "neumann"), mv.build_laplacian_1d(10, "neumann"),
            1.0, 1.0, 1.0, 5.0, 0.1, 1.0,
        )
        assert not scen.certificates["coexistence"]
        assert scen.eig_data["lambda1_A1_plus_b12w2"] > 1.0  # gate fails
        # the box scenario still solves: species 2 wins, species 1 dies out
        eq = mv.asymptotic_equilibria(
            scen.problem(horizon=4.0, dt=0.05), tol=1e-9, tol_eq=1e-8, tol_res=1e-8
        )
        assert np.max(np.abs(eq.u_star.values[:10])) <= 1e-4
        assert np.max(np.abs(eq.u_star.values[10:] - 1.0)) <= 1e-4

    def test_subcritical_species_goes_extinct(self):
        # a1 below lambda_1 of a Dirichlet operator: species 1 must vanish
        g1 = mv.build_laplacian_1d(14, "dirichlet")
        g2 = mv.build_laplacian_1d(14, "neumann")
        scen = mv.build_competition(g1, g2, 5.0, 1.0, 1.0, 0.1, 0.1, 1.0)
        assert not scen.certificates["coexistence"]
        eq = mv.asymptotic_equilibria(
            scen.problem(horizon=4.0, dt=0.05), tol=1e-9, tol_eq=1e-8, tol_res=1e-8
        )
        assert np.max(np.abs(eq.u_star.values[:14])) <= 1e-5


class TestFisherScenario:
    def test_zero_and_one_are_exact_equilibria(self):
        gen = mv.build_laplacian_1d(24, "neumann")
        x = mesh_nodes(gen)
        scen = mv.build_fisher(gen, 4.0 * np.sin(2 * np.pi * x), 0.5)
        prob = scen.problem(interval=scen.alt_intervals["global"])
        assert prob.equilibrium_residual(grid(np.zeros(24))) == 0.0
        assert prob.equilibrium_residual(grid(np.ones(24))) == 0.0

    def test_sign_changing_weight_gives_interior_equilibrium(self):
        gen = mv.build_laplacian_1d(24, "neumann")
        x = mesh_nodes(gen)
        scen = mv.build_fisher(gen, 8.0 * np.sin(2 * np.pi * x), 0.5)
        assert scen.eig_data["lambda0"] < 0 and scen.eig_data["lambda1_tilde"] < 0
        assert scen.certificates["nontrivial_available"]
        eq = mv.asymptotic_equilibria(
            scen.problem(horizon=8.0, dt=0.1), tol=1e-9, tol_eq=1e-7, tol_res=1e-8
        )
        u = eq.u_star.values
        assert np.min(u) > 0.001 and np.max(u) < 0.999
        assert max(eq.residuals) <= 1e-8

    def test_nonnegative_weight_has_no_nontrivial_gate(self):
        gen = mv.build_laplacian_1d(24, "neumann")
        scen = mv.build_fisher(gen, np.ones(24), 0.5)
        assert not scen.certificates["nontrivial_available"]
        assert scen.eig_data["lambda1_tilde"] > 0
        assert scen.notes  # flagged with an explanation

    def test_alpha_validation(self):
        gen = mv.build_laplacian_1d(8, "neumann")
        with pytest.raises(ValidationError):
            mv.build_fisher(gen, np.ones(8), 1.5)


class TestScalarNonUniqueScenario:
    def test_bound_validation(self):
        mv.build_scalar_nonunique(1.0, 2.0)  # fine: M >= 1
        with pytest.raises(ValidationError, match="1/a"):
            mv.build_scalar_nonunique(1.0, 0.5)

    def test_predicted_equilibria(self):
        scen = mv.build_scalar_nonunique(2.0, 1.0)
        assert scen.predicted["equilibria"] == [-0.25, 0.0, 0.25]

    def test_closed_form_branches_have_vanishing_residual(self):
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        residuals = []
        for dt in (4e-3, 1e-3):
            prob = scen.problem(horizon=3.0, dt=dt)
            tg = mv.time_grid(3.0, dt)
            for key in ("u_max", "u_min", "U_max", "U_min"):
                traj = mv.Trajectory(tg, scen.oracles[key](tg)[:, None])
                residuals.append(mv.mild_residual(prob, traj))
        coarse, fine = max(residuals[:4]), max(residuals[4:])
        assert fine < coarse  # refinement shrinks all four branch residuals
        assert fine < 5e-3

    def test_shifted_branch_family_solves_too(self):
        scen = mv.build_scalar_nonunique(1.0, 2.0)
        prob = scen.problem(horizon=4.0, dt=1e-3)
        tg = mv.time_grid(4.0, 1e-3)
        family = scen.oracles["branch_family"](tg, 1.0)
        res = mv.mild_residual(prob, mv.Trajectory(tg, family[:, None]))
        assert res <= 5e-3


def test_every_emitted_scenario_passes_certificates():
    builds = [
        mv.build_logistic(mv.build_laplacian_1d(10, "neumann"), 1.0, 2.0),
        mv.build_logistic(mv.build_laplacian_1d(10, "dirichlet"), 12.0, 1.0),
        mv.build_scalar_nonunique(1.0, 2.0),
        mv.build_competition(
            mv.build_laplacian_1d(8, "neumann"), mv.build_laplacian_1d(8, "neumann"),
            1.0, 1.0, 1.0, 0.1, 0.1, 1.0,
        ),
    ]
    for scen in builds:
        assert mv.verify_subsolution(scen.A, scen.F, scen.interval.lower, scen.cone)
        assert mv.verify_supersolution(scen.A, scen.F, scen.interval.upper, scen.cone)
        assert mv.leq(scen.interval.lower, scen.interval.upper, scen.cone)


def test_competition_build_runs_no_time_march(monkeypatch):
    # each semi-trivial state is one Newton run from M*1 and its
    # certificate: no march is built and no other Newton run is made
    from mevolve import monotone

    newton, newton_runs = monotone.newton_equilibrium, []

    def no_march(*args, **kwargs):
        raise AssertionError("the scenario build constructed a time march")

    def counting(problem, *args, **kwargs):
        newton_runs.append(problem.F.components)
        return newton(problem, *args, **kwargs)

    monkeypatch.setattr(monotone, "_March", no_march)
    monkeypatch.setattr(monotone, "newton_equilibrium", counting)
    scen = mv.build_competition(
        mv.build_laplacian_1d(10, "dirichlet"), mv.build_laplacian_1d(10, "dirichlet"),
        30.0, 30.0, 1.0, 0.3, 0.3, 1.0,
    )
    assert scen.certificates["coexistence"]
    assert newton_runs == [1, 1]  # one single-species run per species


def _engine_route(a_gen, pair, a, b, monkeypatch):
    """The semi-trivial state by the engine, an independent route: the
    equilibria march on the logistic interval, then a Newton polish to an
    absolute residual of 1e-10.  (march state, its proven radius, polished
    state or None where the polish fails)."""
    from mevolve import scenarios

    scen = scenarios._logistic(a_gen, a, b, pair)
    monkeypatch.setattr(mv.monotone, "N_NEWTON_STARTS", 0)
    eq = mv.asymptotic_equilibria(
        scen.problem(horizon=2.0, dt=0.05), tol=1e-8, tol_eq=1e-7, tol_res=1e-9,
    )
    state = eq.u_upper_star.values
    v, _, ok = mv.newton_equilibrium(
        mv.ProblemSpec(a_gen, scen.F, scen.interval), state, tol_res=1e-10
    )
    return state, eq.certified_radius[1], np.maximum(v, 0.0) if ok else None


@pytest.mark.parametrize("bc, n, a", [
    *[(bc, n, a) for bc in ("dirichlet", "robin") for n in (99, 160, 300)
      for a in (30.0, 100.0)],
    ("neumann", 99, 100.0),
    ("dirichlet", 60, "near-lambda1"),
    ("robin", 60, "near-lambda1"),
])
def test_semi_trivial_state_is_certified(bc, n, a, monkeypatch):
    # n >= 99 puts the residual floor above the polish target 1e-10; a just
    # above lambda_1 gives a small state and a nearly singular linearization
    from mevolve import scenarios

    gen = mv.build_laplacian_1d(n, bc, 1.0)
    pair = mv.principal_eig(gen)
    if a == "near-lambda1":
        a = pair.lambda1 * 1.0001
    b = 1.0
    w, _, radius = scenarios._semi_trivial(gen, pair, a, b)
    assert radius <= scenarios.SEMI_TRIVIAL_TOL
    if bc == "neumann":  # the constant a/b is the equilibrium
        assert np.max(np.abs(w.values - a / b)) <= 1e-11 * (a / b)
        return
    state, state_radius, polished = _engine_route(gen, pair, a, b, monkeypatch)
    # two proven enclosures of the same maximal equilibrium
    assert state_radius is not None
    assert np.max(np.abs(w.values - state)) <= radius + state_radius
    if polished is not None:
        assert np.max(np.abs(w.values - polished)) <= 1e-12


def test_semi_trivial_state_on_its_interval_bound():
    # Robin beta = 0.5, n = 2 has lambda_1 = 1 and a constant phi_0, so the
    # state (a - lambda_1) / b = 1 is the interval's lower bound; the
    # certificate clips p + eps*psi to that bound, a super-solution
    from mevolve import scenarios

    gen = mv.build_laplacian_1d(2, "robin", 0.5)
    pair = mv.principal_eig(gen)
    w, res, radius = scenarios._semi_trivial(gen, pair, 2.0, 1.0)
    assert np.all(scenarios._logistic(gen, 2.0, 1.0, pair).interval.lower.values == 1.0)
    assert np.all(w.values == 1.0) and res == 0.0
    assert radius <= 1e-15


def test_competition_build_computes_each_principal_pair_once(monkeypatch):
    # one pair per species, reused by its semi-trivial state, and one per
    # shifted generator of the coexistence gate
    from mevolve import scenarios

    calls = []

    def counting(a):
        calls.append(a)
        return mv.principal_eig(a)

    monkeypatch.setattr(scenarios, "principal_eig", counting)
    g1, g2 = mv.build_laplacian_1d(10, "dirichlet"), mv.build_laplacian_1d(10, "dirichlet")
    scen = mv.build_competition(g1, g2, 30.0, 30.0, 1.0, 0.3, 0.3, 1.0)
    assert scen.certificates["coexistence"]
    assert len(calls) == 4
    assert calls[0] is g1 and calls[1] is g2


def test_competition_config_computes_one_pair_per_species_mesh(monkeypatch):
    # build_from_config hands both species one Laplacian, whose pair is then
    # computed once: 3 calls on the setup benchmark config, where two
    # distinct meshes take 4; the numbers are the same
    from mevolve import scenarios

    calls = []

    def counting(a):
        calls.append(a)
        return mv.principal_eig(a)

    monkeypatch.setattr(scenarios, "principal_eig", counting)
    params = {"a1": 30.0, "a2": 30.0, "b11": 1.0, "b12": 0.3, "b21": 0.3, "b22": 1.0}
    scen = mv.build_from_config("competition", params, 60, "dirichlet")
    assert scen.certificates["coexistence"]
    assert len(calls) == 3
    g1, g2 = mv.build_laplacian_1d(60, "dirichlet"), mv.build_laplacian_1d(60, "dirichlet")
    apart = mv.build_competition(g1, g2, *params.values())
    assert len(calls) == 7
    assert scen.eig_data.keys() == apart.eig_data.keys()
    for key, value in scen.eig_data.items():
        assert np.array_equal(value, apart.eig_data[key]), key
    assert np.array_equal(scen.interval.lower.values, apart.interval.lower.values)
    assert np.array_equal(scen.interval.upper.values, apart.interval.upper.values)


def test_scalar_config_builds_no_laplacian(monkeypatch):
    # the scalar scenario takes no mesh, and its config's bc "scalar" would
    # make the Laplacian builder raise
    from mevolve import generators

    built, build = [], generators.build_laplacian_1d

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(generators, "build_laplacian_1d", counting)
    scen = mv.build_from_config("scalar-nonunique", {"a": 1.0, "M": 2.0}, 1, "scalar")
    assert built == []
    assert scen.predicted["equilibria"] == [-1.0, 0.0, 1.0]
