"""Trajectories, the march's shift, the Picard sweep and its residuals."""

import dataclasses

import numpy as np
import pytest

import mevolve as mv
from mevolve.errors import ValidationError
from mevolve.mild import time_grid

from conftest import bench_module, constant_trajectory, count_solvers, grid

workloads = bench_module("workloads")  # the benchmark's workload definitions


@pytest.fixture(scope="module")
def scalar_scenario():
    return mv.build_scalar_nonunique(1.0, 2.0)


def closed_branch(t, a=1.0):
    return (1.0 - np.exp(-0.5 * a * np.asarray(t))) ** 2 / a**2


class TestMarchShift:
    """mu belongs to the march (`march_shift`): a problem holds A and F alone."""

    def test_policy(self):
        # Neumann: lambda_1 = 0, so the stability floor can bind; the
        # logistic a u - b u^2 on [0, 1] needs mu = 2b - a to make F + mu id
        # increasing
        gen = mv.build_laplacian_1d(6, "neumann")
        interval = mv.OrderInterval(grid(np.zeros(6)), grid(np.ones(6)))
        for f, want in ((mv.logistic(1.0, 2.0), 3.0), (mv.logistic(1.0, 1.0), 1.0),
                        (mv.logistic(1.0, 0.5), mv.mild.STABILITY_FLOOR)):
            prob = mv.ProblemSpec(gen, f, interval)
            mu = mv.march_shift(prob)
            assert mu == pytest.approx(want, abs=1e-12)
            assert mu >= mv.quasi_increasing_shift(f, interval)
            assert gen.min_eigenvalue() + mu >= mv.mild.STABILITY_FLOOR - 1e-12

    def test_a_problem_holds_no_shift(self):
        # the shift that once sat on the problem, unmatched by its A, made the
        # maximal equilibrium of this problem read 3.0; it is 0.5
        fields = {f.name for f in dataclasses.fields(mv.ProblemSpec)}
        assert "mu" not in fields and "shift" not in {
            f.name for f in dataclasses.fields(mv.GeneratorSpec)}
        interval = mv.OrderInterval(grid(np.zeros(12)), grid(4.0 * np.ones(12)))
        with pytest.raises(TypeError):
            mv.ProblemSpec(mv.build_laplacian_1d(12, "neumann"), mv.logistic(1.0, 2.0),
                           interval, mu=5.0)
        prob = mv.ProblemSpec(mv.build_laplacian_1d(12, "neumann"), mv.logistic(1.0, 2.0),
                              interval)
        eq = mv.asymptotic_equilibria(prob)
        assert eq.certified[1]
        assert np.max(np.abs(eq.u_upper_star.values - 0.5)) <= 1e-9

    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_a_full_solve_factorizes_its_generator_once(self, workload, monkeypatch):
        # the build, iterate, the equilibria march and its certificate (the
        # windows Fisher config runs the sweeps) read one factorization, of
        # the problem's own A, and one cached tuple of step weights, those of
        # A + mu I at the march's mu
        factorized = []
        eig_factors = mv.GeneratorSpec._eig_factors

        def counted(gen):
            if gen._eig is None:
                factorized.append(gen)
            return eig_factors(gen)

        monkeypatch.setattr(mv.GeneratorSpec, "_eig_factors", counted)
        for cfg in workloads.configs(workload, workloads.DEFAULT_SEED):
            factorized.clear()
            calls = count_solvers(monkeypatch)
            scen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg.get("n", 1),
                                        cfg.get("bc", "scalar"), cfg.get("beta"))
            prob = scen.problem(horizon=cfg["T"], dt=cfg["dt"])
            report = mv.iterate(prob, scen.interval.lower, tol=cfg["tol"])
            eq = mv.asymptotic_equilibria(prob, tol=cfg["tol"], tol_eq=cfg["tol_eq"],
                                          tol_res=cfg["tol_res"], seed=cfg["seed"])
            assert eq.certified == (True, True)
            assert len(factorized) == 1 and factorized[0] is prob.A, workloads.label(cfg)
            assert len(calls) == 1
            assert list(prob.A._prop_cache) == [(report.mu_applied, cfg["dt"])]

    @pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.RECHECK_SEED])
    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_march_shift_is_the_reported_mu(self, workload, seed):
        for cfg in workloads.configs(workload, seed):
            scen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg.get("n", 1),
                                        cfg.get("bc", "scalar"), cfg.get("beta"))
            prob = scen.problem(horizon=cfg["T"], dt=cfg["dt"])
            report = mv.iterate(prob, scen.interval.lower, tol=cfg["tol"])
            assert mv.march_shift(prob) == report.mu_applied, workloads.label(cfg)


class TestPicardSweep:
    def test_homogeneous_case_is_semigroup(self):
        # F == 0 via a logistic evaluated at its root keeps the test honest;
        # A's spectrum starts at 1, above the stability floor, so mu = 0
        gen = mv.add_potential(mv.build_laplacian_1d(6, "neumann"), np.ones(6))
        interval = mv.OrderInterval(grid(np.zeros(6)), grid(np.ones(6)))

        class Zero(mv.Nonlinearity):
            name = "zero"

            def eval_values(self, values):
                return np.zeros_like(values)

            def jacobian_range(self, lo, hi):
                zero = np.zeros((1, 1, lo.size))
                return zero, zero

        prob = mv.ProblemSpec(gen, Zero(), interval, horizon=1.0, dt=0.01)
        u0 = grid(np.linspace(0.1, 0.9, 6))
        traj = constant_trajectory(u0, 1.0, 0.01)
        image = mv.picard_step(prob, u0, traj)
        for k in (10, 50, 100):
            oracle = mv.semigroup_apply(gen, image.t_grid[k], u0.values)
            assert np.max(np.abs(image.states[k] - oracle)) <= 1e-10

    def test_equilibrium_is_fixed_point(self):
        gen = mv.build_laplacian_1d(6, "neumann")
        interval = mv.OrderInterval(grid(np.zeros(6)), grid(np.ones(6)))
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 2.0), interval, horizon=2.0, dt=0.01)
        v = grid(0.5 * np.ones(6))  # A v = F(v)
        traj = constant_trajectory(v, 2.0, 0.01)
        image = mv.picard_step(prob, v, traj)
        assert np.max(np.abs(image.states - traj.states)) <= 1e-12

    def test_zero_branch_stays_zero(self, scalar_scenario):
        prob = scalar_scenario.problem(horizon=1.0, dt=0.001)
        zero = grid([0.0])
        traj = constant_trajectory(zero, 1.0, 0.001)
        image = mv.picard_step(prob, zero, traj)
        assert np.max(np.abs(image.states)) == 0.0

    def test_monotone_in_trajectory_argument(self, rng):
        gen = mv.build_laplacian_1d(8, "neumann")
        interval = mv.OrderInterval(grid(np.zeros(8)), grid(np.ones(8)))
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 1.0), interval, horizon=1.0, dt=0.02)
        u0 = grid(0.5 * np.ones(8))
        tg = time_grid(1.0, 0.02)
        for _ in range(20):
            a = rng.uniform(0, 1, size=(tg.size, 8))
            b = np.minimum(a + rng.uniform(0, 1, size=a.shape), 1.0)
            ia = mv.picard_step(prob, u0, mv.Trajectory(tg, a))
            ib = mv.picard_step(prob, u0, mv.Trajectory(tg, b))
            assert np.max(ia.states - ib.states) <= 1e-13

    def test_monotone_in_initial_value(self, rng):
        gen = mv.build_laplacian_1d(8, "neumann")
        interval = mv.OrderInterval(grid(np.zeros(8)), grid(np.ones(8)))
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 1.0), interval, horizon=1.0, dt=0.02)
        traj = constant_trajectory(grid(0.5 * np.ones(8)), 1.0, 0.02)
        for _ in range(20):
            a = rng.uniform(0, 1, size=8)
            b = np.minimum(a + rng.uniform(0, 1, size=8), 1.0)
            ia = mv.picard_step(prob, grid(a), traj)
            ib = mv.picard_step(prob, grid(b), traj)
            assert np.max(ia.states - ib.states) <= 1e-13

    def test_interval_invariance(self, rng):
        gen = mv.build_laplacian_1d(8, "neumann")
        scen = mv.build_logistic(gen, 1.0, 1.0)
        prob = scen.problem(horizon=1.0, dt=0.02)
        interval = prob.interval
        lo, hi = interval.standard_bounds()
        tg = time_grid(1.0, 0.02)
        for _ in range(10):
            states = lo + rng.uniform(size=(tg.size, 8)) * (hi - lo)
            u0 = grid(lo + rng.uniform(size=8) * (hi - lo))
            image = mv.picard_step(prob, u0, mv.Trajectory(tg, states))
            assert np.min(image.states - lo) >= -1e-12
            assert np.min(hi - image.states) >= -1e-12


class TestMildResidual:
    def test_fixed_point_has_small_residual(self, scalar_scenario):
        prob = scalar_scenario.problem(horizon=5.0, dt=0.001)
        rpt = mv.iterate(prob, grid([0.0]), tol=1e-11)
        assert mv.mild_residual(prob, rpt.u_max) <= 1e-9

    def test_closed_form_branch_second_order(self, scalar_scenario):
        # the trapezoid rule's step integral is second order in dt
        residuals = []
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        for dt in dts:
            prob = scalar_scenario.problem(horizon=4.0, dt=dt)
            tg = time_grid(4.0, dt)
            traj = mv.Trajectory(tg, closed_branch(tg)[:, None])
            residuals.append(mv.mild_residual(prob, traj))
        slope = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
        assert 1.8 <= slope <= 2.2
        assert np.all(np.diff(residuals) < 0)  # halving dt shrinks the residual

    def test_constant_non_equilibrium_stays_away(self, scalar_scenario):
        for dt in (1e-2, 1e-3):
            prob = scalar_scenario.problem(horizon=2.0, dt=dt)
            traj = constant_trajectory(grid([0.5]), 2.0, dt)
            # residual of u == 0.5 cannot vanish under refinement
            assert mv.mild_residual(prob, traj) > 0.05


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        tg = time_grid(0.5, 0.1)
        states = np.linspace(0, 1, tg.size * 3).reshape(tg.size, 3)
        traj = mv.Trajectory(tg, states)
        path = tmp_path / "traj.csv"
        mv.trajectory_to_csv(traj, path)
        back = mv.trajectory_from_csv(path)
        assert np.array_equal(back.states, traj.states)
        assert np.array_equal(back.t_grid, traj.t_grid)
        header = path.read_text().splitlines()[0]
        assert header == "t,node_0,node_1,node_2"

    def test_two_component_header(self, tmp_path):
        tg = time_grid(0.2, 0.1)
        traj = mv.Trajectory(tg, np.zeros((tg.size, 4)), components=2)
        path = tmp_path / "sys.csv"
        mv.trajectory_to_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,node_0_c0,node_1_c0,node_0_c1,node_1_c1"

    def test_csv_bytes_match_the_csv_module(self, tmp_path, rng):
        """The writer's bytes equal csv.writer rows of repr(float(x)),
        across block boundaries, for signed zeros, subnormal-scale values
        and a two-component state array built from a strided view."""
        import csv

        tg = time_grid(6.01, 0.01)
        shape = (tg.size, 2, 4)
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        block[0, 0, :2] = [-0.0, 1e-300]
        block[-1, 0, 2:] = [-1e-300, 0.0]
        traj = mv.Trajectory(tg, block[:, 0], components=2)  # copies a strided view
        assert not np.shares_memory(traj.states, block)
        path = tmp_path / "new.csv"
        mv.trajectory_to_csv(traj, path)

        reference = tmp_path / "csv_module.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(mv.mild.csv_header(2, 2))
            for t, row in zip(traj.t_grid, traj.states):
                writer.writerow([repr(float(t))] + [repr(float(x)) for x in row])
        assert path.read_bytes() == reference.read_bytes()
        text = path.read_text()
        assert text.splitlines()[0] == "t,node_0_c0,node_1_c0,node_0_c1,node_1_c1"
        assert "-0.0," in text and "1e-300" in text

    @pytest.mark.parametrize("width, components", [(1, 1), (2, 2), (61, 1)])
    def test_csv_bytes_match_the_row_by_row_writer(self, tmp_path, rng, width, components):
        """The flat-list assembly writes the bytes of the row-by-row writer
        it replaced, over full blocks and a partial last one."""
        rows_per_block = max(1, mv.mild.CSV_BLOCK_VALUES // (width + 1))
        n_rows = 2 * rows_per_block + 7  # two full blocks, then a partial one
        states = rng.standard_normal((n_rows, width)) * 10.0 ** rng.integers(-8, 8, (n_rows, width))
        states[0, 0], states[-1, -1] = -0.0, 1e-300
        traj = mv.Trajectory(0.01 * np.arange(n_rows), states, components)
        path = tmp_path / "new.csv"
        mv.trajectory_to_csv(traj, path)

        reference = tmp_path / "rows.csv"
        with open(reference, "w", newline="") as fh:
            fh.write(",".join(mv.mild.csv_header(width // components, components)) + "\r\n")
            for start in range(0, n_rows, rows_per_block):
                stop = start + rows_per_block
                block = np.column_stack([traj.t_grid[start:stop], traj.states[start:stop]])
                fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block.tolist())
        assert path.read_bytes() == reference.read_bytes()


class TestImmutable:
    @pytest.fixture
    def renders(self, monkeypatch):
        """Count the renderings of trajectory_to_csv: one header each."""
        header, calls = mv.mild.csv_header, []

        def counting(n_points, components):
            calls.append(n_points)
            return header(n_points, components)

        monkeypatch.setattr(mv.mild, "csv_header", counting)
        return calls

    def test_construction_copies_its_input(self):
        tg = time_grid(0.5, 0.1)
        states = np.linspace(0, 1, tg.size * 3).reshape(tg.size, 3)
        traj = mv.Trajectory(tg, states)
        before = traj.t_grid.tobytes(), traj.states.tobytes()
        tg[1], states[0, 0] = 7.0, -1.0
        assert (traj.t_grid.tobytes(), traj.states.tobytes()) == before

    def test_arrays_and_fields_are_read_only(self):
        tg = time_grid(0.5, 0.1)
        traj = mv.Trajectory(tg, np.zeros((tg.size, 2)))
        with pytest.raises(ValueError):
            traj.states[0, 0] = 1.0
        with pytest.raises(ValueError):
            traj.t_grid[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.states = np.ones((tg.size, 2))

    def test_equality_and_hash_are_identity(self):
        tg = time_grid(0.5, 0.1)
        a = mv.Trajectory(tg, np.zeros((tg.size, 2)))
        b = mv.Trajectory(tg, np.zeros((tg.size, 2)))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_one_object_renders_once(self, tmp_path, renders):
        tg = time_grid(0.5, 0.1)
        traj = mv.Trajectory(tg, np.linspace(-1, 1, tg.size * 3).reshape(tg.size, 3))
        mv.trajectory_to_csv(traj, tmp_path / "first.csv")
        mv.trajectory_to_csv(traj, tmp_path / "second.csv")
        assert len(renders) == 1
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()

    def test_equal_objects_each_render(self, tmp_path, renders):
        # no memo by content: a distinct object renders its own text
        tg = time_grid(0.5, 0.1)
        states = np.linspace(-1, 1, tg.size * 3).reshape(tg.size, 3)
        for name in ("a.csv", "b.csv"):
            mv.trajectory_to_csv(mv.Trajectory(tg, states), tmp_path / name)
        assert len(renders) == 2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _jittered(rel):
    """11 nodes: a first step dt = 0.02, then steps of dt (1 - rel) and
    dt (1 + rel) in turn."""
    jitter = rel * (-1.0) ** np.arange(1, 11)
    jitter[0] = 0.0
    return np.concatenate(([0.0], np.cumsum(0.02 * (1.0 + jitter))))


@pytest.mark.parametrize("t_grid", [
    0.02 * np.arange(51),
    time_grid(1.0, 1e-3),
    np.linspace(0.0, 1.0, 11),
    _jittered(0.5e-9),
    _jittered(-0.5e-9),
    _jittered(2e-9),
    _jittered(-2e-9),
    np.array([0.0, np.nan, 0.04]),
    np.array([0.0, 0.02, np.nan]),
    np.array([0.0, np.nan]),
    np.array([0.0, np.inf]),
    np.array([-np.inf, 0.0]),
    np.array([0.0, 0.02, np.inf]),
    np.array([0.0, 0.5]),
    np.array([1.0, 0.5, 0.0]),
], ids=lambda t: np.array2string(t[:3], precision=3))
def test_uniform_grid_check_accepts_what_allclose_accepts(t_grid):
    # the check Trajectory ran before, on the steps and on the whole grid
    steps = np.diff(t_grid)
    uniform = bool(np.allclose(steps, steps[0], rtol=1e-9, atol=0.0))
    assert mv.mild._uniform(steps) is uniform
    accepted = not np.any(steps <= 0) and uniform
    try:
        mv.Trajectory(t_grid, np.zeros((t_grid.size, 1)))
    except ValidationError:
        assert not accepted
    else:
        assert accepted
