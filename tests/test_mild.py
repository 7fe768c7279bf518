"""Trajectories, scaling, the Picard sweep and its residuals."""

import numpy as np
import pytest
import scipy.linalg

import mevolve as mv
from mevolve.errors import ValidationError
from mevolve.mild import time_grid

from conftest import constant_trajectory, grid


@pytest.fixture(scope="module")
def scalar_scenario():
    return mv.build_scalar_nonunique(1.0, 2.0)


def closed_branch(t, a=1.0):
    return (1.0 - np.exp(-0.5 * a * np.asarray(t))) ** 2 / a**2


class TestScaling:
    def test_zero_shift_is_identity(self, scalar_scenario):
        p = scalar_scenario.problem()
        assert mv.scale_problem(p, 0.0) is p

    def test_shift_accumulates(self, scalar_scenario):
        p = mv.scale_problem(scalar_scenario.problem(), 2.0)
        assert p.mu == 2.0
        assert p.A.matrix[0, 0] == pytest.approx(3.0)
        assert p.A.shift == 2.0

    def test_scalar_logistic_shift_makes_rhs_increasing(self):
        # a = b = 1, M = 2: mu = 3 makes (a+mu)x - b x^2 increasing on [0, 2]
        interval = mv.OrderInterval(grid([0.0]), grid([2.0]))
        prob = mv.ProblemSpec(
            mv.generators.scalar_generator(1.0), mv.logistic(1.0, 1.0), interval
        )
        scaled = mv.scale_problem(prob, 3.0)
        xs = np.linspace(0, 2, 200)
        vals = [scaled.rhs(np.array([x]))[0] for x in xs]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_equilibria_unchanged_by_scaling(self, scalar_scenario):
        prob = scalar_scenario.problem(horizon=4.0, dt=0.01)
        scaled = mv.scale_problem(prob, 1.7)
        v, res, ok = mv.newton_equilibrium(scaled, np.array([0.9]))
        assert ok and abs(v[0] - 1.0) <= 1e-8
        # residual agrees between scaled and unscaled formulations
        g = grid([v[0]])
        assert prob.equilibrium_residual(g) == pytest.approx(
            scaled.equilibrium_residual(g), abs=1e-12
        )

    def test_negative_shift_rejected(self, scalar_scenario):
        with pytest.raises(ValidationError):
            mv.scale_problem(scalar_scenario.problem(), -1.0)

    def test_auto_scale_policy(self):
        gen = mv.build_laplacian_1d(6, "neumann")
        interval = mv.OrderInterval(grid(np.zeros(6)), grid(np.ones(6)))
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 2.0), interval)
        scaled = mv.auto_scale(prob)
        assert scaled.mu >= mv.quasi_increasing_shift(prob.F, interval)
        assert scaled.A.min_eigenvalue() >= 0.1 - 1e-12

    def test_auto_scale_shares_one_factorization(self, monkeypatch):
        calls = []
        eigh = scipy.linalg.eigh

        def counted_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
        gen = mv.build_laplacian_1d(6, "neumann")
        interval = mv.OrderInterval(grid(np.zeros(6)), grid(np.ones(6)))
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 2.0), interval)
        first, second = mv.auto_scale(prob), mv.auto_scale(prob)
        assert first.A is not second.A and first.mu == second.mu > 0
        p1, b1 = first.A.propagators(0.01)
        p2, b2 = second.A.propagators(0.01)
        assert p1 is p2 and b1 is b2
        assert len(calls) == 1


class TestPicardSweep:
    def test_homogeneous_case_is_semigroup(self):
        # F == 0 via a logistic evaluated at its root keeps the test honest
        gen = mv.generators.shifted(mv.build_laplacian_1d(6, "neumann"), 1.0)
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
        scaled = mv.auto_scale(prob)
        v = grid(0.5 * np.ones(6))  # A v = F(v)
        traj = constant_trajectory(v, 2.0, 0.01)
        image = mv.picard_step(scaled, v, traj)
        assert np.max(np.abs(image.states - traj.states)) <= 1e-12

    def test_zero_branch_stays_zero(self, scalar_scenario):
        prob = mv.auto_scale(scalar_scenario.problem(horizon=1.0, dt=0.001))
        zero = grid([0.0])
        traj = constant_trajectory(zero, 1.0, 0.001)
        image = mv.picard_step(prob, zero, traj)
        assert np.max(np.abs(image.states)) == 0.0

    def test_monotone_in_trajectory_argument(self, rng):
        gen = mv.build_laplacian_1d(8, "neumann")
        interval = mv.OrderInterval(grid(np.zeros(8)), grid(np.ones(8)))
        prob = mv.auto_scale(
            mv.ProblemSpec(gen, mv.logistic(1.0, 1.0), interval, horizon=1.0, dt=0.02)
        )
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
        prob = mv.auto_scale(
            mv.ProblemSpec(gen, mv.logistic(1.0, 1.0), interval, horizon=1.0, dt=0.02)
        )
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
        prob = mv.auto_scale(scen.problem(horizon=1.0, dt=0.02))
        interval = prob.interval
        lo, hi = interval.standard_bounds()
        tg = time_grid(1.0, 0.02)
        for _ in range(10):
            states = lo + rng.uniform(size=(tg.size, 8)) * (hi - lo)
            u0 = grid(lo + rng.uniform(size=8) * (hi - lo))
            image = mv.picard_step(prob, u0, mv.Trajectory(tg, states))
            assert np.min(image.states - lo) >= -1e-12
            assert np.min(hi - image.states) >= -1e-12

    def test_unscaled_neumann_rejected(self):
        gen = mv.build_laplacian_1d(6, "neumann")  # lambda_1 = 0
        interval = mv.OrderInterval(grid(np.zeros(6)), grid(np.ones(6)))
        prob = mv.ProblemSpec(gen, mv.logistic(1.0, 2.0), interval)
        traj = constant_trajectory(grid(np.zeros(6)), 1.0, 0.01)
        with pytest.raises(ValidationError, match="shift"):
            mv.picard_step(prob, grid(np.zeros(6)), traj)


class TestMildResidual:
    def test_fixed_point_has_small_residual(self, scalar_scenario):
        prob = scalar_scenario.problem(horizon=5.0, dt=0.001)
        rpt = mv.iterate(prob, grid([0.0]), tol=1e-11)
        assert mv.mild_residual(mv.auto_scale(prob), rpt.u_max) <= 1e-9

    def test_closed_form_branch_first_order(self, scalar_scenario):
        residuals = []
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        for dt in dts:
            prob = mv.auto_scale(scalar_scenario.problem(horizon=4.0, dt=dt))
            tg = time_grid(4.0, dt)
            traj = mv.Trajectory(tg, closed_branch(tg)[:, None])
            residuals.append(mv.mild_residual(prob, traj))
        slope = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
        assert 0.8 <= slope <= 1.2
        assert np.all(np.diff(residuals) < 0)  # halving dt shrinks the residual

    def test_constant_non_equilibrium_stays_away(self, scalar_scenario):
        for dt in (1e-2, 1e-3):
            prob = mv.auto_scale(scalar_scenario.problem(horizon=2.0, dt=dt))
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
        and a strided two-component state array."""
        import csv

        tg = time_grid(6.01, 0.01)
        shape = (tg.size, 2, 4)
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        block[0, 0, :2] = [-0.0, 1e-300]
        block[-1, 0, 2:] = [-1e-300, 0.0]
        traj = mv.Trajectory(tg, block[:, 0], components=2)  # a strided view
        assert not traj.states.flags["C_CONTIGUOUS"]
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
