"""Generators: stencils, semigroup/resolvent, principal eigenpairs,
admissibility certificates."""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import mevolve as mv
from mevolve.errors import DimensionMismatchError, ValidationError
from mevolve.generators import _symmetrizer, propagator_matrices, scalar_generator, shifted


def periodic_laplacian(n):
    eye = np.eye(n)
    return 2.0 * eye - np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)


def closed_form_lambda1(n):
    h = 1.0 / (n + 1)
    return (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2


class TestAssembly:
    def test_dirichlet_n2_textbook_stencil(self):
        gen = mv.build_laplacian_1d(2, "dirichlet")
        h = 1.0 / 3.0
        assert gen.mesh_h == pytest.approx(h)
        assert np.allclose(gen.matrix, np.array([[2, -1], [-1, 2]]) / h**2)

    def test_neumann_row_sums_vanish(self):
        gen = mv.build_laplacian_1d(3, "neumann")
        assert np.allclose(gen.matrix @ np.ones(3), 0.0)

    def test_robin_row_sums(self):
        gen = mv.build_laplacian_1d(3, "robin", beta=1.0)
        sums = gen.matrix @ np.ones(3)
        assert np.all(sums >= 0)
        assert sums[0] > 0 and sums[-1] > 0  # strict at the boundary rows
        assert sums[1] == pytest.approx(0.0)

    def test_small_mesh_rejected(self):
        with pytest.raises(DimensionMismatchError):
            mv.build_laplacian_1d(1, "dirichlet")

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            mv.build_laplacian_1d(5, "robin", beta=-0.5)

    def test_positive_offdiagonal_rejected(self):
        with pytest.raises(ValidationError):
            mv.GeneratorSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1, "dirichlet")

    def test_non_symmetrizable_rejected_on_first_spectral_use(self):
        m = np.array([[2.0, -1.0, 0.0], [0.0, 2.0, -1.0], [-1.0, 0.0, 2.0]])
        gen = mv.GeneratorSpec(m, 1.0, "system")  # construction does not check
        with pytest.raises(ValidationError, match="symmetrizable"):
            mv.semigroup_apply(gen, 0.1, np.ones(3))
        with pytest.raises(ValidationError, match="symmetrizable"):
            gen.min_eigenvalue()

    def test_inconsistent_cycle_rejected_on_first_spectral_use(self):
        # a symmetric pattern whose cycle ratios multiply to 2, not 1
        m = np.array([[3.0, -1.0, -1.0], [-2.0, 3.0, -1.0], [-1.0, -1.0, 3.0]])
        with pytest.raises(ValidationError, match="symmetrizable"):
            mv.GeneratorSpec(m, 1.0, "system").min_eigenvalue()

    def test_consistent_cycle_accepted(self):
        # diag(d) S diag(1/d): the pattern is one cycle whose ratios multiply to 1
        s = periodic_laplacian(8)
        d = np.arange(1.0, 9.0)
        gen = mv.GeneratorSpec(d[:, None] * s / d[None, :], 1.0, "system")
        assert gen.min_eigenvalue() == pytest.approx(
            scipy.linalg.eigvalsh(s)[0], abs=1e-12)

    def test_band_scaling_is_the_running_product_of_ratios(self):
        # on a path the forest multiplies the ratios in band order, so the
        # scaling (and every spectral result) is the same to the last bit
        robin = mv.build_laplacian_1d(99, "robin", beta=1.0)
        neumann = mv.build_laplacian_1d(12, "neumann")
        for gen, starts in ((robin, {0}), (mv.block_generator([neumann, neumann]), {0, 12})):
            m = gen.matrix
            expected = [1.0]
            for i in range(1, gen.dim):
                if i in starts:
                    expected.append(1.0)
                else:
                    expected.append(expected[-1] * np.sqrt(m[i, i - 1] / m[i - 1, i]))
            assert np.array_equal(_symmetrizer(m), expected)

    def test_cycle_inconsistent_beyond_round_off_rejected(self):
        s = periodic_laplacian(8)
        s[0, -1] *= 1.0 + 1e-9  # the edge closing the cycle
        with pytest.raises(ValidationError, match="symmetrizable"):
            mv.GeneratorSpec(s, 1.0, "system").min_eigenvalue()


class TestSemigroup:
    def test_identity_at_t_zero(self, dirichlet8, rng):
        v = rng.normal(size=8)
        assert np.array_equal(mv.semigroup_apply(dirichlet8, 0.0, v), v)

    def test_scalar_decay(self):
        gen = scalar_generator(1.7)
        for t in (0.1, 1.0, 3.0):
            out = mv.semigroup_apply(gen, t, np.array([1.0]))
            assert out[0] == pytest.approx(np.exp(-1.7 * t), rel=1e-12)

    def test_neumann_preserves_constants(self, neumann9):
        ones = np.ones(9)
        for t in (0.01, 0.5, 2.0):
            out = mv.semigroup_apply(neumann9, t, ones)
            assert np.allclose(out, 1.0, atol=1e-12)

    def test_negative_time_rejected(self, dirichlet8):
        with pytest.raises(ValidationError):
            mv.semigroup_apply(dirichlet8, -0.1, np.ones(8))

    def test_positivity_randomized(self, dirichlet8, rng):
        worst = 0.0
        for _ in range(1000):
            v = rng.uniform(0, 1, size=8)
            t = rng.uniform(0, 5)
            worst = min(worst, np.min(mv.semigroup_apply(dirichlet8, t, v)))
        assert worst >= -1e-12

    def test_semigroup_law(self, neumann9, rng):
        for _ in range(50):
            v = rng.normal(size=9)
            t, s = rng.uniform(0, 2, size=2)
            via_two = mv.semigroup_apply(neumann9, t, mv.semigroup_apply(neumann9, s, v))
            direct = mv.semigroup_apply(neumann9, t + s, v)
            assert np.max(np.abs(via_two - direct)) <= 1e-10 * np.max(np.abs(v))

    def test_matches_dense_expm(self, dirichlet8, rng):
        v = rng.normal(size=8)
        ours = mv.semigroup_apply(dirichlet8, 0.3, v)
        oracle = scipy.linalg.expm(-0.3 * dirichlet8.matrix) @ v
        assert np.allclose(ours, oracle, atol=1e-11)


class TestResolvent:
    def test_dirichlet_parabola(self):
        # -u'' = 1, u(0)=u(1)=0 has solution x(1-x)/2; second differences are
        # exact on quadratics, so the discrete solve hits the samples exactly
        gen = mv.build_laplacian_1d(50, "dirichlet")
        x = mv.mesh_nodes(gen)
        sol = scipy.linalg.solve(gen.matrix, np.ones(50))
        assert np.max(np.abs(sol - x * (1 - x) / 2)) <= 1e-10
        assert np.min(sol) > 0

    def test_laplace_transform_consistency(self):
        # resolvent at 0 equals the integral of the semigroup when stable
        gen = shifted(mv.build_laplacian_1d(8, "neumann"), 1.0)
        v = np.linspace(0.2, 1.0, 8)
        direct = scipy.linalg.solve(gen.matrix, v)
        quad, _ = scipy.integrate.quad_vec(
            lambda t: mv.semigroup_apply(gen, t, v), 0.0, 60.0, epsabs=1e-9
        )
        assert np.max(np.abs(direct - quad)) <= 1e-6


class TestPrincipalEig:
    def test_dirichlet_closed_form(self):
        for n in (5, 20, 99):
            gen = mv.build_laplacian_1d(n, "dirichlet")
            pair = mv.principal_eig(gen)
            assert abs(pair.lambda1 - closed_form_lambda1(n)) <= 1e-12
            dense = np.sort(scipy.linalg.eigvalsh(gen.matrix))[0]
            assert pair.lambda1 == pytest.approx(dense, abs=1e-9)

    def test_dirichlet_n99_near_pi_squared(self):
        pair = mv.principal_eig(mv.build_laplacian_1d(99, "dirichlet"))
        assert abs(pair.lambda1 - np.pi**2) / np.pi**2 < 1e-3

    def test_neumann_perron_pair(self, neumann9):
        pair = mv.principal_eig(neumann9)
        assert abs(pair.lambda1) <= 1e-11
        assert np.allclose(pair.phi0.values, 1.0, atol=1e-9)

    def test_residual_and_normalization(self, dirichlet8):
        pair = mv.principal_eig(dirichlet8)
        res = dirichlet8.matrix @ pair.phi0.values - pair.lambda1 * pair.phi0.values
        assert np.max(np.abs(res)) <= 1e-10
        assert np.max(np.abs(pair.phi0.values)) == pytest.approx(1.0)
        assert np.min(pair.phi0.values) > 0

    def test_reducible_rejected(self):
        m = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            mv.principal_eig(mv.GeneratorSpec(m, 0.5, "system"))

    def test_robin_sweep_trends_to_dirichlet(self):
        n = 40
        dirichlet_value = mv.principal_eig(mv.build_laplacian_1d(n, "dirichlet")).lambda1
        lams = [
            mv.principal_eig(mv.build_laplacian_1d(n, "robin", beta=b)).lambda1
            for b in (0.0, 1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(np.diff(lams) > 0)  # monotone in beta
        assert lams[0] == pytest.approx(0.0, abs=1e-11)
        assert abs(lams[-1] - dirichlet_value) < 0.5


class TestPotentials:
    def test_constant_potential_shifts_exactly(self, dirichlet8):
        base = mv.principal_eig(dirichlet8).lambda1
        bumped = mv.add_potential(dirichlet8, 2.5 * np.ones(8))
        assert mv.principal_eig(bumped).lambda1 == pytest.approx(base + 2.5, abs=1e-11)

    def test_zero_potential_is_identity(self, dirichlet8):
        out = mv.add_potential(dirichlet8, np.zeros(8))
        assert np.array_equal(out.matrix, dirichlet8.matrix)

    def test_single_node_bump_strictly_increases(self, dirichlet8):
        base = mv.principal_eig(dirichlet8).lambda1
        m = np.zeros(8)
        m[3] = 1.0
        bumped = mv.principal_eig(mv.add_potential(dirichlet8, m)).lambda1
        dense = np.sort(scipy.linalg.eigvalsh(dirichlet8.matrix + np.diag(m)))[0]
        assert bumped > base
        assert bumped == pytest.approx(dense, abs=1e-9)

    def test_strict_monotonicity_randomized(self, rng):
        gen = mv.build_laplacian_1d(25, "dirichlet")
        for _ in range(30):
            m1 = rng.uniform(0, 1, size=25)
            m2 = m1.copy()
            m2[rng.integers(25)] += rng.uniform(0.1, 1.0)
            lam1 = mv.principal_eig(mv.add_potential(gen, m1)).lambda1
            lam2 = mv.principal_eig(mv.add_potential(gen, m2)).lambda1
            assert lam2 > lam1

    def test_dimension_mismatch(self, dirichlet8):
        with pytest.raises(DimensionMismatchError):
            mv.add_potential(dirichlet8, np.ones(5))


class TestSubmarkovian:
    def test_neumann_conserves_ones(self, neumann9):
        assert mv.check_submarkovian(neumann9)
        out = mv.semigroup_apply(neumann9, 0.7, np.ones(9))
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_dirichlet_strict_interior(self, dirichlet8):
        assert mv.check_submarkovian(dirichlet8)
        out = mv.semigroup_apply(dirichlet8, 0.05, np.ones(8))
        assert np.all(out < 1.0)

    def test_negative_potential_breaks_it(self, neumann9):
        bad = mv.add_potential(neumann9, -np.ones(9))
        assert not mv.check_submarkovian(bad, t_probe=0.5)

    def test_bad_probe_rejected(self, neumann9):
        with pytest.raises(ValidationError):
            mv.check_submarkovian(neumann9, t_probe=0.0)


class TestPropagators:
    def test_entrywise_nonnegative_and_consistent(self, dirichlet8, neumann9):
        # neumann9 is not symmetric: its boundary rows carry -2/h^2
        for base in (dirichlet8, neumann9):
            for mu in (0.5, 3.0, 40.0):
                gen = shifted(base, mu)
                # the reused base eigenbasis matches a fresh factorization
                d = _symmetrizer(gen.matrix)
                fresh = scipy.linalg.eigvalsh(gen.matrix * np.outer(1.0 / d, d))
                spread = np.max(np.abs(gen._eig_factors()[1] - fresh))
                assert spread <= 1e-12 * np.max(np.abs(base.matrix))
                p, b = propagator_matrices(gen, 0.05)
                assert np.min(p) >= 0 and np.min(b) >= 0
                assert np.allclose(p, scipy.linalg.expm(-0.05 * gen.matrix), atol=1e-12)
                oracle = np.linalg.solve(gen.matrix, np.eye(base.dim) - p)
                assert np.allclose(b, oracle, atol=1e-12)

    def test_requires_positive_spectrum(self, neumann9):
        with pytest.raises(ValidationError):
            propagator_matrices(neumann9, 0.1)  # lambda_1 = 0
