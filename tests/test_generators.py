"""Generators: stencils, semigroup/resolvent, principal eigenpairs,
admissibility certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import mevolve as mv
from mevolve.errors import DimensionMismatchError, NumericalError, ValidationError
from mevolve.generators import (
    EIG_MAX_ITER,
    EIG_RESIDUAL_TOL,
    NORMAL_MIN,
    TAYLOR_X,
    _band_symmetrizer,
    _is_irreducible,
    _is_tridiagonal,
    _symmetrizer,
    propagator_matrices,
    scalar_generator,
    trapezoid_weights,
)

from conftest import bench_module, count_solvers, dense_generator_matrix

workloads = bench_module("workloads")  # the benchmark's workload definitions


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
        # the band's running product is its scaling to the last bit, and on
        # a path the dense route's breadth-first forest multiplies the ratios
        # in the same order
        robin = mv.build_laplacian_1d(99, "robin", beta=1.0)
        neumann = mv.build_laplacian_1d(12, "neumann")
        one_sided = robin.matrix.copy()
        one_sided[4, 5] = 0.0  # the pair (4, 5) is no mutual edge: restart at 5
        for m, starts in (
            (robin.matrix, {0}),
            (mv.block_generator([neumann, neumann]).matrix, {0, 12}),
            (one_sided, {0, 5}),
        ):
            expected = [1.0]
            for i in range(1, m.shape[0]):
                if i in starts:
                    expected.append(1.0)
                else:
                    expected.append(expected[-1] * np.sqrt(m[i, i - 1] / m[i - 1, i]))
            assert np.array_equal(_band_symmetrizer(np.diag(m, -1), np.diag(m, 1)), expected)
            assert np.array_equal(_symmetrizer(m), expected)

    def test_cycle_inconsistent_beyond_round_off_rejected(self):
        s = periodic_laplacian(8)
        s[0, -1] *= 1.0 + 1e-9  # the edge closing the cycle
        with pytest.raises(ValidationError, match="symmetrizable"):
            mv.GeneratorSpec(s, 1.0, "system").min_eigenvalue()


BAND_CASES = [
    f"{bc}{n}" for bc in ("dirichlet", "neumann", "robin") for n in (2, 3, 60, 160)
] + ["block_pair", "potential", "shifted"]


@pytest.fixture(scope="module")
def band_generators():
    """Tridiagonal generators: the three closures, a block-diagonal pair, a
    potential with both signs and a constant potential (A + 2.5 I)."""
    cases = {}
    for bc, beta in (("dirichlet", None), ("neumann", None), ("robin", 0.7)):
        for n in (2, 3, 60, 160):
            cases[f"{bc}{n}"] = mv.build_laplacian_1d(n, bc, beta)
    neumann = mv.build_laplacian_1d(60, "neumann")
    cases["block_pair"] = mv.block_generator([neumann, mv.build_laplacian_1d(60, "dirichlet")])
    weight = 8.0 * np.sin(2 * np.pi * mv.generators.mesh_nodes(neumann))
    cases["potential"] = mv.add_potential(neumann, -weight)
    cases["shifted"] = mv.add_potential(mv.build_laplacian_1d(60, "robin", 0.7), np.full(60, 2.5))
    assert sorted(cases) == sorted(BAND_CASES)
    return cases


def csgraph_irreducible(m):
    """Strong connectivity of the off-diagonal graph by a graph search."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix((np.abs(m) > 0) & ~np.eye(m.shape[0], dtype=bool))
    return connected_components(adj, directed=True, connection="strong")[0] == 1


class TestBandPath:
    """Tridiagonal generators factorize on their band; the dense eigh and
    the graph searches are the oracles."""

    @pytest.mark.parametrize("case", BAND_CASES)
    def test_eigenvalues_match_the_dense_solver(self, band_generators, case, monkeypatch):
        gen = band_generators[case]
        fresh = mv.GeneratorSpec(gen.matrix, gen.mesh_h, gen.bc)
        calls = count_solvers(monkeypatch)
        w = fresh._eig_factors()[1]
        assert calls == ["eigh_tridiagonal"]
        monkeypatch.undo()
        d = _symmetrizer(gen.matrix)
        oracle = scipy.linalg.eigvalsh(gen.matrix * np.outer(1.0 / d, d))
        bound = 1e-12 * np.max(np.abs(gen.matrix))
        assert np.max(np.abs(w - oracle)) <= bound
        # and so does the fixture's own factorization, cached on first use
        assert np.max(np.abs(gen._eig_factors()[1] - oracle)) <= bound

    @pytest.mark.parametrize("case", BAND_CASES)
    def test_propagators_match_expm_and_solve(self, band_generators, case):
        gen = band_generators[case]
        # the weights of A + mu I: the oracles need a positive spectrum
        # (Neumann's starts at 0)
        mu = max(0.0, -gen.min_eigenvalue()) + 1.0
        a = gen.matrix + mu * np.eye(gen.dim)
        dt = 0.02
        p, w0, w1 = propagator_matrices(gen, dt, mu)
        assert np.max(np.abs(p - scipy.linalg.expm(-dt * a))) <= 1e-12
        oracle = np.linalg.solve(a, np.eye(gen.dim) - p)
        assert np.max(np.abs(w0 + w1 - oracle)) <= 1e-12

    @pytest.mark.parametrize("dt", [1e-3, 0.02, 0.05])
    @pytest.mark.parametrize("case", BAND_CASES)
    def test_trapezoid_weights_match_expm_and_solves(self, band_generators, case, dt):
        # W1 = A^-2 (dt A - I + e^{-dt A}) / dt and W0 + W1 = A^-1 (I - e^{-dt A}),
        # through scipy's expm and dense solves.  Each oracle's own round-off
        # sets the scale: the solves carry n eps ||A^-1||, and W1's numerator,
        # whose terms are as large as 1 + dt ||A|| while it is about
        # (dt A)^2 / 2, carries n eps (1 + dt ||A||) ||A^-1||^2 / dt
        gen = band_generators[case]
        mu = max(0.0, -gen.min_eigenvalue()) + 1.0
        n, eps = gen.dim, np.finfo(float).eps
        eye = np.eye(n)
        a = gen.matrix + mu * eye
        decay = scipy.linalg.expm(-dt * a)
        inverse = np.linalg.norm(np.linalg.inv(a), np.inf)
        p, w0, w1 = propagator_matrices(gen, dt, mu)
        w1_oracle = np.linalg.solve(a, np.linalg.solve(a, dt * a - eye + decay)) / dt
        scale = n * eps * (1.0 + dt * np.linalg.norm(a, np.inf)) * inverse**2 / dt
        assert np.max(np.abs(w1 - w1_oracle)) <= scale
        b_oracle = np.linalg.solve(a, eye - decay)
        assert np.max(np.abs(w0 + w1 - b_oracle)) <= n * eps * inverse
        # and the weights are integrals of e^{-sA} >= 0 against weights >= 0
        assert w0.min() >= 0.0 and w1.min() >= 0.0
        assert not np.signbit(w0).any() and not np.signbit(w1).any()

    def test_scalar_weights_match_the_exact_series(self):
        # f0(w) = (phi1 - phi2)(-x) and f1(w) = phi2(-x) at dt = 1, x = w,
        # where the product with dt is exact, against their Taylor series
        # summed exactly in rationals: the direct formulas lose about 8
        # digits at x = 1e-7.  Within 2 ulps from the series, 4 from the
        # direct formulas, whose worst case (3.85 ulps of f0) lies just
        # above x = TAYLOR_X, where f0's two terms cancel most
        xs = np.concatenate([np.geomspace(1e-8, 20.0, 61), np.linspace(0.5, 1.0, 101),
                             np.linspace(1.0, 1.5, 301), [np.nextafter(TAYLOR_X, 2.0)]])
        f0, f1 = trapezoid_weights(xs, 1.0)
        for x, got0, got1 in zip(xs.tolist(), f0.tolist(), f1.tolist()):
            exact0 = exact1 = Fraction(0)
            term, j = Fraction(1, 2), 0  # (-x)^j / (j + 2)!
            while j < 20 or abs(term) * (j + 1) > Fraction(1, 10**40):
                exact0 += term * (j + 1)
                exact1 += term
                j += 1
                term *= Fraction(-x) / (j + 2)
            ulps = 2 if x <= TAYLOR_X else 4
            for got, exact in ((got0, exact0), (got1, exact1)):
                want = float(exact)
                assert abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(want)), x

    def test_a_dense_generator_goes_through_eigh(self, monkeypatch):
        dense = dense_generator_matrix()
        assert not _is_tridiagonal(dense)
        calls = count_solvers(monkeypatch)
        # Newton's 7 x 7 dense generator admits no symmetrizing scaling ...
        with pytest.raises(ValidationError, match="symmetrizable"):
            mv.GeneratorSpec(dense, 1.0, "dense").min_eigenvalue()
        assert calls == []
        # ... and its symmetric part, conjugated by a positive diagonal, does
        s = 0.5 * (dense + dense.T)
        d = np.linspace(1.0, 2.0, 7)
        w = mv.GeneratorSpec(d[:, None] * s / d[None, :], 1.0, "dense")._eig_factors()[1]
        assert calls == ["eigh"]
        monkeypatch.undo()
        assert np.max(np.abs(w - scipy.linalg.eigvalsh(s))) <= 1e-12 * np.max(np.abs(s))

    def test_irreducibility_matches_the_graph_search(self):
        rng = np.random.default_rng(11)
        answers = set()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            lower, upper = (
                -rng.uniform(0.1, 1.0, n - 1) * (rng.random(n - 1) < 0.8) for _ in range(2)
            )
            m = np.diag(rng.uniform(1.0, 3.0, n)) + np.diag(lower, -1) + np.diag(upper, 1)
            assert _is_tridiagonal(m)
            answers.add(_is_irreducible(m, True))
            assert _is_irreducible(m, True) == csgraph_irreducible(m)
        assert answers == {True, False}

    def test_scalar_is_a_band_of_one(self):
        m = np.array([[3.0]])
        assert _is_tridiagonal(m) and _is_irreducible(m, True)
        assert np.array_equal(_band_symmetrizer(np.diag(m, -1), np.diag(m, 1)), [1.0])


SPECTRAL_CASES = BAND_CASES + [
    "sweep-dirichlet99", "sweep-robin99", "windows-neumann60", "setup-system120",
    "mesh-neumann160",
]


@pytest.fixture(scope="module")
def spectral_generators(band_generators):
    """The tridiagonal generators of BAND_CASES and the generator of every
    seed-1 benchmark config on a mesh."""
    cases = dict(band_generators)
    for workload in ("sweep", "windows", "setup", "mesh"):
        for cfg in workloads.configs(workload, workloads.DEFAULT_SEED):
            if "n" in cfg:
                gen = mv.build_from_config(cfg["scenario"], cfg["params"], cfg["n"], cfg["bc"],
                                           cfg.get("beta")).A
                cases[f"{workload}-{gen.bc}{gen.dim}"] = gen
    assert sorted(cases) == sorted(SPECTRAL_CASES)
    return cases


def recording_matmuls(a):
    """A view of `a` whose ufunc results are views of the same kind, and the
    list that receives the operands of every matmul made with them."""
    calls = []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [np.asarray(x) for x in inputs]
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
            if ufunc is np.matmul:
                calls.append(inputs)
            result = getattr(ufunc, method)(*inputs, **kwargs)
            return result.view(Recorded) if isinstance(result, np.ndarray) else result

    return a.view(Recorded), calls


class TestSpectralFactors:
    """A tridiagonal generator is scaled on its band and factorized by
    LAPACK's divide-and-conquer solver stevd; P's spectral sum leaves out
    the terms below float64's normal range."""

    @pytest.mark.parametrize("case", SPECTRAL_CASES)
    def test_eigenvectors_are_orthogonal_to_a_few_eps(self, spectral_generators, case):
        # stevd: at most 2.3e-15 (10.5 eps); the MRRR solver stemr left
        # 1.0-1.7e-13 on the meshes of 60 nodes and more
        q = spectral_generators[case]._eig_factors()[2]
        assert np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("dt", [1e-3, 0.02, 0.05])
    @pytest.mark.parametrize("case", SPECTRAL_CASES)
    def test_p_is_the_full_spectral_sum_without_subnormal_operands(
        self, spectral_generators, case, dt
    ):
        gen = spectral_generators[case]
        mu = max(0.0, -gen.min_eigenvalue()) + 1.0
        d, w, q = gen._eig_factors()
        view, calls = recording_matmuls(q)
        p, w0, w1 = propagator_matrices(
            mv.GeneratorSpec(gen.matrix, gen.mesh_h, gen.bc, _eig=(d, w, view)), dt, mu)
        # the sum over every eigenpair of A + mu I, clipped
        full = gen.function_matrix(lambda w: np.exp(-dt * (w + mu)))
        np.maximum(full, 0.0, out=full)
        # bit for bit where the BLAS adds each entry's terms in k order
        # whatever the inner dimension: the tripwire for a kernel that does not
        assert np.asarray(p).tobytes() == full.tobytes()
        assert len(calls) == 3  # P's GEMM, then the ones of W0 and W1
        # over the eigenpairs whose weight has not underflowed
        assert calls[0][0].shape[1] == np.count_nonzero(np.exp(-dt * (w + mu)) >= NORMAL_MIN)
        for operand in (*calls[0], *calls[1], *calls[2], p, w0, w1):
            assert not np.any((operand != 0.0) & (np.abs(operand) < NORMAL_MIN))

    @pytest.mark.parametrize("case", BAND_CASES)
    def test_band_scaling_is_the_dense_scaling_on_the_band(self, band_generators, case,
                                                           monkeypatch):
        gen = band_generators[case]
        solver, bands = scipy.linalg.eigh_tridiagonal, []

        def recording(diag, low, **kwargs):
            bands.append((diag, low, kwargs))
            return solver(diag, low, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
        mv.GeneratorSpec(gen.matrix, gen.mesh_h, gen.bc)._eig_factors()
        (diag, low, kwargs), = bands
        assert kwargs == {"lapack_driver": "stevd"}
        d = _symmetrizer(gen.matrix)
        sym = gen.matrix * np.outer(1.0 / d, d)
        assert diag.tobytes() == np.diag(sym).tobytes()
        assert low.tobytes() == np.diag(sym, -1).tobytes()

    @pytest.mark.parametrize("defect", ["one_sided", "nan_diagonal", "nan_off_diagonal"])
    def test_a_band_without_a_scaling_is_rejected(self, defect):
        m = mv.build_laplacian_1d(12, "robin", 0.7).matrix.copy()
        if defect == "one_sided":  # (5, 4) stays: no scaling makes the pair symmetric
            m[4, 5] = 0.0
        elif defect == "nan_diagonal":
            m[6, 6] = np.nan
        else:
            m[6, 7] = np.nan
        assert _is_tridiagonal(m)
        with pytest.raises(ValidationError, match="symmetrizable"):
            mv.GeneratorSpec(m, 1.0, "system").min_eigenvalue()

    def test_a_one_by_one_generator_factorizes(self):
        d, w, q = scalar_generator(3.0)._eig_factors()
        assert (d.tolist(), w.tolist(), q.tolist()) == ([1.0], [3.0], [[1.0]])
        p, w0, w1 = propagator_matrices(scalar_generator(3.0), 0.1, 0.0)
        assert p.tolist() == [[math.exp(-0.1 * 3.0)]]
        f0, f1 = trapezoid_weights(np.array([3.0]), 0.1)
        assert w0.tolist() == [f0.tolist()] and w1.tolist() == [f1.tolist()]
        # e^{-1e4} underflows: P's sum keeps no term, and W0 and W1 their one,
        # 1 / (dt w^2) and (dt w - 1) / (dt w^2)
        p, w0, w1 = propagator_matrices(scalar_generator(1e4), 1.0, 0.0)
        assert p.tolist() == [[0.0]]
        assert w0.tolist() == [[1e-8]] and w1.tolist() == [[(1e4 - 1.0) / 1e8]]


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
        gen = mv.add_potential(mv.build_laplacian_1d(8, "neumann"), np.ones(8))
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

    @pytest.mark.parametrize("n, bc", [
        (600, "dirichlet"), (600, "neumann"), (600, "robin"), (1000, "dirichlet"),
    ])
    def test_large_meshes_converge(self, n, bc):
        # the residual's rounding floor, about eps ||A||_inf = 4 eps (n + 1)^2,
        # passes EIG_RESIDUAL_TOL from n of about 500: the stop test follows it
        gen = mv.build_laplacian_1d(n, bc, 0.5 if bc == "robin" else None)
        assert 4.0 * np.finfo(float).eps * gen.inf_norm() > EIG_RESIDUAL_TOL
        pair = mv.principal_eig(gen)
        assert np.min(pair.phi0.values) > 0.0
        if bc == "dirichlet":
            exact = closed_form_lambda1(n)
            assert abs(pair.lambda1 - exact) <= 1e-9 * exact
        elif bc == "neumann":
            assert abs(pair.lambda1) <= 1e-9
        else:
            d = _symmetrizer(gen.matrix)
            exact = scipy.linalg.eigvalsh(gen.matrix * np.outer(1.0 / d, d))[0]
            assert abs(pair.lambda1 - exact) <= 1e-9 * exact

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


def lu_oracle_principal_eig(a):
    """principal_eig through scipy.linalg.lu_factor/lu_solve, with the
    long-double Rayleigh quotient on the dense matrix: (lambda1, phi0) in
    the bits the direct LAPACK calls and the banded quotient must keep."""
    m = a.matrix
    if not _is_irreducible(m, _is_tridiagonal(m)):
        raise ValidationError("principal eigenpair needs an irreducible generator")
    gershgorin_low = float(np.min(np.diag(m) - np.sum(np.abs(m - np.diag(np.diag(m))), axis=1)))
    sigma = max(0.0, -gershgorin_low) + 1.0
    lu, piv = scipy.linalg.lu_factor(sigma * np.eye(a.dim) + m)
    x = np.ones(a.dim)
    for _ in range(EIG_MAX_ITER):
        x = scipy.linalg.lu_solve((lu, piv), x)
        x /= np.max(np.abs(x))
        mx = m @ x
        lam = float(x @ mx / (x @ x))
        if np.max(np.abs(mx - lam * x)) <= EIG_RESIDUAL_TOL:
            break
    else:
        raise NumericalError("inverse power iteration did not converge")
    if np.sum(x) < 0:
        x = -x
    xl = x.astype(np.longdouble)
    lam = float((xl @ (m.astype(np.longdouble) @ xl)) / (xl @ xl))
    x = x / np.max(np.abs(x))
    if np.min(x) <= 0:
        raise NumericalError("principal eigenvector is not entrywise positive")
    return lam, x


def eig_outcome(solver, gen):
    """(lambda1, phi0 bytes) of one solver, or the type of what it raised."""
    try:
        lam, phi0 = solver(gen)
    except Exception as exc:  # the exception type is compared
        return type(exc)
    return lam, phi0.tobytes()


class TestPrincipalEigBits:
    """principal_eig against the lu_factor/lu_solve oracle, bit for bit."""

    @staticmethod
    def library(gen):
        pair = mv.principal_eig(gen)
        return pair.lambda1, pair.phi0.values

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 100.0])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
    def test_matches_the_lu_oracle(self, bc, scale):
        for n in (2, 3, 8, 17, 60, 99, 160):
            gen = mv.build_laplacian_1d(n, bc, 1.0 if bc == "robin" else None)
            if scale:
                potential = scale * np.random.default_rng(n).uniform(-1.0, 1.0, n)
                gen = mv.add_potential(gen, potential)
            assert eig_outcome(self.library, gen) == eig_outcome(lu_oracle_principal_eig, gen)

    def test_conservative_random_band_matches_the_lu_oracle(self):
        # random off-diagonals and row sums near 0: lambda1 is small against
        # the terms of A x, so the rounding of each long-double row shows in
        # its float64 value (on the Laplacians above the rows mostly add
        # exactly, in any order)
        for n in (2, 3, 8, 17, 60, 99, 160):
            rng = np.random.default_rng(n)
            m = np.diag(-rng.uniform(0.5, 1.5, n - 1), -1) + np.diag(-rng.uniform(0.5, 1.5, n - 1), 1)
            m = (m - np.diag(m.sum(axis=1))) * n**2 + np.diag(rng.uniform(0.0, 1e-3, n))
            gen = mv.GeneratorSpec(m, 1.0 / n, "random")
            assert eig_outcome(self.library, gen) == eig_outcome(lu_oracle_principal_eig, gen)

    def test_dense_generator_matches_the_lu_oracle(self):
        # off the band, the quotient takes the dense long-double product
        for n in (3, 8, 17):
            gen = mv.GeneratorSpec(periodic_laplacian(n) * n**2, 1.0 / n, "periodic")
            potential = np.random.default_rng(n).uniform(-1.0, 1.0, n)
            gen = mv.add_potential(gen, potential)
            assert not _is_tridiagonal(gen.matrix)
            assert eig_outcome(self.library, gen) == eig_outcome(lu_oracle_principal_eig, gen)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_diagonal_raises_as_lu_factor_does(self, value):
        m = mv.build_laplacian_1d(8, "dirichlet").matrix.copy()
        m[3, 3] = value
        gen = mv.GeneratorSpec(m, 1.0 / 9, "dirichlet")
        assert eig_outcome(lu_oracle_principal_eig, gen) is ValueError
        with pytest.raises(ValueError, match="infs or NaNs"):
            mv.principal_eig(gen)


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
        assert not mv.check_submarkovian(bad)

    @pytest.mark.parametrize("n", [160, 400])
    def test_the_probe_allows_its_own_rounding(self, n):
        # the probe's rounding grows like t eps ||A||: 1.2e-12 at n = 160 and
        # 1.7e-11 at n = 400 above 1, where a fixed 1e-12 made the dual test
        # and the probe disagree, and the scenario build raise
        scen = mv.build_from_config(
            "fisher", {"alpha": 0.5, "m": {"profile": "sin", "amplitude": 8.0, "frequency": 1.0}},
            n, "neumann")
        assert scen.A.dim == n and mv.check_submarkovian(scen.A)

    def test_verify_passes_on_the_mesh_config(self, capsys):
        from mevolve import cli

        (cfg,) = workloads.WORKLOADS["mesh"]
        assert cli.cmd_verify(dict(cfg)) == 0
        out = capsys.readouterr().out.splitlines()
        assert "sub-markovian: True" in out and out[-1] == "certificates: PASS"

    @pytest.mark.parametrize("n", [9, 160, 400])
    def test_a_negative_shift_fails_both_tests(self, n):
        # A - c I: its rows sum to -c < 0 on the Neumann interior, and the
        # probe grows by e^{0.1 c} > 1 + its slack; the tests agree
        gen = mv.build_laplacian_1d(n, "neumann")
        for c in (1e-6 * gen.inf_norm(), 1.0):
            bad = mv.GeneratorSpec(gen.matrix - c * np.eye(n), gen.mesh_h, gen.bc)
            assert not mv.check_submarkovian(bad)


class TestPropagators:
    def test_entrywise_nonnegative_and_consistent(self, dirichlet8, neumann9):
        # neumann9 is not symmetric: its boundary rows carry -2/h^2
        for base in (dirichlet8, neumann9):
            for mu in (0.5, 3.0, 40.0):
                a = base.matrix + mu * np.eye(base.dim)
                # the base eigenvalues plus mu match a fresh factorization of A + mu I
                d = _symmetrizer(a)
                fresh = scipy.linalg.eigvalsh(a * np.outer(1.0 / d, d))
                spread = np.max(np.abs(base._eig_factors()[1] + mu - fresh))
                assert spread <= 1e-12 * np.max(np.abs(base.matrix))
                p, w0, w1 = propagator_matrices(base, 0.05, mu)
                assert np.min(p) >= 0 and np.min(w0) >= 0 and np.min(w1) >= 0
                assert np.allclose(p, scipy.linalg.expm(-0.05 * a), atol=1e-12)
                oracle = np.linalg.solve(a, np.eye(base.dim) - p)
                assert np.allclose(w0 + w1, oracle, atol=1e-12)

    def test_requires_positive_spectrum(self, neumann9):
        with pytest.raises(ValidationError):
            propagator_matrices(neumann9, 0.1, 0.0)  # lambda_1 = 0
        # the shift lifts the spectrum of A + mu I to mu
        p, _, _ = propagator_matrices(neumann9, 0.1, 1.0)
        assert np.allclose(p @ np.ones(9), np.exp(-0.1))
