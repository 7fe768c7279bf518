"""Discrete generators of positive semigroups.

A generator here is a real n x n matrix A with nonpositive off-diagonal
entries, so that e^{-tA} and (lambda I + A)^{-1} (for admissible lambda) are
entrywise nonnegative.  Provided constructors assemble 1-D second-difference
Laplacians on the unit interval with Dirichlet, Neumann or Robin closures;
potentials add a diagonal.  Systems are block-diagonal compositions.

All matrix functions run through a cached eigendecomposition of a
diagonally-symmetrized copy of the matrix, and one entrywise test of the
scaled matrix checks it is symmetric.  Every scenario generator is
tridiagonal (a 1-D Laplacian, a block-diagonal pair of them, a 1 x 1
matrix), and such a matrix stays on its band: the scaling is the running
product of the off-diagonal ratios, restarting wherever the band breaks,
the scaled entries and the symmetry test are computed on the three
diagonals alone, and LAPACK's divide-and-conquer solver (stevd)
factorizes the scaled band without the dense reduction.  Any other matrix
reads its scaling off a breadth-first spanning forest of the off-diagonal
pattern and goes through the dense eigh.  A generator that admits no
scaling (an asymmetric pattern, or a cycle whose ratios do not multiply to
1) is rejected with a ValidationError on its first spectral use.  The step
weights (P, W0, W1) of the exponential trapezoid rule are those of A + mu*I
for the march's shift mu, which keeps the eigenvectors and the scaling of
A: they are read off A's own eigenpairs at w + mu and cached on A by
(mu, dt), and P leaves out the terms of its spectral sum that have
underflowed (`propagator_matrices`).

Linear solves with A minus a node-local term (Newton's matrix) run on A's
band once the components are interleaved node by node (`node_band`): one
banded LU, tridiagonal for a scalar Laplacian and pentadiagonal for a pair
of species.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NumericalError, ValidationError
from .order import TOL_ORDER, GridFunction, monotone_norm

EIG_RESIDUAL_TOL = 1e-10
EIG_MAX_ITER = 500  # inverse power iterations before principal_eig gives up
SYMMETRY_RTOL = 1e-10  # entrywise |S - S^T| <= SYMMETRY_RTOL |S| for the scaled S
SUBMARKOV_PROBE_T = 0.1  # time of check_submarkovian's semigroup probe
NORMAL_MIN = np.finfo(np.float64).tiny  # 2^-1022, float64's smallest normal number
_EPS = np.finfo(np.float64).eps


@dataclass
class GeneratorSpec:
    """Matrix generator with mesh metadata; -A generates e^{-tA}.

    Treated as immutable after construction.  The eigendecomposition is
    computed once on first use (single assignment) and shared by all
    apply-style operations, the step weights of A + mu*I among them
    (`propagators`, cached by (mu, dt)).  The node-major band and the
    infinity norm are computed once too.
    """

    matrix: np.ndarray
    mesh_h: float
    bc: str
    _eig: tuple | None = field(default=None, repr=False, compare=False)
    _prop_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _band_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _inf_norm: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        self.matrix = m
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("generator matrix must be square")
        off = m - np.diag(np.diag(m))
        if np.any(off > 0):
            raise ValidationError(
                "positive off-diagonal entries break semigroup positivity"
            )
        if self.mesh_h <= 0:
            raise ValidationError("mesh_h must be positive")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    # -- spectral machinery -------------------------------------------------

    def _eig_factors(self):
        """(d, w, Q) with matrix = diag(d) Q diag(w) Q^T diag(1/d), w ascending.

        A tridiagonal matrix is scaled and tested on its three diagonals, each
        entry computed as in the dense matrix * outer(1/d, d), and LAPACK's
        divide-and-conquer solver stevd factorizes the scaled band; any other
        matrix is scaled densely and goes through eigh.
        """
        if self._eig is None:
            # checked on first spectral use rather than in __post_init__, so
            # a generator that is never factorized (add_potential's copies
            # read by principal_eig) pays for no spectral work
            m = self.matrix
            if _is_tridiagonal(m):
                low, diag, up = (np.diag(m, k) for k in (-1, 0, 1))
                d = _band_symmetrizer(low, up)
                inv = 1.0 / d
                diag, low, up = diag * (inv * d), low * (inv[1:] * d[:-1]), up * (inv[:-1] * d[1:])
                # the off-band entries are zeros, symmetric as they are
                _check_symmetric(np.concatenate((diag, low, up)), np.concatenate((diag, up, low)))
                w, q = scipy.linalg.eigh_tridiagonal(diag, low, lapack_driver="stevd")
            else:
                d = _symmetrizer(m)
                sym = m * np.outer(1.0 / d, d)
                _check_symmetric(sym, sym.T)
                w, q = scipy.linalg.eigh(sym, lower=True)
            self._eig = (d, w, q)
        return self._eig

    def apply_function(self, fn, v: np.ndarray) -> np.ndarray:
        """Evaluate f(A) v through the eigendecomposition."""
        d, w, q = self._eig_factors()
        return d * (q @ (fn(w) * (q.T @ (np.asarray(v, dtype=float) / d))))

    def function_matrix(self, fn) -> np.ndarray:
        d, w, q = self._eig_factors()
        return (d[:, None] * q) @ (fn(w)[:, None] * (q.T / d[None, :]))

    def min_eigenvalue(self) -> float:
        return float(self._eig_factors()[1][0])

    def propagators(self, dt: float, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`propagator_matrices(self, dt, mu)`, the step's weights (P, W0, W1)
        of A + mu*I, built once per (mu, dt)."""
        key = (mu, dt)
        if key not in self._prop_cache:
            self._prop_cache[key] = propagator_matrices(self, dt, mu)
        return self._prop_cache[key]

    def node_band(self, components: int) -> NodeBand:
        """The matrix in node-major order, built once per component count."""
        if components not in self._band_cache:
            self._band_cache[components] = _node_band(self.matrix, components)
        return self._band_cache[components]

    def inf_norm(self) -> float:
        """The largest absolute row sum of the matrix, computed once."""
        if self._inf_norm is None:
            self._inf_norm = float(np.max(np.sum(np.abs(self.matrix), axis=1)))
        return self._inf_norm


class NodeBand(NamedTuple):
    """A generator with its c components interleaved node by node, in the
    band storage of scipy.linalg.solve_banded.

    Node-major entry k is blocked entry perm[k] (component k % c at node
    k // c); `inverse` maps back.  `band[upper + i - j, j]` holds entry
    (i, j) of the permuted matrix; the bandwidths are read from its nonzero
    pattern and widened to at least c - 1, so that the node-local c x c
    blocks fit.  `blocks` indexes entry [i, j, k] of those blocks in `band`.
    """

    perm: np.ndarray
    inverse: np.ndarray
    lower_upper: tuple[int, int]
    band: np.ndarray
    blocks: tuple[np.ndarray, np.ndarray]


def _node_band(matrix: np.ndarray, c: int) -> NodeBand:
    dim = matrix.shape[0]
    n = dim // c
    perm = np.arange(dim).reshape(c, n).T.ravel()
    inverse = np.arange(dim).reshape(n, c).T.ravel()
    m = matrix[np.ix_(perm, perm)]
    rows, cols = np.nonzero(m)
    lower = max(c - 1, int(np.max(rows - cols, initial=0)))
    upper = max(c - 1, int(np.max(cols - rows, initial=0)))
    band = np.zeros((lower + upper + 1, dim))
    for d in range(-upper, lower + 1):  # the diagonal of entries (j + d, j)
        band[upper + d, max(0, -d):dim - max(0, d)] = np.diagonal(m, -d)
    comp = np.arange(c)
    blocks = (
        (upper + comp[:, None] - comp[None, :])[:, :, None],
        c * np.arange(n) + comp[None, :, None],
    )
    return NodeBand(perm, inverse, (lower, upper), band, blocks)


def _is_tridiagonal(m: np.ndarray) -> bool:
    """No nonzero entry outside the three central diagonals."""
    on_band = sum(np.count_nonzero(np.diagonal(m, k)) for k in (-1, 0, 1))
    return np.count_nonzero(m) == on_band


def _check_symmetric(sym: np.ndarray, transposed: np.ndarray) -> None:
    """Entrywise |S - S^T| <= SYMMETRY_RTOL |S| for the scaled S, with the
    entries of S^T in `transposed` matched to those of S in `sym`.

    The scaling d is fixed by the spanning forest's edges alone: this test
    checks all the others (a NaN fails it too)."""
    if not np.all(np.abs(sym - transposed) <= SYMMETRY_RTOL * np.abs(sym)):
        raise ValidationError("generator is not symmetrizable by a positive diagonal scaling")


def _band_symmetrizer(low: np.ndarray, up: np.ndarray) -> np.ndarray:
    """`_symmetrizer` of a tridiagonal matrix with sub- and superdiagonal
    low and up: the running product of sqrt(low / up), restarting at 1
    wherever either entry is 0."""
    d = [1.0]
    for below, above in zip(low.tolist(), up.tolist()):
        d.append(d[-1] * math.sqrt(below / above) if below != 0.0 and above != 0.0 else 1.0)
    return np.array(d)


def _symmetrizer(m: np.ndarray) -> np.ndarray:
    """Positive diagonal d with diag(1/d) M diag(d) symmetric if any exists.

    d is 1 at the first node of each connected component of the mutual
    off-diagonal pattern (m[i, j] and m[j, i] both nonzero), and
    d[j] = d[p] * sqrt(m[j, p] / m[p, j]) down the edges (p, j) of a
    breadth-first tree from there.  Only the tree edges are read; the
    caller checks the scaled matrix on every other one.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    pattern = csr_matrix((m != 0.0) & (m.T != 0.0))
    _, labels = connected_components(pattern, directed=False)
    children, parents = [], []
    for root in np.unique(labels, return_index=True)[1]:
        # the pattern is symmetric, so the (faster) directed search suffices
        order, pred = breadth_first_order(pattern, root)
        children.append(order[1:])
        parents.append(pred[order[1:]])
    child, parent = np.concatenate(children), np.concatenate(parents)
    ratios = np.sqrt(m[child, parent] / m[parent, child])
    d = [1.0] * m.shape[0]
    for j, p, r in zip(child.tolist(), parent.tolist(), ratios.tolist()):
        d[j] = d[p] * r
    return np.array(d)


# -- constructors ------------------------------------------------------------


def build_laplacian_1d(n: int, bc: str, beta: float | None = None) -> GeneratorSpec:
    """Second-difference -u'' on the unit interval.

    Dirichlet uses n interior nodes, h = 1/(n+1).  Neumann/Robin are
    vertex-centered including both endpoints, h = 1/(n-1), with the boundary
    rows closed by second-order ghost-node elimination.  Robin imposes
    outward-normal flux -beta*u, beta >= 0.
    """
    if n < 2:
        raise DimensionMismatchError("need at least 2 mesh nodes")
    bc = bc.lower()
    if bc == "dirichlet":
        h = 1.0 / (n + 1)
        m = _tridiag(n, h)
        return GeneratorSpec(m, h, bc)
    if bc in ("neumann", "robin"):
        if bc == "neumann":
            beta = 0.0
        if beta is None or beta < 0:
            raise ValidationError("robin requires beta >= 0")
        h = 1.0 / (n - 1)
        m = _tridiag(n, h)
        # ghost-node elimination: u_{-1} = u_1 - 2 h beta u_0 (and mirrored)
        m[0, 0] = (2.0 + 2.0 * h * beta) / h**2
        m[0, 1] = -2.0 / h**2
        m[-1, -1] = (2.0 + 2.0 * h * beta) / h**2
        m[-1, -2] = -2.0 / h**2
        return GeneratorSpec(m, h, bc)
    raise ValidationError(f"unknown boundary condition {bc!r}")


def _tridiag(n: int, h: float) -> np.ndarray:
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = 2.0 / h**2
    m[idx[:-1], idx[:-1] + 1] = -1.0 / h**2
    m[idx[1:], idx[1:] - 1] = -1.0 / h**2
    return m


def scalar_generator(a: float) -> GeneratorSpec:
    """1x1 generator for scalar ODE examples."""
    return GeneratorSpec(np.array([[float(a)]]), 1.0, "scalar")


def mesh_nodes(a: GeneratorSpec) -> np.ndarray:
    """Physical node coordinates of a 1-D Laplacian mesh."""
    n, h = a.dim, a.mesh_h
    if a.bc == "dirichlet":
        return h * np.arange(1, n + 1)
    if a.bc in ("neumann", "robin"):
        return h * np.arange(n)
    raise ValidationError(f"no mesh attached to bc {a.bc!r}")


def block_generator(blocks: list[GeneratorSpec]) -> GeneratorSpec:
    """Block-diagonal composition for multi-component systems."""
    m = scipy.linalg.block_diag(*[b.matrix for b in blocks])
    return GeneratorSpec(m, blocks[0].mesh_h, "system")


def add_potential(a: GeneratorSpec, m: GridFunction | np.ndarray) -> GeneratorSpec:
    """A + diag(m); keeps the off-diagonal sign pattern untouched."""
    values = m.values if isinstance(m, GridFunction) else np.asarray(m, dtype=float)
    if values.size != a.dim:
        raise DimensionMismatchError("potential length does not match generator")
    return GeneratorSpec(a.matrix + np.diag(values), a.mesh_h, a.bc)


# -- apply operations --------------------------------------------------------


def semigroup_apply(a: GeneratorSpec, t: float, v: GridFunction | np.ndarray) -> np.ndarray:
    """e^{-tA} v; entrywise order-preserving up to round-off."""
    if t < 0:
        raise ValidationError("semigroup time must be >= 0")
    values = v.values if isinstance(v, GridFunction) else np.asarray(v, dtype=float)
    if values.shape[-1] != a.dim:
        raise DimensionMismatchError("vector length does not match generator")
    if t == 0.0:
        return values.copy()
    return a.apply_function(lambda w: np.exp(-t * w), values)


TAYLOR_X = 1.0  # the phi-functions at |dt w| <= TAYLOR_X come from their series
# per power x^j, j = 0 .. 18, the coefficients of (phi1 - phi2)(x) and phi2(x):
# the remainder at |x| = 1 is below 1/21! ~ 2e-20, under a tenth of an ulp
# of either weight
_SERIES = np.array([[(j + 1.0) / math.factorial(j + 2), 1.0 / math.factorial(j + 2)]
                    for j in range(19)])[:, :, None]


def trapezoid_weights(w: np.ndarray, dt: float) -> np.ndarray:
    """[f0(w), f1(w)] = dt [(phi1 - phi2)(-dt w), phi2(-dt w)] entrywise on
    the 1-D array w, as one array of shape (2, w.size),

        f0(w) = (1 - e^{-dt w} (1 + dt w)) / (dt w^2),
        f1(w) = (dt w - 1 + e^{-dt w}) / (dt w^2),

    with phi1(z) = (e^z - 1) / z and phi2(z) = (e^z - 1 - z) / z^2.  Those
    direct formulas cancel as dt w -> 0 (about 8 digits lost at 1e-7), so
    at |x| <= TAYLOR_X, x = dt w, the weights are read off the Taylor
    series phi2(-x) = sum_j (-x)^j / (j + 2)! and (phi1 - phi2)(-x) =
    sum_j (-x)^j (j + 1) / (j + 2)! by Horner's rule; above, the direct
    formulas add terms of one sign, except f0's two (a factor 4 of
    cancellation at x = 1).  Either phi-combination stays within 2 ulps of
    its exact value from the series and within 4 from the direct formulas,
    before the product with dt rounds once more (at most 1.45 and 3.85 on a
    scan of 31000 points, the latter in f0 just above x = 1).
    """
    x = dt * np.asarray(w, dtype=float)
    series = np.abs(x) <= TAYLOR_X
    neg = np.where(series, -x, 0.0)
    acc = _SERIES[-1] * np.ones_like(x)  # both series at once, by Horner's rule
    for coefficients in _SERIES[-2::-1]:
        acc = acc * neg + coefficients
    big = np.where(series, 1.0, x)
    decay = np.exp(-big)
    direct = np.stack((-np.expm1(-big) - big * decay, (big - 1.0) + decay)) / big**2
    return dt * np.where(series, acc, direct)


def propagator_matrices(
    a: GeneratorSpec, dt: float, mu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights (P, W0, W1) of one exponential-trapezoid step of length
    dt for the shifted generator A_mu = A + mu*I,

        u_{k+1} = P u_k + W0 G(u_k) + W1 G(u_{k+1}),

    P = e^{-dt A_mu}, W0 = f0(A_mu) and W1 = f1(A_mu) (`trapezoid_weights`),
    each clipped entrywise >= 0.  W0 + W1 = B = A_mu^{-1}(I - e^{-dt A_mu}),
    the integral of the semigroup over one step, and W1 is its part that
    weights the step's right node.  A_mu has A's eigenvectors and scaling
    and the eigenvalues w + mu, so the weights are read off A's own
    factorization.

    All three are entrywise nonnegative in exact arithmetic (each is an
    integral of e^{-sA_mu} >= 0 against a nonnegative weight); clipping
    round-off negatives makes every downstream matvec exactly
    order-preserving.  Requires the spectrum of A_mu strictly positive:
    the march's shift (`mild.march_shift`) lifts it to at least
    `mild.STABILITY_FLOOR`.

    Each is a spectral sum (d Q) (f(w) (Q^T / d)), W0 and W1 by
    `function_matrix` on the weights of one `trapezoid_weights` call.
    P's sum leaves out its terms below float64's normal range, whose
    subnormal operands slow the GEMM several-fold: the eigenpairs whose
    weight e^{-dt w_k} has
    underflowed (a suffix, since w ascends) and, among the others, the
    entries of f(w) (Q^T / d) that have underflowed (zeroed).  Such a term
    is below 2^-1022 max|d Q| max(1, max|Q^T / d|) in magnitude, under
    half an ulp of any partial sum above 2^54 times that (about 1e-291 for
    these O(1) factors), so it cannot move one.  Every entry of P is an
    exact zero (an off-diagonal block of a block-diagonal Q) or a sum whose
    leading terms are O(1/n), and whose round-off alone is far above that:
    P equals the full sum bit for bit, provided the GEMM adds up each
    entry's terms in k order whatever its inner dimension, so that the
    kept prefix is summed as in the full sum.  The OpenBLAS kernels these
    were checked on do; tests/test_generators.py compares the two sums
    byte for byte as the tripwire.  The weights of W0 and W1 fall off
    like 1 / (dt w^2) and do not underflow, and their operands keep every
    term: the same tests find no subnormal entry in them on any benchmark
    mesh.
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    d, w, q = a._eig_factors()
    w = w + mu
    spectral_floor = max(1e-12, 1e-14 * float(np.max(np.abs(a.matrix + mu * np.eye(a.dim)))))
    if w[0] <= spectral_floor:
        raise ValidationError(
            "the step weights need min eigenvalue of A + mu*I > 0; take a "
            "larger shift mu"
        )
    left, right = d[:, None] * q, q.T / d[None, :]
    decay = np.exp(-dt * w)
    kept = int(np.count_nonzero(decay >= NORMAL_MIN))
    weighted = decay[:kept, None] * right[:kept]
    np.copyto(weighted, 0.0, where=np.abs(weighted) < NORMAL_MIN)
    p = left[:, :kept] @ weighted
    f0, f1 = trapezoid_weights(w, dt)
    w0, w1 = a.function_matrix(lambda _: f0), a.function_matrix(lambda _: f1)
    for weight in (p, w0, w1):
        np.maximum(weight, 0.0, out=weight)
    return p, w0, w1


# -- principal eigenpair -----------------------------------------------------


@dataclass(frozen=True)
class EigPair:
    lambda1: float
    phi0: GridFunction


_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


def _is_irreducible(m: np.ndarray, tridiagonal: bool) -> bool:
    """The directed off-diagonal graph is strongly connected; on a
    tridiagonal matrix, both off-diagonals are nonzero everywhere."""
    if tridiagonal:
        off = np.concatenate((np.diag(m, -1), np.diag(m, 1)))
        return bool(np.all(np.abs(off) > 0))
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = m.shape[0]
    adj = csr_matrix((np.abs(m) > 0) & ~np.eye(n, dtype=bool))
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    return ncomp == 1


def principal_eig(a: GeneratorSpec) -> EigPair:
    """Smallest eigenvalue with its positive eigenvector, sup-norm 1.

    Inverse power iteration on sigma*I + A with a Gershgorin-based sigma
    making the shifted matrix an M-matrix, so every iterate stays positive.
    The eigenvalue is polished with one extended-precision Rayleigh quotient
    after the residual |A x - lambda x|_inf drops below EIG_RESIDUAL_TOL, or
    below its own rounding floor 4 eps ||A||_inf where that is larger (from
    n of about 500 on a unit-interval Laplacian, whose ||A||_inf grows like
    4 (n + 1)^2).

    The dense LU and its solves call LAPACK getrf/getrs directly, the
    routines behind scipy.linalg.lu_factor/lu_solve, with lu_factor's
    finiteness test made once on sigma*I + A: a finite M-matrix with
    Gershgorin discs at or above 1 has no zero pivot, and its solves map a
    finite right-hand side to a finite one.
    """
    m = a.matrix
    n = a.dim
    tridiagonal = _is_tridiagonal(m)
    if not _is_irreducible(m, tridiagonal):
        raise ValidationError("principal eigenpair needs an irreducible generator")
    gershgorin_low = float(np.min(np.diag(m) - np.sum(np.abs(m - np.diag(np.diag(m))), axis=1)))
    sigma = max(0.0, -gershgorin_low) + 1.0
    shifted_m = sigma * np.eye(n) + m
    if not np.isfinite(shifted_m).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = _GETRF(shifted_m, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrf")
    x = np.ones(n)
    lam = 0.0
    stop = max(EIG_RESIDUAL_TOL, 4.0 * _EPS * a.inf_norm())
    for _ in range(EIG_MAX_ITER):
        # getrs flags only illegal arguments, and these are getrf's own
        x = _GETRS(lu, piv, x, overwrite_b=True)[0]
        x /= np.abs(x).max()
        mx = m @ x
        lam = float(x @ mx / (x @ x))
        if np.abs(mx - lam * x).max() <= stop:
            break
    else:
        raise NumericalError(
            "inverse power iteration did not converge: residual "
            f"{monotone_norm(m @ x - lam * x):.3e}"
        )
    # float64 Rayleigh quotients bottom out near eps*||A||; one long-double
    # evaluation recovers the last digits of lambda_1.
    xl = x.astype(np.longdouble)
    if tridiagonal:
        # A x on the band, each row summed in the dense product's order
        # (l x_{i-1} + d x_i) + u x_{i+1}: the dense rows' zero terms add
        # exactly, so the bits are those of A @ x in long double
        low, diag, up = (np.diag(m, k).astype(np.longdouble) for k in (-1, 0, 1))
        ax = diag * xl
        ax[1:] = low * xl[:-1] + ax[1:]
        ax[:-1] += up * xl[1:]
    else:
        ax = m.astype(np.longdouble) @ xl
    lam = float((xl @ ax) / (xl @ xl))
    if x.min() <= 0:
        raise NumericalError("principal eigenvector is not entrywise positive")
    return EigPair(lam, GridFunction(x))


# -- admissibility certificates ----------------------------------------------


def check_submarkovian(a: GeneratorSpec) -> bool:
    """Certify e^{-tA} 1 <= 1: dual test A*1 >= 0 and a semigroup probe at
    t = SUBMARKOV_PROBE_T.

    Both tests must agree; a disagreement flags a broken discretization
    (the dual test characterizes the property, the probe witnesses it).
    The probe's own rounding grows like t eps ||A||_inf (each computed
    eigenvalue is off by about eps ||A||, which moves its weight e^{-t w}
    by t eps ||A|| relative), so the probe may exceed 1 by
    4 t eps ||A||_inf, or by TOL_ORDER where that is larger: about 9e-12
    on a 160-node Neumann mesh.
    """
    ones = np.ones(a.dim)
    dual_ok = bool(np.min(a.matrix @ ones) >= -TOL_ORDER * max(1.0, monotone_norm(a.matrix @ ones)))
    probe = semigroup_apply(a, SUBMARKOV_PROBE_T, ones)
    probe_slack = max(TOL_ORDER, 4.0 * _EPS * SUBMARKOV_PROBE_T * a.inf_norm())
    probe_ok = bool(np.max(probe) <= 1.0 + probe_slack)
    if dual_ok != probe_ok:
        raise NumericalError(
            "sub-markovian tests disagree: dual row-sum test "
            f"{dual_ok}, semigroup probe at t={SUBMARKOV_PROBE_T} gives max "
            f"{np.max(probe):.15g}"
        )
    return dual_ok
