"""Discrete generators of positive semigroups.

A generator here is a real n x n matrix A with nonpositive off-diagonal
entries, so that e^{-tA} and (lambda I + A)^{-1} (for admissible lambda) are
entrywise nonnegative.  Provided constructors assemble 1-D second-difference
Laplacians on the unit interval with Dirichlet, Neumann or Robin closures;
potentials add a diagonal.  Systems are block-diagonal compositions.

All matrix functions run through a cached eigendecomposition of a
diagonally-symmetrized copy of the matrix.  The scaling is read off a
breadth-first spanning forest of the off-diagonal pattern, and one entrywise
test of the scaled matrix checks every other edge.  Tridiagonal patterns,
and block-diagonal compositions of them, are forests, so they always pass,
which keeps every evaluation spectral-exact; a generator that admits no such
scaling (an asymmetric pattern, or a cycle whose ratios do not multiply to 1)
is rejected with a ValidationError on its first spectral use.  A shift
A + mu*I keeps the eigenvectors and the scaling of A, so every shifted copy
reuses the base factorization and shares one cache of step propagators.

Linear solves with A minus a node-local term (Newton's matrix) run on A's
band once the components are interleaved node by node (`node_band`): one
banded LU, tridiagonal for a scalar Laplacian and pentadiagonal for a pair
of species.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NumericalError, ValidationError
from .order import TOL_ORDER, GridFunction, monotone_norm

EIG_RESIDUAL_TOL = 1e-10
EIG_MAX_ITER = 500  # inverse power iterations before principal_eig gives up
SYMMETRY_RTOL = 1e-10  # entrywise |S - S^T| <= SYMMETRY_RTOL |S| for the scaled S


@dataclass
class GeneratorSpec:
    """Matrix generator with mesh metadata; -A generates e^{-tA}.

    Treated as immutable after construction.  The eigendecomposition is
    computed once on first use (single assignment) and shared by all
    apply-style operations; `shifted` hands it on to A + mu*I.  The step
    propagators are cached by (shift, dt) in a dict that A and all its
    shifted copies share.  The node-major band and the infinity norm depend
    on the matrix values, so each copy computes its own.
    """

    matrix: np.ndarray
    mesh_h: float
    bc: str
    shift: float = 0.0
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
        """(d, w, Q) with matrix = diag(d) Q diag(w) Q^T diag(1/d)."""
        if self._eig is None:
            # checked on first spectral use rather than in __post_init__, so
            # a generator that is never factorized (add_potential's copies
            # read by principal_eig) pays for no spectral work
            d = _symmetrizer(self.matrix)
            sym = self.matrix * np.outer(1.0 / d, d)
            # d is fixed by the forest's edges alone: this entrywise test
            # checks all the others (a NaN fails it too)
            if not np.all(np.abs(sym - sym.T) <= SYMMETRY_RTOL * np.abs(sym)):
                raise ValidationError(
                    "generator is not symmetrizable by a positive diagonal scaling"
                )
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

    def propagators(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """`propagator_matrices(self, dt)`, built once per (shift, dt)."""
        key = (self.shift, dt)
        if key not in self._prop_cache:
            self._prop_cache[key] = propagator_matrices(self, dt)
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


def _symmetrizer(m: np.ndarray) -> np.ndarray:
    """Positive diagonal d with diag(1/d) M diag(d) symmetric if any exists.

    d is 1 at the first node of each connected component of the mutual
    off-diagonal pattern (m[i, j] and m[j, i] both nonzero), and
    d[j] = d[p] * sqrt(m[j, p] / m[p, j]) down the edges (p, j) of a
    breadth-first tree from there.  Only the tree edges are read; the caller
    checks the scaled matrix on every other one.
    """
    if m.shape[0] == 1:
        return np.ones(1)  # skips the scipy.sparse import for scalar problems
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
    if len({b.shift for b in blocks}) != 1:
        raise ValidationError("blocks carry inconsistent shifts")
    m = scipy.linalg.block_diag(*[b.matrix for b in blocks])
    return GeneratorSpec(m, blocks[0].mesh_h, "system", shift=blocks[0].shift)


def add_potential(a: GeneratorSpec, m: GridFunction | np.ndarray) -> GeneratorSpec:
    """A + diag(m); keeps the off-diagonal sign pattern untouched."""
    values = m.values if isinstance(m, GridFunction) else np.asarray(m, dtype=float)
    if values.size != a.dim:
        raise DimensionMismatchError("potential length does not match generator")
    return GeneratorSpec(a.matrix + np.diag(values), a.mesh_h, a.bc, shift=a.shift)


def shifted(a: GeneratorSpec, mu: float) -> GeneratorSpec:
    """A + mu*I with the accumulated shift recorded.

    The shift moves the eigenvalues of A by mu and keeps its eigenvectors
    and symmetrizing scaling, so the result takes A's factorization (computed
    now if A has none yet) and shares A's propagator cache.
    """
    d, w, q = a._eig_factors()
    return GeneratorSpec(
        a.matrix + mu * np.eye(a.dim), a.mesh_h, a.bc, shift=a.shift + mu,
        _eig=(d, w + mu, q), _prop_cache=a._prop_cache,
    )


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


def propagator_matrices(a: GeneratorSpec, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(P, B) = (e^{-dt A}, A^{-1}(I - e^{-dt A})), clipped entrywise >= 0.

    Both matrices are entrywise nonnegative in exact arithmetic (B is the
    integral of the semigroup over one step); clipping round-off negatives
    makes every downstream matvec exactly order-preserving.  Requires the
    spectrum strictly positive, i.e. a scaled problem.
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    spectral_floor = max(1e-12, 1e-14 * float(np.max(np.abs(a.matrix))))
    if a.min_eigenvalue() <= spectral_floor:
        raise ValidationError(
            "A^{-1}(I - e^{-dt A}) needs min eigenvalue > 0; scale the problem "
            "by a larger shift first"
        )
    p = a.function_matrix(lambda w: np.exp(-dt * w))
    b = a.function_matrix(lambda w: -np.expm1(-dt * w) / w)
    np.maximum(p, 0.0, out=p)
    np.maximum(b, 0.0, out=b)
    return p, b


# -- principal eigenpair -----------------------------------------------------


@dataclass(frozen=True)
class EigPair:
    lambda1: float
    phi0: GridFunction


def _is_irreducible(m: np.ndarray) -> bool:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = m.shape[0]
    if n == 1:
        return True
    adj = csr_matrix((np.abs(m) > 0) & ~np.eye(n, dtype=bool))
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    return ncomp == 1


def principal_eig(a: GeneratorSpec) -> EigPair:
    """Smallest eigenvalue with its positive eigenvector, sup-norm 1.

    Inverse power iteration on sigma*I + A with a Gershgorin-based sigma
    making the shifted matrix an M-matrix, so every iterate stays positive.
    The eigenvalue is polished with one extended-precision Rayleigh quotient
    after the residual drops below EIG_RESIDUAL_TOL.
    """
    m = a.matrix
    n = a.dim
    if not _is_irreducible(m):
        raise ValidationError("principal eigenpair needs an irreducible generator")
    gershgorin_low = float(np.min(np.diag(m) - np.sum(np.abs(m - np.diag(np.diag(m))), axis=1)))
    sigma = max(0.0, -gershgorin_low) + 1.0
    lu, piv = scipy.linalg.lu_factor(sigma * np.eye(n) + m)
    x = np.ones(n)
    lam = 0.0
    for _ in range(EIG_MAX_ITER):
        x = scipy.linalg.lu_solve((lu, piv), x)
        x /= np.max(np.abs(x))
        mx = m @ x
        lam = float(x @ mx / (x @ x))
        if monotone_norm(mx - lam * x) <= EIG_RESIDUAL_TOL:
            break
    else:
        raise NumericalError(
            "inverse power iteration did not converge: residual "
            f"{monotone_norm(m @ x - lam * x):.3e}"
        )
    if np.sum(x) < 0:
        x = -x
    # float64 Rayleigh quotients bottom out near eps*||A||; one long-double
    # evaluation recovers the last digits of lambda_1.
    xl = x.astype(np.longdouble)
    ml = m.astype(np.longdouble)
    lam = float((xl @ (ml @ xl)) / (xl @ xl))
    x = x / np.max(np.abs(x))
    if np.min(x) <= 0:
        raise NumericalError("principal eigenvector is not entrywise positive")
    return EigPair(lam, GridFunction(x))


# -- admissibility certificates ----------------------------------------------


def check_submarkovian(a: GeneratorSpec, t_probe: float = 0.1) -> bool:
    """Certify e^{-tA} 1 <= 1: dual test A*1 >= 0 and a semigroup probe.

    Both tests must agree; a disagreement flags a broken discretization
    (the dual test characterizes the property, the probe witnesses it).
    """
    if t_probe <= 0:
        raise ValidationError("t_probe must be positive")
    ones = np.ones(a.dim)
    dual_ok = bool(np.min(a.matrix @ ones) >= -TOL_ORDER * max(1.0, monotone_norm(a.matrix @ ones)))
    probe = semigroup_apply(a, t_probe, ones)
    probe_ok = bool(np.max(probe) <= 1.0 + TOL_ORDER)
    if dual_ok != probe_ok:
        raise NumericalError(
            "sub-markovian tests disagree: dual row-sum test "
            f"{dual_ok}, semigroup probe at t={t_probe} gives max "
            f"{np.max(probe):.15g}"
        )
    return dual_ok
