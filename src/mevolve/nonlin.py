"""Reaction terms as substitution operators on grid vectors.

Each nonlinearity acts entrywise (the Fisher weight adds x-dependence) on the
block-wise component layout.  Node-locality is the contract: F_i at a node
depends only on the components at that node.  So the Jacobian is c x c per
node, and `jacobian_blocks` returns it as a (c, c, n) array whose entry
[i, j, k] is dF_i/du_j at node k; Newton's solver reads only those blocks,
and the dense `jacobian_matrix` is assembled from them.

`jacobian_range` bounds the blocks entrywise over a box, in closed form per
preset; it is the only statement a term makes about its derivative over a
region.  The certificate of the extremal equilibria reads it, and
`quasi_increasing_shift` derives from it the smallest shift mu >= 0 making
F + mu*id order-increasing on an interval, once the bound proves the term
cooperative in the interval's cone.  Random sampling only ever falsifies
the bounds, in the test suite.  `quadratic_jacobian` (default False) states
that every entry of the blocks is a polynomial of degree <= 2 along any
segment, as for the three polynomial presets; the certificate then bounds
the mean of F' over a segment by Simpson's rule on three boxes instead of
one box.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .order import GridFunction, OrderInterval


class Nonlinearity:
    """Base substitution operator; subclasses fill in the closed forms."""

    name: str = "abstract"
    components: int = 1
    # every entry of jacobian_blocks is a polynomial of degree <= 2 along any
    # segment, so Simpson's rule gives its mean over a segment exactly
    quadratic_jacobian: bool = False

    def eval_values(self, values: np.ndarray) -> np.ndarray:
        """Apply pointwise to (..., dim) arrays in blocked component layout."""
        raise NotImplementedError

    def eval_shifted(self, values: np.ndarray, shift: float) -> np.ndarray:
        """The shifted term F(values) + shift*values.

        The solver evaluates F in this form: the march at its shift mu,
        ProblemSpec.rhs at 0.0.  A subclass may override it with one fused
        expression, as the presets do (they define eval_values as
        eval_shifted(values, 0.0)).
        """
        return self.eval_values(values) + shift * values

    def shifted_in_cone(self, svec: np.ndarray, shift: float):
        """The shifted term in cone coordinates, y -> S (F(S y) + shift*S y)
        with S = diag(svec), as one callable on (..., dim) arrays.

        The march evaluates a flipped-cone term this way.  The default wraps
        eval_shifted in the two sign flips; sign flips are exact, so an
        override that folds the signs into its coefficients must equal the
        wrapper bit for bit.
        """
        return lambda values: svec * self.eval_shifted(svec * values, shift)

    def eval_shifted_scalar(self, x: float, shift: float) -> float:
        """eval_shifted at the state x of a one-node, one-component problem,
        as a Python float.

        The dim == 1 march calls it once per row per inner iteration, and
        once per row per step.  The default makes one eval_shifted call on
        a (1, 1) array; an override must equal that bit for bit.
        """
        return self.eval_shifted(np.array([[x]]), shift).item()

    def jacobian_blocks(self, values: np.ndarray) -> np.ndarray:
        """Node-local Jacobian at a single state, shape (c, c, n): entry
        [i, j, k] is dF_i/du_j at node k."""
        raise NotImplementedError

    def jacobian_matrix(self, values: np.ndarray) -> np.ndarray:
        """Dense Jacobian at a single state, in blocked component layout,
        assembled from jacobian_blocks (u_j at node k is entry j*n + k)."""
        blocks = self.jacobian_blocks(values)
        c, _, n = blocks.shape
        comp, node = n * np.arange(c), np.arange(n)
        out = np.zeros((c * n, c * n))
        out[comp[:, None, None] + node, comp[None, :, None] + node] = blocks
        return out

    def jacobian_range(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entrywise (lower, upper) bounds of jacobian_blocks over the box
        lo <= u <= hi (entrywise, blocked layout), each of shape (c, c, n).

        The presets give them in closed form.  The default knows nothing and
        returns -inf and +inf: quasi_increasing_shift then rejects the term,
        and the certificate never passes.
        """
        c = self.components
        shape = (c, c, lo.size // c)
        return np.full(shape, -np.inf), np.full(shape, np.inf)


def cone_jacobian_range(f: Nonlinearity, lo: np.ndarray, hi: np.ndarray,
                        signs) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise (lower, upper) bounds of S F' S over the box lo <= u <= hi,
    S the per-component cone signs, from f.jacobian_range: entry (i, j) is
    F' itself where s_i s_j > 0 and -F' otherwise."""
    low, high = f.jacobian_range(lo, hi)
    same = np.outer(signs, signs)[:, :, None] > 0
    return np.where(same, low, -high), np.where(same, high, -low)


def quasi_increasing_shift(f: Nonlinearity, interval: OrderInterval) -> float:
    """Smallest mu >= 0 with F + mu*id increasing on the interval in its cone
    order; raises ValidationError if none can be certified.

    The bound is cone_jacobian_range over the box of per-component ranges of
    the interval.  Its off-diagonal lower bounds must be >= 0 (F is
    cooperative in the cone), and mu lifts its diagonal lower bounds to >= 0.
    """
    c = f.components
    if interval.components != c:
        raise DimensionMismatchError("interval and nonlinearity component mismatch")
    ranges = np.array([interval.component_range(k) for k in range(c)])
    n = interval.lower.n_points
    low, _ = cone_jacobian_range(
        f, np.repeat(ranges[:, 0], n), np.repeat(ranges[:, 1], n), interval.cone.signs
    )
    diag = np.eye(c, dtype=bool)
    worst = -float(np.min(low[diag]))
    if not worst < math.inf:  # +inf or NaN
        raise ValidationError(
            f"{f.name}: no finite quasi-increasing shift on this interval"
        )
    if not np.all(low[~diag] >= 0.0):
        raise ValidationError(
            f"{f.name}: not cooperative in the cone order on this interval"
        )
    return max(0.0, worst)


class _Logistic(Nonlinearity):
    """f(xi) = a*xi - b*xi^2."""

    quadratic_jacobian = True

    def __init__(self, a: float, b: float):
        if a <= 0 or b <= 0:
            raise ValidationError("logistic needs a > 0 and b > 0")
        self.a, self.b = float(a), float(b)
        self.name = "logistic"

    def eval_values(self, values):
        return self.eval_shifted(values, 0.0)

    def eval_shifted(self, values, shift):
        return values * ((self.a + shift) - self.b * values)

    def jacobian_blocks(self, values):
        return (self.a - 2.0 * self.b * values)[None, None]

    def jacobian_range(self, lo, hi):
        return (self.a - 2.0 * self.b * hi)[None, None], (self.a - 2.0 * self.b * lo)[None, None]


def logistic(a: float, b: float) -> Nonlinearity:
    return _Logistic(a, b)


def _fisher_h_prime(alpha: float, xi):
    # h(xi) = alpha*xi + (1-3*alpha)*xi^2 - (1-2*alpha)*xi^3
    return alpha + 2.0 * (1.0 - 3.0 * alpha) * xi - 3.0 * (1.0 - 2.0 * alpha) * xi * xi


def _quadratic_range(alpha: float, lo, hi):
    """Range of h' over [lo, hi]; entrywise for arrays."""
    at_lo, at_hi = _fisher_h_prime(alpha, lo), _fisher_h_prime(alpha, hi)
    dmin, dmax = np.minimum(at_lo, at_hi), np.maximum(at_lo, at_hi)
    if alpha != 0.5:  # h'' root
        xi = (1.0 - 3.0 * alpha) / (3.0 * (1.0 - 2.0 * alpha))
        inside = (lo <= xi) & (xi <= hi)
        at_xi = _fisher_h_prime(alpha, xi)
        dmin = np.where(inside, np.minimum(dmin, at_xi), dmin)
        dmax = np.where(inside, np.maximum(dmax, at_xi), dmax)
    return dmin, dmax


class _Fisher(Nonlinearity):
    """F(u) = m(x) * h(u) with h(xi) = xi(1-xi)(alpha(1-xi) + (1-alpha)xi)."""

    quadratic_jacobian = True

    def __init__(self, m: np.ndarray, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise ValidationError("fisher needs alpha in (0, 1)")
        self.m = np.asarray(m.values if isinstance(m, GridFunction) else m, dtype=float)
        self.alpha = float(alpha)
        self.name = "fisher"
        # h(xi) = xi (1 - xi) (alpha + (1 - 2 alpha) xi), weighted by m
        self._m_alpha = self.m * self.alpha
        self._m_slope = self.m * (1.0 - 2.0 * self.alpha)

    def eval_values(self, values):
        return self.eval_shifted(values, 0.0)

    def eval_shifted(self, values, shift):
        if values.shape[-1] != self.m.size:
            raise DimensionMismatchError("state length does not match the weight m")
        return values * ((1.0 - values) * (self._m_alpha + self._m_slope * values) + shift)

    def jacobian_blocks(self, values):
        return (self.m * _fisher_h_prime(self.alpha, values))[None, None]

    def jacobian_range(self, lo, hi):
        dmin, dmax = _quadratic_range(self.alpha, lo, hi)
        up = self.m >= 0
        low = np.where(up, self.m * dmin, self.m * dmax)
        high = np.where(up, self.m * dmax, self.m * dmin)
        return low[None, None], high[None, None]


def fisher(m, alpha: float) -> Nonlinearity:
    return _Fisher(m, alpha)


class _Competition(Nonlinearity):
    """Two-species competition kinetics, increasing on boxes in the flipped
    cone once shifted."""

    components = 2
    quadratic_jacobian = True

    def __init__(self, a1, a2, b11, b12, b21, b22):
        params = dict(a1=a1, a2=a2, b11=b11, b12=b12, b21=b21, b22=b22)
        if any(v <= 0 for v in params.values()):
            raise ValidationError("competition needs all rates > 0")
        self.__dict__.update({k: float(v) for k, v in params.items()})
        self.name = "competition"
        # per-component coefficient columns, against states viewed as (..., 2, n)
        self._growth = np.array([[self.a1], [self.a2]])
        self._own = np.array([[self.b11], [self.b22]])
        self._cross = np.array([[self.b12], [self.b21]])

    def eval_values(self, values):
        return self.eval_shifted(values, 0.0)

    def eval_shifted(self, values, shift):
        # f_i + shift*u_i = u_i ((a_i + shift) - b_ii u_i - b_ij u_j); the
        # reversed component axis pairs each u_i with the other species
        u = values.reshape(values.shape[:-1] + (2, -1))
        out = u * ((self._growth + shift) - self._own * u - self._cross * u[..., ::-1, :])
        return out.reshape(values.shape)

    def shifted_in_cone(self, svec, shift):
        # with u_i = s_i y_i, s_i f_i = y_i ((a_i + shift) - b_ii s_i y_i - b_ij s_j y_j):
        # the signs fold into the coefficient columns
        signs = svec.reshape(2, -1)[:, :1]
        growth, own, cross = self._growth + shift, self._own * signs, self._cross * signs[::-1]

        def term(values):
            y = values.reshape(values.shape[:-1] + (2, -1))
            return (y * (growth - own * y - cross * y[..., ::-1, :])).reshape(values.shape)

        return term

    def jacobian_blocks(self, values):
        u1, u2 = values.reshape(2, -1)
        d11 = self.a1 - 2 * self.b11 * u1 - self.b12 * u2
        d12 = -self.b12 * u1
        d21 = -self.b21 * u2
        d22 = self.a2 - self.b21 * u1 - 2 * self.b22 * u2
        return np.array([[d11, d12], [d21, d22]])

    def jacobian_range(self, lo, hi):
        # every entry decreases in every component: its range runs from the
        # upper corner of the box to the lower one
        (l1, l2), (h1, h2) = lo.reshape(2, -1), hi.reshape(2, -1)
        return self.jacobian_blocks(np.concatenate([h1, h2])), \
            self.jacobian_blocks(np.concatenate([l1, l2]))


def competition(a1, a2, b11, b12, b21, b22) -> Nonlinearity:
    return _Competition(a1, a2, b11, b12, b21, b22)


class _SignedSqrt(Nonlinearity):
    """f(xi) = sign(xi) sqrt(|xi|): strictly increasing, not Lipschitz at 0."""

    name = "signed_sqrt"

    def eval_values(self, values):
        return self.eval_shifted(values, 0.0)

    def eval_shifted(self, values, shift):
        out = np.copysign(np.sqrt(np.abs(values)), values)
        # adding 0*values changes no finite value; skipping it saves two of
        # the few numpy calls per scalar inner iteration
        if shift:
            out += shift * values
        return out

    def eval_shifted_scalar(self, x, shift):
        # sqrt is correctly rounded and abs/copysign are exact in both math
        # and numpy, so this matches eval_shifted bit for bit
        out = math.copysign(math.sqrt(abs(x)), x)
        return out + shift * x if shift else out

    def jacobian_blocks(self, values):
        with np.errstate(divide="ignore"):
            return (0.5 / np.sqrt(np.abs(values)))[None, None]

    def jacobian_range(self, lo, hi):
        # f' = 1 / (2 sqrt|u|) falls in |u|; unbounded where the box holds 0
        far = np.maximum(np.abs(lo), np.abs(hi))
        near = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        with np.errstate(divide="ignore"):
            return (0.5 / np.sqrt(far))[None, None], (0.5 / np.sqrt(near))[None, None]


def signed_sqrt() -> Nonlinearity:
    return _SignedSqrt()
