"""Ordered finite-dimensional state spaces.

States are real vectors over a 1-D mesh, possibly with several components
stored block-wise (all mesh values of component 0, then component 1, ...).
The partial order is an orthant order with a per-component sign: sign +1
orders the component the usual way, sign -1 reverses it (used by the
competition system, where a gain for one species is a loss for the other).
All convergence checks in the package use the sup norm, which is monotone
for these cones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Absolute slack when certifying order relations.  Quadrature and linear
# algebra can violate exact order at round-off scale; everything order-related
# is certified up to this slack and worst violations are reported raw.
TOL_ORDER = 1e-12

_EPS = np.finfo(float).eps


def order_slack(scale: float, dim: int = 1) -> float:
    """Floating-point-aware order slack for states of the given magnitude.

    TOL_ORDER is the floor; for large operators/states the evaluation floor
    of a residual grows like eps * scale and the slack follows it.
    """
    return max(TOL_ORDER, 64.0 * _EPS * np.sqrt(float(dim)) * abs(scale))


@dataclass(frozen=True)
class GridFunction:
    """A vector of nodal values, length n_points * components."""

    values: np.ndarray
    components: int = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise DimensionMismatchError("values must be a nonempty 1-D vector")
        if self.components < 1 or values.size % self.components != 0:
            raise DimensionMismatchError(
                f"length {values.size} is not a positive multiple of "
                f"{self.components} components"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("grid function contains NaN/Inf entries")

    @property
    def n_points(self) -> int:
        return self.values.size // self.components


@dataclass(frozen=True)
class ConeSpec:
    """Per-component order signs, +1 (standard) or -1 (reversed)."""

    signs: tuple = (1,)

    def __post_init__(self):
        signs = tuple(int(s) for s in np.atleast_1d(self.signs))
        object.__setattr__(self, "signs", signs)
        if not signs or any(s not in (-1, 1) for s in signs):
            raise ValidationError("cone signs must be +1 or -1")

    @property
    def components(self) -> int:
        return len(self.signs)

    def sign_vector(self, n_points: int) -> np.ndarray:
        return np.repeat(np.asarray(self.signs, dtype=float), n_points)


STANDARD_CONE = ConeSpec((1,))


def _signed_diff(u: GridFunction, v: GridFunction, cone: ConeSpec) -> np.ndarray:
    if u.values.size != v.values.size or u.components != v.components:
        raise DimensionMismatchError("grid functions differ in size or components")
    if u.components != cone.components:
        raise DimensionMismatchError(
            f"cone has {cone.components} components, values have {u.components}"
        )
    return cone.sign_vector(u.n_points) * (v.values - u.values)


def order_violation(u: GridFunction, v: GridFunction, cone: ConeSpec) -> float:
    """Worst signed violation of u <= v; <= 0 means the order holds exactly."""
    d = _signed_diff(u, v, cone)
    return float(np.max(-d, initial=-np.inf))


def leq(u: GridFunction, v: GridFunction, cone: ConeSpec, tol: float = TOL_ORDER) -> bool:
    """True iff u <= v in the cone order, up to an absolute slack."""
    return order_violation(u, v, cone) <= tol


def monotone_norm(u: GridFunction | np.ndarray) -> float:
    """Sup norm; monotone on the cone: 0 <= a <= b implies norm(a) <= norm(b)."""
    values = u.values if isinstance(u, GridFunction) else np.asarray(u)
    return float(np.max(np.abs(values)))


@dataclass(frozen=True)
class OrderInterval:
    lower: GridFunction
    upper: GridFunction
    cone: ConeSpec = field(default=STANDARD_CONE)

    def __post_init__(self):
        if not leq(self.lower, self.upper, self.cone):
            raise ValidationError(
                "interval bounds are not ordered: worst violation "
                f"{order_violation(self.lower, self.upper, self.cone):.3e}"
            )

    @property
    def dim(self) -> int:
        return self.lower.values.size

    @property
    def components(self) -> int:
        return self.lower.components

    def standard_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Entrywise (lo, hi) of the interval in the standard orientation."""
        s = self.cone.sign_vector(self.lower.n_points)
        a, b = s * self.lower.values, s * self.upper.values
        return np.minimum(a, b), np.maximum(a, b)

    def component_range(self, k: int) -> tuple[float, float]:
        """Range of values component k can take anywhere in the interval."""
        lo, hi = self.standard_bounds()
        n = self.lower.n_points
        sl = slice(k * n, (k + 1) * n)
        if self.cone.signs[k] == 1:
            return float(np.min(lo[sl])), float(np.max(hi[sl]))
        return float(np.min(-hi[sl])), float(np.max(-lo[sl]))

    def value_scale(self) -> float:
        return max(monotone_norm(self.lower), monotone_norm(self.upper))


def clamp_values(values: np.ndarray, interval: OrderInterval) -> np.ndarray:
    """Entrywise projection onto the interval in the cone's orientation; rows
    of a 2-D array are clamped independently."""
    if values.shape[-1] != interval.dim:
        raise DimensionMismatchError("value length does not match interval")
    s = interval.cone.sign_vector(interval.lower.n_points)
    lo, hi = interval.standard_bounds()
    return s * np.clip(s * values, lo, hi)


def contains(interval: OrderInterval, u: GridFunction, tol: float = TOL_ORDER) -> bool:
    return leq(interval.lower, u, interval.cone, tol) and leq(
        u, interval.upper, interval.cone, tol
    )
