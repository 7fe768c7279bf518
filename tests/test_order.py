"""Order structure: cones, intervals, monotone norm, clamping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mevolve as mv
from mevolve.errors import DimensionMismatchError, ValidationError
from mevolve.order import clamp_values

from conftest import grid


finite_vectors = arrays(
    np.float64, st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestLeq:
    def test_positive_difference(self):
        assert mv.leq(grid([0, 0]), grid([1, 2]), mv.STANDARD_CONE)

    def test_reflexive_on_arbitrary_vector(self):
        u = grid([3.5, -2.0, 0.0])
        assert mv.leq(u, u, mv.STANDARD_CONE)

    def test_flipped_second_component(self):
        # first component grows, second shrinks
        cone = mv.ConeSpec((1, -1))
        assert mv.leq(grid([0, 3], 2), grid([1, 2], 2), cone)
        assert not mv.leq(grid([0, 2], 2), grid([1, 3], 2), cone)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            mv.leq(grid([1.0]), grid([1.0, 2.0]), mv.STANDARD_CONE)

    def test_antisymmetry_up_to_slack(self):
        u, v = grid([1.0, 2.0]), grid([1.0, 2.0 + 5e-13])
        assert mv.leq(u, v, mv.STANDARD_CONE) and mv.leq(v, u, mv.STANDARD_CONE)
        assert np.max(np.abs(u.values - v.values)) <= 2 * mv.TOL_ORDER

    def test_transitive_on_exactly_ordered_triples(self, rng):
        for _ in range(50):
            a = rng.normal(size=6)
            b = a + rng.uniform(0, 1, size=6)
            c = b + rng.uniform(0, 1, size=6)
            cone = mv.STANDARD_CONE
            assert mv.leq(grid(a), grid(b), cone)
            assert mv.leq(grid(b), grid(c), cone)
            assert mv.leq(grid(a), grid(c), cone)


@given(finite_vectors, st.floats(0, 100))
@settings(max_examples=200, deadline=None)
def test_cone_closure(values, lam):
    """u, v >= 0 implies u+v >= 0 and lam*u >= 0."""
    u = np.abs(values)
    v = u[::-1].copy()
    zero = grid(np.zeros_like(u))
    cone = mv.STANDARD_CONE
    assert mv.leq(zero, grid(u), cone)
    assert mv.leq(zero, grid(u + v), cone)
    assert mv.leq(zero, grid(lam * u), cone)


class TestMonotoneNorm:
    def test_zero(self):
        assert mv.monotone_norm(grid([0, 0, 0])) == 0.0

    def test_sup_definition(self):
        assert mv.monotone_norm(grid([1, -3, 2])) == 3.0

    def test_monotone_on_cone_example(self):
        assert mv.monotone_norm(grid([1, 1])) <= mv.monotone_norm(grid([2, 3]))

    @given(finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_norm_axioms(self, values):
        u = grid(values)
        assert mv.monotone_norm(u) >= 0
        assert mv.monotone_norm(grid(2.0 * values)) == pytest.approx(
            2.0 * mv.monotone_norm(u)
        )
        w = grid(values + values[::-1])
        assert mv.monotone_norm(w) <= 2 * mv.monotone_norm(u) + 1e-12

    def test_monotonicity_randomized(self, rng):
        for _ in range(200):
            a = rng.uniform(0, 5, size=8)
            b = a + rng.uniform(0, 5, size=8)
            assert mv.monotone_norm(grid(a)) <= mv.monotone_norm(grid(b))


class TestClamp:
    def test_identity_inside(self):
        interval = mv.OrderInterval(grid([0, 0]), grid([1, 1]))
        u = np.array([0.25, 0.75])
        assert np.array_equal(clamp_values(u, interval), u)

    def test_projection_below(self):
        interval = mv.OrderInterval(grid([0.0]), grid([1.0]))
        assert clamp_values(np.array([-0.1]), interval)[0] == 0.0

    def test_flipped_component_interval(self):
        # entrywise interval arithmetic with the second component reversed
        cone = mv.ConeSpec((1, -1))
        interval = mv.OrderInterval(grid([0, 1], 2), grid([1, 0], 2), cone)
        out = clamp_values(np.array([0.5, 0.5]), interval)
        assert np.allclose(out, [0.5, 0.5])
        out2 = clamp_values(np.array([1.5, -0.5]), interval)
        assert np.allclose(out2, [1.0, 0.0])

    def test_idempotent_and_inside(self, rng):
        cone = mv.ConeSpec((1, -1))
        interval = mv.OrderInterval(grid([0, 1, 1, 2], 2), grid([2, 3, 0, 1], 2), cone)
        for _ in range(100):
            c1 = grid(clamp_values(rng.uniform(-5, 5, size=4), interval), 2)
            c2 = clamp_values(c1.values, interval)
            assert np.array_equal(c1.values, c2)
            assert mv.leq(interval.lower, c1, cone)
            assert mv.leq(c1, interval.upper, cone)


class TestInvariants:
    def test_grid_function_rejects_nan(self):
        with pytest.raises(ValidationError):
            grid([1.0, np.nan])

    def test_grid_function_rejects_bad_component_count(self):
        with pytest.raises(DimensionMismatchError):
            grid([1.0, 2.0, 3.0], 2)

    def test_cone_spec_rejects_bad_signs(self):
        with pytest.raises(ValidationError):
            mv.ConeSpec((1, 0))

    def test_interval_requires_order(self):
        with pytest.raises(ValidationError):
            mv.OrderInterval(grid([1.0]), grid([0.0]))
