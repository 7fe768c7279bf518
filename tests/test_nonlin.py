"""Reaction-term presets, their Jacobian bounds and the shift derived from them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mevolve as mv
from mevolve.errors import ValidationError
from mevolve.nonlin import _fisher_h_prime, _quadratic_range

from conftest import grid


def interval_1d(lo, hi, n=1):
    return mv.OrderInterval(grid(lo * np.ones(n)), grid(hi * np.ones(n)))


def _fisher_h(alpha, xi):
    """h(xi) through the preset's own formula, with unit weight m."""
    return float(mv.fisher(np.ones(1), alpha).eval_values(np.array([xi]))[0])


class TestLogistic:
    def test_pointwise_values(self):
        f = mv.logistic(1.5, 0.5)
        assert f.eval_values(np.array([0.0]))[0] == 0.0
        assert f.eval_values(np.array([3.0]))[0] == pytest.approx(0.0)  # a/b root
        assert f.eval_values(np.array([1.0]))[0] == pytest.approx(1.0)  # a - b

    def test_shift_matches_worked_example(self):
        # a = b = 1 on [0, 2]: mu = 2 b M - a = 3
        f = mv.logistic(1.0, 1.0)
        assert mv.quasi_increasing_shift(f, interval_1d(0.0, 2.0)) == pytest.approx(3.0)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValidationError):
            mv.logistic(0.0, 1.0)


class TestFisher:
    def test_roots_at_zero_and_one(self):
        for alpha in (0.1, 0.5, 0.9):
            assert _fisher_h(alpha, 0.0) == 0.0
            assert _fisher_h(alpha, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_value_is_eighth(self):
        for alpha in (0.2, 0.5, 0.77):
            assert _fisher_h(alpha, 0.5) == pytest.approx(0.125)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
    def test_endpoint_derivatives_match_finite_differences(self, alpha):
        eps = 1e-7
        fd0 = (_fisher_h(alpha, eps) - _fisher_h(alpha, 0.0)) / eps
        fd1 = (_fisher_h(alpha, 1.0) - _fisher_h(alpha, 1.0 - eps)) / eps
        assert fd0 == pytest.approx(alpha, abs=1e-6)
        assert fd1 == pytest.approx(alpha - 1.0, abs=1e-6)
        assert _fisher_h_prime(alpha, 0.0) == pytest.approx(alpha)
        assert _fisher_h_prime(alpha, 1.0) == pytest.approx(alpha - 1.0)

    def test_weight_enters_pointwise(self):
        m = np.array([2.0, -1.0, 0.0])
        f = mv.fisher(m, 0.5)
        out = f.eval_values(np.array([0.5, 0.5, 0.5]))
        assert np.allclose(out, m * 0.125)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            mv.fisher(np.ones(3), 1.0)


class TestCompetition:
    def test_trivial_and_semi_trivial_values(self):
        f = mv.competition(1.0, 1.0, 1.0, 0.1, 0.1, 1.0)
        assert np.allclose(f.eval_values(np.zeros(2)), 0.0)
        # (a1/b11, 0): first component balances exactly
        out = f.eval_values(np.array([1.0, 0.0]))
        assert np.allclose(out, 0.0)

    def test_direct_evaluation_at_ones(self):
        f = mv.competition(2.0, 3.0, 1.0, 0.5, 0.25, 1.5)
        out = f.eval_values(np.array([1.0, 1.0]))
        assert out[0] == pytest.approx(2.0 - 1.0 - 0.5)
        assert out[1] == pytest.approx(3.0 - 0.25 - 1.5)

    def test_shift_formula_on_box(self):
        f = mv.competition(1.0, 1.0, 1.0, 0.1, 0.1, 1.0)
        cone = mv.ConeSpec((1, -1))
        interval = mv.OrderInterval(grid([0, 1], 2), grid([1, 0], 2), cone)
        mu = mv.quasi_increasing_shift(f, interval)
        assert mu == pytest.approx(max(2 * 1 + 0.1 - 1, 0.1 + 2 * 1 - 1))

    @pytest.mark.parametrize("lower, upper, signs", [
        # the standard cone: dF_1/du_2 = -b12 u1 < 0 wherever u1 > 0, though
        # the diagonal alone would ask for mu = 2 b11 + b12 - a1 = 1.1
        ([0, 0], [1, 1], (1, 1)),
        # the flipped cone: the off-diagonal entries b12 u1, b21 u2 need u >= 0
        ([-0.5, 1], [1, 0], (1, -1)),
    ], ids=["standard_cone", "negative_density"])
    def test_not_cooperative_interval_is_rejected(self, lower, upper, signs):
        f = mv.competition(1.0, 1.0, 1.0, 0.1, 0.1, 1.0)
        interval = mv.OrderInterval(grid(lower, 2), grid(upper, 2), mv.ConeSpec(signs))
        with pytest.raises(ValidationError, match="not cooperative"):
            mv.quasi_increasing_shift(f, interval)


class TestSignedSqrt:
    def test_values(self):
        f = mv.signed_sqrt()
        assert f.eval_values(np.array([0.0]))[0] == 0.0
        assert f.eval_values(np.array([1.0]))[0] == 1.0
        assert f.eval_values(np.array([-4.0]))[0] == -2.0

    def test_zero_shift(self):
        assert mv.quasi_increasing_shift(mv.signed_sqrt(), interval_1d(-2.0, 2.0)) == 0.0


def test_shifted_maps_increasing_randomized(rng):
    """After the certified shift, F + mu*id is increasing on the interval in
    its cone order: u <= v in the cone gives S (G(v) - G(u)) >= 0."""
    flipped = mv.ConeSpec((1, -1))
    cases = [
        (mv.logistic(1.0, 1.0), interval_1d(0.0, 2.0, 4)),
        (mv.signed_sqrt(), interval_1d(-2.0, 2.0, 4)),
        (mv.fisher(rng.uniform(-3, 3, size=4), 0.3), interval_1d(0.0, 1.0, 4)),
        (mv.competition(1.0, 1.2, 1.0, 0.4, 0.3, 0.9),
         mv.OrderInterval(grid([0, 2], 2), grid([2, 0], 2), flipped)),
    ]
    for f, interval in cases:
        mu = mv.quasi_increasing_shift(f, interval)
        svec = interval.cone.sign_vector(interval.lower.n_points)
        lo, hi = interval.standard_bounds()  # in cone coordinates
        worst = 0.0
        for _ in range(10000 // lo.size):
            a = lo + rng.uniform(size=lo.size) * (hi - lo)
            b = lo + rng.uniform(size=lo.size) * (hi - lo)
            u, v = svec * np.minimum(a, b), svec * np.maximum(a, b)
            fu = f.eval_values(u) + mu * u
            fv = f.eval_values(v) + mu * v
            worst = max(worst, np.max(svec * (fu - fv)))
        assert worst <= 1e-12, f.name


def _closed_form_shift(f, interval):
    """Each preset's quasi-increasing shift in closed form, over the box of
    the interval's per-component ranges (competition: nonnegative densities
    in a flipped cone)."""
    if f.name == "logistic":
        _, hi = interval.component_range(0)
        return max(0.0, 2 * f.b * hi - f.a)
    if f.name == "fisher":
        lo, hi = interval.component_range(0)
        dmin, dmax = _quadratic_range(f.alpha, lo, hi)
        worst = np.where(f.m >= 0, f.m * dmin, f.m * dmax)
        return max(0.0, -float(np.min(worst)))
    if f.name == "competition":
        (_, hi1), (_, hi2) = interval.component_range(0), interval.component_range(1)
        mu1 = 2 * f.b11 * hi1 + f.b12 * hi2 - f.a1
        mu2 = f.b21 * hi1 + 2 * f.b22 * hi2 - f.a2
        return max(0.0, mu1, mu2)
    return 0.0  # signed sqrt is increasing


@st.composite
def preset_intervals(draw):
    """(preset, interval) for every preset, in either cone of its component
    count; competition's densities are nonnegative, in either flipped cone."""
    kind = draw(st.sampled_from(["logistic", "fisher", "competition", "signed_sqrt"]))
    n = draw(st.integers(1, 6))
    if kind == "competition":
        f = mv.competition(*(draw(RATES) for _ in range(6)))
        cone = mv.ConeSpec(draw(st.sampled_from([(1, -1), (-1, 1)])))
        a, b = draw(_states(2 * n, 0.0, 50.0)), draw(_states(2 * n, 0.0, 50.0))
    else:
        cone = mv.ConeSpec(draw(st.sampled_from([(1,), (-1,)])))
        if kind == "logistic":
            f = mv.logistic(draw(RATES), draw(RATES))
            a, b = draw(_states(n, -100.0, 100.0)), draw(_states(n, -100.0, 100.0))
        elif kind == "fisher":
            # a sign-changing weight takes both branches of the bound
            f = mv.fisher(draw(_states(n, -10.0, 10.0)), draw(st.floats(0.01, 0.99)))
            a, b = draw(_states(n, -2.0, 3.0)), draw(_states(n, -2.0, 3.0))
        else:
            f = mv.signed_sqrt()
            a, b = draw(_states(n, -100.0, 100.0)), draw(_states(n, -100.0, 100.0))
    # the entrywise smaller state is the lower bound in the cone's order
    svec = cone.sign_vector(n)
    lower = svec * np.minimum(svec * a, svec * b)
    upper = svec * np.maximum(svec * a, svec * b)
    interval = mv.OrderInterval(
        mv.GridFunction(lower, f.components), mv.GridFunction(upper, f.components), cone
    )
    return f, interval


@given(preset_intervals())
@settings(max_examples=400, deadline=None)
def test_derived_shift_matches_the_closed_forms(case):
    """The shift derived from jacobian_range equals each preset's closed form:
    bit for bit for the scalar presets.  Competition's diagonal entries sum
    the same rounded products in another order; each order lands within one
    ulp of the largest term it sums from the exact sum, so the two agree to
    two such ulps (one in nearly every draw)."""
    f, interval = case
    mu, oracle = mv.quasi_increasing_shift(f, interval), _closed_form_shift(f, interval)
    if f.name != "competition":
        assert mu == oracle
        return
    (_, hi1), (_, hi2) = interval.component_range(0), interval.component_range(1)
    scale = max(f.a1, f.a2, 2 * f.b11 * hi1 + f.b12 * hi2, f.b21 * hi1 + 2 * f.b22 * hi2)
    assert abs(mu - oracle) <= 2 * np.spacing(scale)


def _states(n, lo, hi):
    return arrays(float, n, elements=st.floats(lo, hi, allow_subnormal=False))


RATES = st.floats(0.01, 50.0)


@st.composite
def preset_states(draw):
    """(preset, state, entrywise magnitude of the terms F sums) for every preset."""
    kind = draw(st.sampled_from(["logistic", "fisher", "competition", "signed_sqrt"]))
    n = draw(st.integers(1, 6))
    if kind == "logistic":
        a, b = draw(RATES), draw(RATES)
        v = draw(_states(n, -100.0, 100.0))
        return mv.logistic(a, b), v, np.abs(v) * (a + b * np.abs(v))
    if kind == "fisher":
        m = draw(_states(n, -10.0, 10.0))
        alpha = draw(st.floats(0.01, 0.99))
        v = draw(_states(n, -2.0, 3.0))
        slope = np.abs(1.0 - 2.0 * alpha) * np.abs(v)
        return mv.fisher(m, alpha), v, np.abs(v * (1.0 - v)) * np.abs(m) * (alpha + slope)
    if kind == "competition":
        a1, a2, b11, b12, b21, b22 = (draw(RATES) for _ in range(6))
        v = draw(_states(2 * n, -100.0, 100.0))
        u1, u2 = np.abs(v[:n]), np.abs(v[n:])
        terms = np.concatenate([
            u1 * (a1 + b11 * u1 + b12 * u2), u2 * (a2 + b21 * u1 + b22 * u2),
        ])
        return mv.competition(a1, a2, b11, b12, b21, b22), v, terms
    v = draw(_states(n, -100.0, 100.0))
    return mv.signed_sqrt(), v, np.sqrt(np.abs(v))


@given(preset_states(), st.floats(0.0, 1e3))
@settings(max_examples=400, deadline=None)
def test_fused_shift_matches_the_shifted_values(case, shift):
    """Each preset's one-expression eval_shifted agrees with F + shift*id to
    round-off of the terms it sums."""
    f, v, terms = case
    fused = f.eval_shifted(v, shift)
    plain = f.eval_values(v) + shift * v
    bound = 4 * np.finfo(float).eps * (terms + shift * np.abs(v)) + np.finfo(float).tiny
    assert np.all(np.abs(fused - plain) <= bound)


@st.composite
def jacobian_states(draw):
    """(preset, state) for every preset; signed sqrt kept 0.1 away from its
    kink at 0, where the Jacobian blows up."""
    kind = draw(st.sampled_from(["logistic", "fisher", "competition", "signed_sqrt"]))
    n = draw(st.integers(1, 6))
    if kind == "logistic":
        return mv.logistic(draw(RATES), draw(RATES)), draw(_states(n, -100.0, 100.0))
    if kind == "fisher":
        f = mv.fisher(draw(_states(n, -10.0, 10.0)), draw(st.floats(0.01, 0.99)))
        return f, draw(_states(n, -2.0, 3.0))
    if kind == "competition":
        f = mv.competition(*(draw(RATES) for _ in range(6)))
        return f, draw(_states(2 * n, -100.0, 100.0))
    size = draw(_states(n, 0.1, 100.0))
    signs = draw(arrays(bool, n))
    return mv.signed_sqrt(), np.where(signs, -size, size)


@given(jacobian_states())
@settings(max_examples=200, deadline=None)
def test_jacobian_blocks_assemble_to_the_dense_jacobian(case):
    f, v = case
    c, n = f.components, v.size // f.components
    blocks = f.jacobian_blocks(v)
    assert blocks.shape == (c, c, n)
    dense = np.block([[np.diag(blocks[i, j]) for j in range(c)] for i in range(c)])
    assert np.array_equal(f.jacobian_matrix(v), dense)


@given(jacobian_states())
@settings(max_examples=200, deadline=None)
def test_jacobian_matches_central_differences(case):
    """Central differences with h_j = 1e-4 max(1, |v_j|) agree with the
    Jacobian to 1e-6 relative to 1 + max|J|, entrywise.  The presets are
    polynomials of degree <= 3, or sqrt at least 0.1 from 0, so the
    truncation error is below 1e-7 of that scale and the round-off
    eps |F| / h is smaller still; entries off the node-local blocks must
    come out exactly 0."""
    f, v = case
    jac = f.jacobian_matrix(v)
    fd = np.empty_like(jac)
    for j in range(v.size):
        h = 1e-4 * max(1.0, abs(v[j]))
        up, down = v.copy(), v.copy()
        up[j] += h
        down[j] -= h
        fd[:, j] = (f.eval_values(up) - f.eval_values(down)) / (up[j] - down[j])
    assert np.all(np.abs(fd - jac) <= 1e-6 * (1.0 + np.max(np.abs(jac))))
    c = f.components
    off_blocks = np.kron(np.ones((c, c)), np.eye(v.size // c)) == 0
    assert np.all(fd[off_blocks] == 0.0)


def _scalars(bound):
    """Ordinary floats, subnormals and magnitudes up to bound, plus the edges."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -4.0, bound, -bound]
    return st.one_of(st.sampled_from(edges), st.floats(-bound, bound))


SHIFTS = st.one_of(st.just(0.0), st.floats(0.0, 1e3))


def _assert_scalars_match_eval_shifted(f, x0, x1, shift):
    # bytes, so that -0.0 and 0.0 count as different
    f0, f1 = f.eval_shifted_scalars(x0, x1, shift)
    assert type(f0) is float and type(f1) is float
    expected = f.eval_shifted(np.array([[x0], [x1]]), shift)
    assert np.array([[f0], [f1]]).tobytes() == expected.tobytes()


@given(_scalars(1e300), _scalars(1e300), SHIFTS)
@settings(max_examples=500, deadline=None)
def test_signed_sqrt_scalars_match_eval_shifted_bit_for_bit(x0, x1, shift):
    _assert_scalars_match_eval_shifted(mv.signed_sqrt(), x0, x1, shift)


@given(_scalars(1e6), _scalars(1e6), SHIFTS)
@settings(max_examples=100, deadline=None)
def test_default_scalars_match_eval_shifted(x0, x1, shift):
    # the logistic preset keeps the base class's eval_shifted_scalars
    _assert_scalars_match_eval_shifted(mv.logistic(1.5, 0.5), x0, x1, shift)


# -- Jacobian bounds ------------------------------------------------------------

JACOBIAN_PRESETS = {
    "logistic": lambda n: mv.logistic(1.5, 0.7),
    # a sign-changing weight takes both branches of the bound
    "fisher": lambda n: mv.fisher(np.linspace(-3.0, 5.0, n), 0.3),
    "competition": lambda n: mv.competition(2.0, 1.5, 1.0, 0.4, 0.6, 1.2),
    "signed_sqrt": lambda n: mv.signed_sqrt(),
}


def _below(a, b):
    """a <= b entrywise up to round-off in the closed forms."""
    with np.errstate(invalid="ignore"):
        return bool(np.all((a <= b) | (a - b <= 1e-12 * (1.0 + np.abs(b)))))


@given(st.sampled_from(sorted(JACOBIAN_PRESETS)), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_sampled_jacobians_lie_in_jacobian_range(name, n, data):
    """jacobian_blocks anywhere in a box lies within jacobian_range of the
    box, and T F' T within the certificate's bound for the plain (T = I)
    and the flipped cone (T = -I for one component, diag(1, -1) for two)."""
    f = JACOBIAN_PRESETS[name](n)
    c = f.components
    values = st.floats(-3.0, 3.0)
    lo = data.draw(arrays(float, c * n, elements=values))
    hi = lo + data.draw(arrays(float, c * n, elements=st.floats(0.0, 3.0)))
    t = data.draw(arrays(float, c * n, elements=st.floats(0.0, 1.0)))
    u = np.clip(lo + t * (hi - lo), lo, hi)
    with np.errstate(divide="ignore"):
        jac = f.jacobian_blocks(u)
    low, high = f.jacobian_range(lo, hi)
    assert low.shape == high.shape == (c, c, n)
    assert _below(low, jac) and _below(jac, high)
    for signs in ((1,) * c, (1, -1) if c == 2 else (-1,)):
        sides = np.repeat(np.asarray(signs, dtype=float), n)
        outer = np.outer(signs, signs)[:, :, None]
        bound = mv.monotone._jacobian_bound(f, lo, hi, sides)
        assert _below(outer * jac, bound)
        off = ~np.eye(c, dtype=bool)
        assert np.all(bound[off] >= 0.0)


def test_base_jacobian_range_is_unbounded():
    class Opaque(mv.Nonlinearity):
        components = 2

    low, high = Opaque().jacobian_range(np.zeros(6), np.ones(6))
    assert low.shape == high.shape == (2, 2, 3)
    assert np.all(low == -np.inf) and np.all(high == np.inf)


@given(st.sampled_from(["logistic", "fisher", "competition"]), st.integers(1, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_simpson_bound_dominates_the_mean_value_jacobian(name, n, data):
    """The certificate's bound of the mean-value Jacobian
    int_0^1 T F'(u + s (v - u)) T ds, for u in [x_lo, top] and v in
    [y_p, top] (side coordinates y = T u), dominates it entrywise on both
    cone sides; the reference mean is 8-point Gauss-Legendre quadrature,
    exact for the polynomial entries."""
    values = st.floats(-3.0, 3.0)
    if name == "logistic":
        f = mv.logistic(data.draw(st.floats(0.1, 20.0)), data.draw(st.floats(0.1, 5.0)))
    elif name == "fisher":
        # a sign-changing weight takes both branches of the bound
        m = data.draw(arrays(float, n, elements=st.floats(-12.0, 12.0)))
        m[0] = -abs(m[0]) - 0.5
        f = mv.fisher(m, data.draw(st.floats(0.01, 0.99)))
    else:
        rates = [data.draw(st.floats(0.1, 40.0)) for _ in range(2)]
        f = mv.competition(*rates, *(data.draw(st.floats(0.1, 2.5)) for _ in range(4)))
    assert f.quadratic_jacobian
    c = f.components
    signs = data.draw(st.sampled_from([(1,), (-1,)] if c == 1 else
                                      [(1, -1), (-1, 1), (1, 1), (-1, -1)]))
    sides = np.repeat(np.asarray(signs, dtype=float), n)
    widths = st.floats(0.0, 3.0)
    y_p = data.draw(arrays(float, c * n, elements=values))
    top = y_p + data.draw(arrays(float, c * n, elements=widths))
    x_lo = top - data.draw(arrays(float, c * n, elements=widths))
    s_u, s_v = (data.draw(arrays(float, c * n, elements=st.floats(0.0, 1.0))) for _ in range(2))
    u = sides * np.clip(x_lo + s_u * (top - x_lo), x_lo, top)
    v = sides * np.clip(y_p + s_v * (top - y_p), y_p, top)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    outer = np.outer(signs, signs)[:, :, None]
    mean = sum(0.5 * w * outer * f.jacobian_blocks(u + 0.5 * (1.0 + s) * (v - u))
               for s, w in zip(nodes, weights))
    bound = mv.monotone._mean_jacobian_bound(f, sides, x_lo, y_p, top)
    assert bound.shape == (c, c, n)
    assert _below(mean, bound)
