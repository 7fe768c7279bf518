"""Certified scenario constructions for the bundled applications.

Each builder assembles generator + reaction term + an ordered pair of
sub/super-solutions, verifies the defining inequalities numerically
(certificate-driven: the closed-form epsilon arguments only seed a dyadic
sweep), and records margins and eigenvalue data.  A scenario that reaches
the engine has already passed its certificates.

No builder runs a time march.  The competition builder's semi-trivial
states (the single-species logistic steady states) come from Newton started
at a super-solution, proven maximal with a radius by the M-matrix enclosure
of `monotone._certify_extremal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import generators
from .errors import NumericalError, ValidationError
from .generators import EigPair, GeneratorSpec, add_potential, block_generator, principal_eig
from .mild import ProblemSpec, defect_slack
from .monotone import _certify_extremal
from .nonlin import Nonlinearity, competition, fisher, logistic, signed_sqrt
from .order import (
    TOL_ORDER,
    ConeSpec,
    GridFunction,
    OrderInterval,
    STANDARD_CONE,
    leq,
    monotone_norm,
    order_slack,
)

def subsolution_margin(
    a: GeneratorSpec, f: Nonlinearity, u: GridFunction, cone: ConeSpec
) -> float:
    """min of sign*(F(u) - A u); >= 0 means A u <= F(u) in the cone order."""
    svec = cone.sign_vector(u.n_points)
    fv = f.eval_values(u.values)
    return float(np.min(svec * (fv - a.matrix @ u.values)))


def supersolution_margin(
    a: GeneratorSpec, f: Nonlinearity, u: GridFunction, cone: ConeSpec
) -> float:
    svec = cone.sign_vector(u.n_points)
    fv = f.eval_values(u.values)
    return float(np.min(svec * (a.matrix @ u.values - fv)))


def verify_subsolution(
    a: GeneratorSpec,
    f: Nonlinearity,
    u: GridFunction,
    cone: ConeSpec = STANDARD_CONE,
    tol: float | None = None,
) -> bool:
    """Entrywise strong form of the weak sub-solution inequality."""
    if tol is None:
        tol = defect_slack(a, u, f.eval_values(u.values))
    return subsolution_margin(a, f, u, cone) >= -tol


def verify_supersolution(
    a: GeneratorSpec,
    f: Nonlinearity,
    u: GridFunction,
    cone: ConeSpec = STANDARD_CONE,
    tol: float | None = None,
) -> bool:
    if tol is None:
        tol = defect_slack(a, u, f.eval_values(u.values))
    return supersolution_margin(a, f, u, cone) >= -tol


@dataclass
class ScenarioSpec:
    name: str
    A: GeneratorSpec
    F: Nonlinearity
    interval: OrderInterval
    eig_data: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    alt_intervals: dict = field(default_factory=dict)
    oracles: dict = field(default_factory=dict, repr=False)

    @property
    def cone(self) -> ConeSpec:
        return self.interval.cone

    def problem(self, horizon: float = 1.0, dt: float = 1e-2,
                interval: OrderInterval | None = None) -> ProblemSpec:
        return ProblemSpec(
            A=self.A, F=self.F,
            interval=self.interval if interval is None else interval,
            horizon=horizon, dt=dt,
        )

    def _certify(self):
        lower, upper = self.interval.lower, self.interval.upper
        sub = subsolution_margin(self.A, self.F, lower, self.cone)
        sup = supersolution_margin(self.A, self.F, upper, self.cone)
        self.certificates["sub_margin"] = sub
        self.certificates["super_margin"] = sup
        # verify_subsolution / verify_supersolution at their default slack
        lower_ok = sub >= -defect_slack(self.A, lower, self.F.eval_values(lower.values))
        upper_ok = sup >= -defect_slack(self.A, upper, self.F.eval_values(upper.values))
        if not (lower_ok and upper_ok):
            raise ValidationError(
                f"{self.name}: certificate failure "
                f"(sub margin {self.certificates['sub_margin']:.3e}, "
                f"super margin {self.certificates['super_margin']:.3e})"
            )


MAX_HALVINGS = 60  # halvings of the seed _dyadic_sweep tries per pass


def _dyadic_sweep(seed: float, accept) -> float | None:
    """Largest value of the form seed/2^j, j < MAX_HALVINGS, accepted by the
    predicate.

    Tries strict certificates first (margin >= 0 exactly, so no deficit leaks
    into the engine's sandwich), then falls back to the floating-point slack.
    """
    for tol in (0.0, None):
        eps = seed
        for _ in range(MAX_HALVINGS):
            if eps > 0 and accept(eps, tol):
                return eps
            eps *= 0.5
    return None


# -- logistic ------------------------------------------------------------------


def build_logistic(a_gen: GeneratorSpec, a: float, b: float) -> ScenarioSpec:
    """Interval [eps*phi0, M*1] when a > lambda_1, else the [0, M*1] box
    whose predicted extremal equilibrium is 0."""
    return _logistic(a_gen, a, b, None)


def _logistic(a_gen: GeneratorSpec, a: float, b: float, pair: EigPair | None) -> ScenarioSpec:
    """build_logistic, reusing a_gen's principal eigenpair if the caller has it."""
    if a <= 0 or b <= 0:
        raise ValidationError("logistic scenario needs a, b > 0")
    if pair is None:
        pair = principal_eig(a_gen)
    lam1, phi0 = pair.lambda1, pair.phi0
    f = logistic(a, b)
    n = a_gen.dim
    eig_data = {"lambda1": lam1, "phi0": phi0.values}

    if a > lam1:
        seed = (a - lam1) / (b * float(np.max(phi0.values)))
        eps = _dyadic_sweep(
            seed,
            lambda e, tol: verify_subsolution(
                a_gen, f, GridFunction(e * phi0.values), tol=tol
            ),
        )
        if eps is None:
            raise ValidationError("logistic sub-solution certificate failed at all eps")
        m_const = max(2.0 * a / b, 2.0 * eps * float(np.max(phi0.values)))
        for _ in range(8):
            upper = GridFunction(m_const * np.ones(n))
            if verify_supersolution(a_gen, f, upper):
                break
            m_const *= 2.0
        else:
            raise ValidationError("logistic super-solution certificate failed")
        lower = GridFunction(eps * phi0.values)
        interval = OrderInterval(lower, upper)
        scen = ScenarioSpec("logistic", a_gen, f, interval, eig_data=eig_data)
        scen.certificates.update({"eps": eps, "M": m_const})
    else:
        m_const = max(2.0 * a / b, 1.0)
        interval = OrderInterval(GridFunction(np.zeros(n)), GridFunction(m_const * np.ones(n)))
        scen = ScenarioSpec("logistic", a_gen, f, interval, eig_data=eig_data)
        scen.certificates.update({"eps": 0.0, "M": m_const})
        scen.predicted["equilibrium"] = np.zeros(n)
        scen.notes.append("a <= lambda_1: only the zero equilibrium exists")

    if monotone_norm(a_gen.matrix @ np.ones(n)) <= TOL_ORDER * monotone_norm(a_gen.matrix) and a > lam1:
        scen.predicted["equilibrium"] = (a / b) * np.ones(n)
        scen.notes.append("row sums vanish: the constant a/b is the equilibrium")
    scen._certify()
    return scen


# -- competition ----------------------------------------------------------------


FLIPPED_CONE = ConeSpec((1, -1))


SEMI_TRIVIAL_TOL = 1e-7  # largest proven radius of a semi-trivial state


def _semi_trivial(
    a_gen: GeneratorSpec, pair: EigPair, a: float, b: float
) -> tuple[GridFunction, float, float]:
    """Single-species logistic steady state w, its residual and its proven
    radius; pair is a_gen's principal eigenpair and a > lambda_1.

    w is the maximal equilibrium of the logistic interval [eps*phi0, M*1]:
    Newton runs from the super-solution M*1 and `_certify_extremal` proves
    its point maximal (an M-matrix enclosure; a failed first pass is
    retried from M*1 swept toward w), with no time march.  Raises
    NumericalError when the proof fails or its radius exceeds
    SEMI_TRIVIAL_TOL.
    """
    scen = _logistic(a_gen, a, b, pair)
    interval = scen.interval
    problem = ProblemSpec(a_gen, scen.F, interval)
    cert = _certify_extremal(
        problem, interval.upper.values, -1, SEMI_TRIVIAL_TOL,
        order_slack(interval.value_scale(), interval.dim),
    )
    if cert is None:
        raise NumericalError("semi-trivial logistic state is not certified")
    w = GridFunction(np.maximum(cert[0], 0.0))
    return w, problem.equilibrium_residual(w), cert[1]


def build_competition(
    a1_gen: GeneratorSpec, a2_gen: GeneratorSpec,
    a1: float, a2: float, b11: float, b12: float, b21: float, b22: float,
) -> ScenarioSpec:
    """Coexistence interval in the flipped product cone when the principal-
    eigenvalue gates hold, else the well-posedness box."""
    f = competition(a1, a2, b11, b12, b21, b22)
    n = a1_gen.dim
    if a2_gen.dim != n:
        raise ValidationError("both species need the same mesh")
    sys_gen = block_generator([a1_gen, a2_gen])
    pair_a1 = principal_eig(a1_gen)
    pair_a2 = pair_a1 if a2_gen is a1_gen else principal_eig(a2_gen)
    lam_a1, lam_a2 = pair_a1.lambda1, pair_a2.lambda1
    eig_data = {"lambda1_A1": lam_a1, "lambda1_A2": lam_a2}
    necessary = a1 > lam_a1 and a2 > lam_a2

    w1 = GridFunction(np.zeros(n))
    w2 = GridFunction(np.zeros(n))
    res1 = res2 = 0.0
    rad1 = rad2 = None  # no proven state for an absent species
    if a1 > lam_a1:
        w1, res1, rad1 = _semi_trivial(a1_gen, pair_a1, a1, b11)
    if a2 > lam_a2:
        w2, res2, rad2 = _semi_trivial(a2_gen, pair_a2, a2, b22)
    eig_data["w_residuals"] = (res1, res2)
    eig_data["w_radii"] = (rad1, rad2)

    coexistence = False
    if necessary and monotone_norm(w1) > 0 and monotone_norm(w2) > 0:
        shifted1 = add_potential(a1_gen, b12 * w2.values)
        shifted2 = add_potential(a2_gen, b21 * w1.values)
        pair1, pair2 = principal_eig(shifted1), principal_eig(shifted2)
        eig_data["lambda1_A1_plus_b12w2"] = pair1.lambda1
        eig_data["lambda1_A2_plus_b21w1"] = pair2.lambda1
        coexistence = a1 > pair1.lambda1 and a2 > pair2.lambda1

    if coexistence:
        v1, v2 = pair1.phi0, pair2.phi0
        seed = min(
            (a1 - pair1.lambda1) / (b11 * float(np.max(v1.values))),
            (a2 - pair2.lambda1) / (b22 * float(np.max(v2.values))),
        )

        def accept(eps, tol):
            lower = GridFunction(np.concatenate([eps * v1.values, w2.values]), 2)
            upper = GridFunction(np.concatenate([w1.values, eps * v2.values]), 2)
            return (
                leq(lower, upper, FLIPPED_CONE)
                and verify_subsolution(sys_gen, f, lower, FLIPPED_CONE, tol=tol)
                and verify_supersolution(sys_gen, f, upper, FLIPPED_CONE, tol=tol)
            )

        eps = _dyadic_sweep(seed, accept)
        if eps is None:
            raise ValidationError("coexistence certificates failed at all eps")
        lower = GridFunction(np.concatenate([eps * v1.values, w2.values]), 2)
        upper = GridFunction(np.concatenate([w1.values, eps * v2.values]), 2)
        interval = OrderInterval(lower, upper, FLIPPED_CONE)
        scen = ScenarioSpec("competition", sys_gen, f, interval, eig_data=eig_data)
        scen.certificates.update({"eps": eps, "coexistence": True})
        scen.predicted["w1"] = w1.values
        scen.predicted["w2"] = w2.values
    else:
        m_const = 2.0 * max(a1 / b11, a2 / b22)
        lower = GridFunction(np.concatenate([np.zeros(n), m_const * np.ones(n)]), 2)
        upper = GridFunction(np.concatenate([m_const * np.ones(n), np.zeros(n)]), 2)
        interval = OrderInterval(lower, upper, FLIPPED_CONE)
        scen = ScenarioSpec("competition", sys_gen, f, interval, eig_data=eig_data)
        scen.certificates.update({"M": m_const, "coexistence": False})
        if not necessary:
            scen.notes.append(
                "necessary coexistence condition fails; the engine converges to "
                "states with the corresponding species absent"
            )
    scen._certify()
    return scen


# -- Fisher ----------------------------------------------------------------------


def build_fisher(a_gen: GeneratorSpec, m, alpha: float) -> ScenarioSpec:
    """Always emits the [0, 1] scenario; adds the nontrivial interval
    [eps*phi0, 1 - eps*phi1] when both instability eigenvalues are negative
    and the certificates pass.

    Instability of 0 is gated on lambda_1(A - alpha m) < 0; instability of 1
    on lambda_1(A + (1-alpha) m) < 0 (linearization at u = 1; note the sign).
    """
    m_values = np.asarray(m.values if isinstance(m, GridFunction) else m, dtype=float)
    if m_values.size != a_gen.dim:
        raise ValidationError("weight m must live on the generator's mesh")
    if not generators.check_submarkovian(a_gen):
        raise ValidationError("fisher scenario needs a sub-markovian generator")
    f = fisher(m_values, alpha)
    n = a_gen.dim
    zero = GridFunction(np.zeros(n))
    ones = GridFunction(np.ones(n))
    interval_global = OrderInterval(zero, ones)

    pair0 = principal_eig(add_potential(a_gen, -alpha * m_values))
    pair1 = principal_eig(add_potential(a_gen, (1.0 - alpha) * m_values))
    eig_data = {
        "lambda0": pair0.lambda1, "phi0": pair0.phi0.values,
        "lambda1_tilde": pair1.lambda1, "phi1": pair1.phi0.values,
    }

    nontrivial = None
    eps_used = None
    if pair0.lambda1 < 0 and pair1.lambda1 < 0:

        def accept(eps, tol):
            lower = GridFunction(eps * pair0.phi0.values)
            upper = GridFunction(1.0 - eps * pair1.phi0.values)
            return (
                leq(lower, upper, STANDARD_CONE)
                and float(np.min(upper.values - lower.values)) > 0
                and verify_subsolution(a_gen, f, lower, tol=tol)
                and verify_supersolution(a_gen, f, upper, tol=tol)
            )

        eps_used = _dyadic_sweep(0.5, accept)
        if eps_used is not None:
            nontrivial = OrderInterval(
                GridFunction(eps_used * pair0.phi0.values),
                GridFunction(1.0 - eps_used * pair1.phi0.values),
            )

    scen = ScenarioSpec(
        "fisher", a_gen, f,
        interval=nontrivial if nontrivial is not None else interval_global,
        eig_data=eig_data,
    )
    scen.alt_intervals["global"] = interval_global
    scen.certificates["nontrivial_available"] = nontrivial is not None
    scen.certificates["eps"] = eps_used
    if nontrivial is None:
        scen.notes.append(
            "nontrivial interval unavailable: requires both instability "
            "eigenvalues negative (only possible when m changes sign)"
        )
    scen._certify()
    return scen


# -- scalar non-uniqueness ---------------------------------------------------------


def build_scalar_nonunique(a: float, m_bound: float) -> ScenarioSpec:
    """The scalar square-root example with closed-form extremal branches."""
    if a <= 0:
        raise ValidationError("needs a > 0")
    if m_bound < 1.0 / a**2:
        raise ValidationError(
            f"M = {m_bound} violates the sub/super-solution bound M >= 1/a^2 = {1 / a**2}"
        )
    gen = generators.scalar_generator(a)
    f = signed_sqrt()
    interval = OrderInterval(
        GridFunction(np.array([-m_bound])), GridFunction(np.array([m_bound]))
    )
    scen = ScenarioSpec("scalar-nonunique", gen, f, interval)
    scen.predicted["equilibria"] = [-1.0 / a**2, 0.0, 1.0 / a**2]

    def branch_max(t):
        return (1.0 - np.exp(-0.5 * a * np.asarray(t))) ** 2 / a**2

    # start time fixed by u(0) = M; the adaptive ODE oracle in the tests
    # confirms the 2/a prefactor
    arg = a * math.sqrt(m_bound) - 1.0
    t_m = (2.0 / a) * math.log(arg) if arg > 0 else None

    def envelope_max(t):
        if t_m is None:
            return np.full_like(np.asarray(t, dtype=float), m_bound)
        return (1.0 + np.exp(-0.5 * a * (np.asarray(t) - t_m))) ** 2 / a**2

    scen.oracles.update(
        {
            "u_max": branch_max,
            "u_min": lambda t: -branch_max(t),
            "U_max": envelope_max,
            "U_min": lambda t: -envelope_max(t),
            "t_M": t_m,
            "branch_family": lambda t, t0: np.where(
                np.asarray(t) >= t0, branch_max(np.maximum(np.asarray(t) - t0, 0.0)), 0.0
            ),
        }
    )
    scen._certify()
    return scen


# -- registry ------------------------------------------------------------------


def is_number(value) -> bool:
    """A finite int or float from a config; JSON booleans do not count."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and math.isfinite(value)


def _build_fisher_config(a_gen: GeneratorSpec, alpha: float, m_cfg) -> ScenarioSpec:
    """Fisher scenario; m is a number, a list of nodal values or a sin profile."""
    if is_number(m_cfg):
        m = float(m_cfg) * np.ones(a_gen.dim)
    elif isinstance(m_cfg, list) and all(is_number(x) for x in m_cfg):
        m = np.asarray(m_cfg, dtype=float)
        if m.size != a_gen.dim:
            raise ValidationError("config.params.m: list length must equal n")
    elif isinstance(m_cfg, dict) and m_cfg.get("profile") == "sin":
        amp, freq = m_cfg.get("amplitude", 1.0), m_cfg.get("frequency", 1.0)
        if not (is_number(amp) and is_number(freq)):
            raise ValidationError("config.params.m: amplitude and frequency must be numbers")
        m = amp * np.sin(2.0 * math.pi * freq * generators.mesh_nodes(a_gen))
    else:
        raise ValidationError("config.params.m: must be a number, a list or a sin profile")
    return build_fisher(a_gen, m, alpha)


class ScenarioKind(NamedTuple):
    """How a config of one scenario is checked and built: `build` takes `meshes`
    Laplacians of the config's n, bc and beta, then the "params" entries named
    in `params` (numbers) and `extra` (checked by `build` itself), in order."""

    build: Callable[..., ScenarioSpec]
    meshes: int
    params: tuple
    extra: tuple = ()


SCENARIOS = {
    "logistic": ScenarioKind(build_logistic, 1, ("a", "b")),
    "competition": ScenarioKind(
        build_competition, 2, ("a1", "a2", "b11", "b12", "b21", "b22")
    ),
    "fisher": ScenarioKind(_build_fisher_config, 1, ("alpha",), ("m",)),
    "scalar-nonunique": ScenarioKind(build_scalar_nonunique, 0, ("a", "M")),
}


def build_from_config(name: str, params: dict, n: int, bc: str, beta=None) -> ScenarioSpec:
    if name not in SCENARIOS:
        raise ValidationError(f"unknown scenario {name!r}")
    kind = SCENARIOS[name]
    # every mesh of a config is the same Laplacian: one object, whose
    # principal eigenpair a competition build computes once (the scalar
    # takes no mesh, and its bc would make the builder raise)
    meshes = [generators.build_laplacian_1d(n, bc, beta)] * kind.meshes if kind.meshes else []
    values = [params[key] for key in kind.params] + [params.get(key) for key in kind.extra]
    return kind.build(*meshes, *values)
