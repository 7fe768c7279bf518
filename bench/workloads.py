"""The benchmark's workloads, their seeded inputs and the result check.

Each workload is a fixed list of `mevolve run` configs.  The seed draws the
config `seed` (the starts of the Newton cross-check) and a jitter of the
scenario parameters listed in `JITTERED`: each is multiplied by a factor
drawn uniformly from [1 - JITTER, 1 + JITTER].  The jitter is small on
purpose, so that the work per pass (sweeps, windows) stays within a few
percent of the unjittered configs across seeds.

See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.integrate
import scipy.optimize
from mevolve.monotone import time_monotonicity_violation
from mevolve.order import order_slack

DEFAULT_SEED = 1
RECHECK_SEED = 2  # held back: re-check a claimed gain on this seed
JITTER = 0.005

WORKLOADS = {
    # long Picard iterations (Dirichlet: 158 for u0, ~1,240 more over 4
    # windows) on few factorizations: picard_step bound
    "sweep": [
        {"scenario": "logistic", "params": {"a": 15.0, "b": 1.0},
         "n": 99, "bc": "dirichlet", "dt": 0.02, "T": 1.0},
        {"scenario": "logistic", "params": {"a": 15.0, "b": 1.0},
         "n": 99, "bc": "robin", "beta": 1.0, "dt": 0.02, "T": 1.0},
    ],
    # many short windows and long concatenated trajectories: iterate calls,
    # propagator rebuilds and CSV output; the scalar config runs dim == 1
    "windows": [
        {"scenario": "fisher",
         "params": {"alpha": 0.5,
                    "m": {"profile": "sin", "amplitude": 8.0, "frequency": 1.0}},
         "n": 60, "bc": "neumann", "dt": 0.02, "T": 1.0},
        {"scenario": "scalar-nonunique", "params": {"a": 1.0, "M": 2.0},
         "dt": 0.001, "T": 1.0},
    ],
    # two-component flipped-cone system: 6 principal eigenpairs and two
    # semi-trivial engine runs in the scenario build
    "setup": [
        {"scenario": "competition",
         "params": {"a1": 30.0, "a2": 30.0, "b11": 1.0, "b12": 0.3,
                    "b21": 0.3, "b22": 1.0},
         "n": 60, "bc": "dirichlet", "dt": 0.02, "T": 1.0},
    ],
    # 91 windows of 10 steps on a 160-node mesh: one factorization of a
    # 160 x 160 generator per iterate call
    "mesh": [
        {"scenario": "logistic", "params": {"a": 1.0, "b": 2.0},
         "n": 160, "bc": "neumann", "dt": 0.02, "T": 0.2},
    ],
}

JITTERED = {
    "logistic": ("a", "b"),
    "competition": ("a1", "a2"),
    "fisher": ("alpha", "amplitude"),
    "scalar-nonunique": ("a",),
}

TOL = {"tol": 1e-9, "tol_eq": 1e-9, "tol_res": 1e-8}
REF_TOL = 1e-7  # sup-distance allowed between an equilibrium and its reference


def configs(workload: str, seed: int) -> list[dict]:
    """The workload's configs with the seeded jitter applied, in pass order."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    out = []
    for base in WORKLOADS[workload]:
        cfg = copy.deepcopy(base)
        cfg.update(TOL)
        cfg["u0"] = {"kind": "lower"}
        cfg["seed"] = int(rng.integers(2**31))
        params = cfg["params"]
        for key in JITTERED[cfg["scenario"]]:
            holder = params["m"] if key == "amplitude" else params
            holder[key] *= 1.0 + JITTER * rng.uniform(-1.0, 1.0)
        out.append(cfg)
    return out


def label(cfg: dict) -> str:
    return f"{cfg['scenario']}/{cfg.get('bc', 'scalar')}"


# -- references ----------------------------------------------------------------


def closed_form(cfg: dict, dim: int):
    """(minimal, maximal) equilibrium in closed form, or None."""
    p = cfg["params"]
    if cfg["scenario"] == "scalar-nonunique":
        return np.array([-1.0 / p["a"] ** 2]), np.array([1.0 / p["a"] ** 2])
    if cfg["scenario"] == "logistic" and cfg["bc"] == "neumann":
        const = np.full(dim, p["a"] / p["b"])
        return const, const
    return None


def _steady_state(a_mat: np.ndarray, f, start: np.ndarray, t_end: float = 100.0):
    """Equilibrium reached from `start` by the semi-discrete flow
    du/dt = F(u) - A u (BDF), polished by a root solve of A u = F(u).

    The flow only has to reach the equilibrium's basin, so its tolerances
    are loose; the root solve supplies the digits.
    """

    def rhs(_t, u):
        return f.eval_values(u) - a_mat @ u

    def jac(_t, u):
        return f.jacobian_matrix(u) - a_mat

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, t_end), start, method="BDF", jac=jac, rtol=1e-6, atol=1e-9
    )
    if not sol.success:
        raise RuntimeError(f"reference flow failed: {sol.message}")
    root = scipy.optimize.root(
        lambda u: rhs(0.0, u), sol.y[:, -1], jac=lambda u: jac(0.0, u)
    )
    residual = float(np.max(np.abs(rhs(0.0, root.x))))
    if residual > 1e-9:
        raise RuntimeError(f"reference root solve failed: residual {residual:.3e}")
    return root.x


def reference(cfg: dict, scen):
    """(minimal, maximal) reference equilibrium of the config's scenario.

    Closed form where one exists.  Otherwise the limits of the semi-discrete
    flow from the interval's lower and upper bound, which in a cooperative
    system are the minimal and maximal equilibria of the interval.  The flow
    shares the model (A, F) with the engine but none of its solver: no
    propagators, no Picard iteration, no windows, no Newton polish.
    """
    exact = closed_form(cfg, scen.A.dim)
    if exact is not None:
        return exact
    a_mat, itv = scen.A.matrix, scen.interval
    return (_steady_state(a_mat, scen.F, itv.lower.values),
            _steady_state(a_mat, scen.F, itv.upper.values))


# -- result check --------------------------------------------------------------


def check(cfg: dict, solved: dict, ref) -> list[str]:
    """Reasons the solve is wrong; empty when it passes.

    The slacks are the engine's own: the order slack of the interval for
    single-grid time-monotonicity, `10 * tol_eq` (the slack asymptotic_equilibria
    allows its extremal pair) for the Newton cross-check, and `10 * tol` for
    the window seams of the concatenated trajectories, which inherit the
    iteration tolerance.
    """
    report, eq = solved["report"], solved["eq"]
    itv = solved["scenario"].interval
    slack = order_slack(itv.value_scale(), itv.dim)
    sandwich_ok, worst = solved["sandwich"]
    rising = time_monotonicity_violation(report.u_min, itv, "increasing")
    ref_err = max(float(np.max(np.abs(eq.u_star.values - ref[0]))),
                  float(np.max(np.abs(eq.u_upper_star.values - ref[1]))))
    failures = [
        (not report.converged, "iterate did not converge"),
        (not eq.horizon_converged, "horizon extension did not converge"),
        (not sandwich_ok, f"sandwich certificate failed ({worst:.3e})"),
        (max(eq.residuals) > cfg["tol_res"],
         f"equilibrium residual {max(eq.residuals):.3e} > tol_res"),
        (eq.extremal_violation > 10 * cfg["tol_eq"],
         f"extremal violation {eq.extremal_violation:.3e}"),
        (rising > slack, f"u_min not increasing in time ({rising:.3e})"),
        (eq.continuation_defect > max(slack, 10 * cfg["tol"]),
         f"continuation defect {eq.continuation_defect:.3e}"),
        (ref_err > REF_TOL, f"equilibria {ref_err:.3e} away from the reference"),
    ]
    return [reason for bad, reason in failures if bad]
