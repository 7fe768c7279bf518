"""Batch front-end: parse a JSON config, build a scenario, run the engine,
emit report.json and CSV trajectories.

Exit codes: 0 converged and certified, 1 validation/config error,
2 flagged (non-convergence or breached invariant); report.json lists the
reasons for a 2 under "status_reasons".
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from pathlib import Path

import numpy as np

from . import generators
from .errors import NumericalError, ValidationError
from .mild import trajectory_to_csv
from .monotone import asymptotic_equilibria, certify_sandwich, iterate
from .nonlin import quasi_increasing_shift
from .order import GridFunction, contains, order_slack
from .scenarios import (
    SCENARIOS,
    build_from_config,
    is_number,
    subsolution_margin,
    supersolution_margin,
    verify_subsolution,
    verify_supersolution,
)

DEFAULTS = {"tol": 1e-9, "tol_eq": 1e-9, "tol_res": 1e-8, "seed": 20240901}


def _fail(path: str, message: str):
    raise ValidationError(f"config.{path}: {message}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        _fail("", "top level must be an object")
    kind = SCENARIOS.get(cfg.get("scenario"))
    if kind is None:
        _fail("scenario", f"must be one of {tuple(SCENARIOS)}")
    params = cfg.get("params")
    if not isinstance(params, dict):
        _fail("params", "must be an object")
    for key in kind.params:
        if not is_number(params.get(key)):
            _fail(f"params.{key}", "must be a number")
    if "eps_override" in params and not is_number(params["eps_override"]):
        _fail("params.eps_override", "must be a number")
    if kind.meshes:
        if not isinstance(cfg.get("n"), int) or cfg["n"] < 2:
            _fail("n", "must be an integer >= 2")
        if cfg.get("bc") not in ("dirichlet", "neumann", "robin"):
            _fail("bc", "must be dirichlet, neumann or robin")
        if cfg["bc"] == "robin":
            beta = cfg.get("beta")
            if not is_number(beta) or beta < 0:
                _fail("beta", "robin needs beta >= 0")
    dt = cfg.get("dt")
    if not is_number(dt) or dt <= 0:
        _fail("dt", "must be a positive number")
    horizon = cfg.get("T", "auto")
    if horizon != "auto" and (not is_number(horizon) or horizon <= 0):
        _fail("T", "must be a positive number or \"auto\"")
    for key in ("tol", "tol_eq", "tol_res"):
        val = cfg.get(key, DEFAULTS[key])
        if not is_number(val) or val <= 0:
            _fail(key, "must be a positive number")
        cfg[key] = float(val)
    seed = cfg.setdefault("seed", DEFAULTS["seed"])
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("seed", "must be a non-negative integer")
    emit = cfg.get("emit", {})
    if not isinstance(emit, dict) or not isinstance(emit.get("trajectories", True), bool):
        _fail("emit", "must be an object whose \"trajectories\" is true or false")
    u0_cfg = cfg.get("u0", {"kind": "lower"})
    if not isinstance(u0_cfg, dict) or u0_cfg.get("kind", "lower") not in (
        "lower", "upper", "midpoint", "constant",
    ):
        _fail("u0.kind", "must be lower, upper, midpoint or constant")
    if u0_cfg.get("kind") == "constant" and not is_number(u0_cfg.get("value")):
        _fail("u0.value", "constant u0 needs a numeric value")
    cfg["u0"] = u0_cfg
    return cfg


def _build_scenario(cfg: dict):
    return build_from_config(
        cfg["scenario"], cfg["params"], cfg.get("n", 1), cfg.get("bc", "scalar"),
        cfg.get("beta"),
    )


def _initial_value(cfg: dict, scen) -> GridFunction:
    kind = cfg["u0"].get("kind", "lower")
    interval = scen.interval
    if kind == "lower":
        return interval.lower
    if kind == "upper":
        return interval.upper
    if kind == "midpoint":
        return GridFunction(
            0.5 * (interval.lower.values + interval.upper.values),
            interval.components,
        )
    u0 = GridFunction(
        float(cfg["u0"]["value"]) * np.ones(interval.dim), interval.components
    )
    if not contains(interval, u0, tol=1e-9):
        _fail("u0.value", "constant initial value lies outside the order interval")
    return u0


def _grid_list(values) -> list:
    return [float(x) for x in np.asarray(values).ravel()]


def cmd_run(cfg: dict, out_dir: Path) -> int:
    scen = _build_scenario(cfg)
    horizon = cfg.get("T", "auto")
    t0 = max(1.0, 20.0 * cfg["dt"]) if horizon == "auto" else float(horizon)
    problem = scen.problem(horizon=t0, dt=float(cfg["dt"]))
    u0 = _initial_value(cfg, scen)

    report = iterate(problem, u0, tol=cfg["tol"])
    eq = asymptotic_equilibria(
        problem, tol=cfg["tol"], tol_eq=cfg["tol_eq"], tol_res=cfg["tol_res"],
        seed=int(cfg["seed"]),
    )
    sandwich_ok, worst = certify_sandwich(report)
    slack = order_slack(scen.interval.value_scale(), scen.interval.dim)
    checks = [
        (report.converged, "iteration did not converge"),
        (eq.horizon_converged, "horizon extension did not converge"),
        (sandwich_ok, "sandwich certificate failed"),
        (max(eq.residuals) <= cfg["tol_res"], "equilibrium residual above tol_res"),
        # a Newton-found equilibrium outside [u_*, u^*], beyond the slack
        # asymptotic_equilibria allows its extremal pair
        (eq.extremal_violation <= 10 * cfg["tol_eq"],
         "extremal violation above 10*tol_eq"),
        # U_min/U_max are one march, monotone in time up to round-off and
        # the iteration tolerance
        (eq.continuation_defect <= max(slack, 10 * cfg["tol"]),
         "continuation defect above max(order slack, 10*tol)"),
    ]
    reasons = [reason for ok, reason in checks if not ok]
    status = 2 if reasons else 0

    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "config": cfg,
        "scenario": {
            "name": scen.name,
            "certificates": scen.certificates,
            "eig_data": scen.eig_data,
            "predicted": scen.predicted,
            "notes": scen.notes,
        },
        "iteration": {
            "n_iters": report.n_iters,
            "converged": report.converged,
            "mu_applied": report.mu_applied,
            "distances_lower": report.distances_lower,
            "distances_upper": report.distances_upper,
            "sandwich_violations": report.sandwich_violations,
            "worst_violation": worst,
            "sandwich_certified": sandwich_ok,
            "unique_flag": report.unique_flag,
            "clamp_fraction": report.clamp_fraction,
        },
        "equilibria": {
            "u_star": eq.u_star.values,
            "u_upper_star": eq.u_upper_star.values,
            "residuals": eq.residuals,
            "horizon": eq.horizon,
            "horizon_converged": eq.horizon_converged,
            "windows": eq.windows,
            "certified": eq.certified,
            "certified_radius": eq.certified_radius,
            "worst_violation": eq.worst_violation,
            "continuation_defect": eq.continuation_defect,
            "extremal_violation": eq.extremal_violation,
            "newton_equilibria_found": len(eq.newton_equilibria),
        },
        "status": status,
        "status_reasons": reasons,
    }
    (out_dir / "report.json").write_text(
        json.dumps(_jsonable(doc), indent=2, sort_keys=True)
    )
    if cfg.get("emit", {}).get("trajectories", True):
        trajectory_to_csv(report.u_min, out_dir / "u_min.csv")
        trajectory_to_csv(report.u_max, out_dir / "u_max.csv")
        trajectory_to_csv(eq.U_min, out_dir / "U_min.csv")
        trajectory_to_csv(eq.U_max, out_dir / "U_max.csv")
    print(
        f"{scen.name}: iters={report.n_iters} converged={report.converged} "
        f"unique={report.unique_flag} horizon={eq.horizon:g} "
        f"residuals=({eq.residuals[0]:.2e},{eq.residuals[1]:.2e}) -> exit {status}"
    )
    return status


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _grid_list(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def cmd_eig(cfg: dict) -> int:
    if not SCENARIOS[cfg["scenario"]].meshes:
        print(f"lambda_1 = {cfg['params']['a']:.15g} (scalar generator)")
        return 0
    gen = generators.build_laplacian_1d(cfg["n"], cfg["bc"], cfg.get("beta"))
    pair = generators.principal_eig(gen)
    print(f"lambda_1(A) = {pair.lambda1:.15g}")
    print("phi_0 head:", " ".join(f"{x:.6g}" for x in pair.phi0.values[:8]))
    scen = _build_scenario(cfg)
    for key, value in sorted(scen.eig_data.items()):
        if np.isscalar(value):
            print(f"{key} = {value:.15g}")
    return 0


def cmd_verify(cfg: dict) -> int:
    scen = _build_scenario(cfg)
    eps_override = cfg["params"].get("eps_override")
    if eps_override is not None and "phi0" not in scen.eig_data:
        _fail("params.eps_override", f"{scen.name} has no eps*phi0 lower bound to override")
    interval = scen.interval
    sub_m = subsolution_margin(scen.A, scen.F, interval.lower, scen.cone)
    super_m = supersolution_margin(scen.A, scen.F, interval.upper, scen.cone)
    mu = quasi_increasing_shift(scen.F, interval)
    ok = verify_subsolution(scen.A, scen.F, interval.lower, scen.cone) and \
        verify_supersolution(scen.A, scen.F, interval.upper, scen.cone)
    print(f"sub-solution margin   {sub_m:.6e}")
    print(f"super-solution margin {super_m:.6e}")
    print(f"quasi-increasing shift mu = {mu:.6g}")
    if scen.A.bc != "system":
        print(f"sub-markovian: {generators.check_submarkovian(scen.A)}")
    if eps_override is not None:
        cand = GridFunction(
            float(eps_override) * np.asarray(scen.eig_data["phi0"]),
            interval.components,
        )
        margin = subsolution_margin(scen.A, scen.F, cand, scen.cone)
        cand_ok = verify_subsolution(scen.A, scen.F, cand, scen.cone)
        print(f"eps_override={eps_override}: margin {margin:.6e} pass={cand_ok}")
        ok = ok and cand_ok
    print("certificates:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


def _run_single(args: tuple) -> int:
    cfg_path, out_dir = args
    try:
        cfg = load_config(cfg_path)
        return cmd_run(cfg, Path(out_dir))
    except ValidationError as exc:
        print(f"{cfg_path}: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"{cfg_path}: flagged: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # one broken config must not abort the batch
        print(f"{cfg_path}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mevolve",
        description="monotone iteration engine for semilinear evolution equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "eig", "verify"):
        p = sub.add_parser(name)
        p.add_argument("config", help="JSON config file (run: or a directory)")
        if name == "run":
            p.add_argument("--out", default="out", help="output directory")
            p.add_argument("--jobs", type=int, default=1,
                           help="run a directory of configs concurrently")
    ns = parser.parse_args(argv)

    try:
        if ns.command == "run":
            if ns.jobs < 1:
                raise ValidationError("--jobs must be at least 1")
            path = Path(ns.config)
            if path.is_dir():
                tasks = [
                    (str(p), str(Path(ns.out) / p.stem))
                    for p in sorted(path.glob("*.json"))
                ]
                if not tasks:
                    raise ValidationError(f"no *.json configs in {path}")
                # the executor starts all its workers up front
                workers = min(ns.jobs, len(tasks))
                if workers > 1:
                    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                        codes = list(pool.map(_run_single, tasks))
                else:
                    codes = [_run_single(t) for t in tasks]
                return max(codes)
            return cmd_run(load_config(path), Path(ns.out))
        cfg = load_config(ns.config)
        if ns.command == "eig":
            return cmd_eig(cfg)
        return cmd_verify(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"flagged: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 2 with a message, as a batch config does
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
