"""CLI contract: config schema, exit codes, artifacts, determinism."""

import dataclasses
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mevolve import asymptotic_equilibria, cli, iterate, mild
from mevolve.cli import main
from mevolve.generators import GeneratorSpec
from mevolve.mild import Trajectory

from conftest import bench_module

workloads = bench_module("workloads")  # the benchmark's workload definitions


def write_config(path, **overrides):
    cfg = {
        "scenario": "logistic",
        "params": {"a": 1.0, "b": 2.0},
        "n": 12,
        "bc": "neumann",
        "dt": 0.05,
        "T": "auto",
        "tol": 1e-9,
        "tol_eq": 1e-8,
        "tol_res": 1e-8,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg

# the competition config of the benchmark's setup workload, without its mesh size
SETUP_COMPETITION = {
    "scenario": "competition",
    "params": {"a1": 30.0, "a2": 30.0, "b11": 1.0, "b12": 0.3, "b21": 0.3, "b22": 1.0},
    "bc": "dirichlet", "dt": 0.02, "T": 1.0,
}


def test_config_defaults_are_the_engine_defaults():
    # cli.DEFAULTS restates the keyword defaults of iterate and
    # asymptotic_equilibria; the two tables must not drift apart
    engine = {}
    for fn in (iterate, asymptotic_equilibria):
        for name, param in inspect.signature(fn).parameters.items():
            if param.default is not param.empty and param.default is not None:
                assert engine.setdefault(name, param.default) == param.default, name
    assert engine == cli.DEFAULTS


class TestRun:
    def test_logistic_neumann_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["status"] == 0
        assert doc["iteration"]["converged"] and doc["iteration"]["unique_flag"]
        assert 0.0 < doc["iteration"]["contraction_bound"] < 1.0
        star = np.asarray(doc["equilibria"]["u_star"])
        assert np.max(np.abs(star - 0.5)) <= 1e-6
        for name in ("u_min.csv", "u_max.csv", "U_min.csv", "U_max.csv"):
            header = (out / name).read_text().splitlines()[0]
            assert header.startswith("t,node_0")

    def test_scalar_nonunique_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg, scenario="scalar-nonunique", params={"a": 1.0, "M": 2.0},
            dt=0.005, T=5.0, tol_eq=1e-7, u0={"kind": "midpoint"},
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert abs(doc["equilibria"]["u_upper_star"][0] - 1.0) <= 5e-3
        assert not doc["iteration"]["unique_flag"]
        assert doc["iteration"]["contraction_bound"] is None  # no finite slope at 0

    def test_certified_stop_in_the_report(self, tmp_path):
        # the console-script smoke config of the scalar case
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario="scalar-nonunique", params={"a": 1.0, "M": 2.0}, dt=0.01)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        eq = json.loads((out / "report.json").read_text())["equilibria"]
        assert eq["certified"] == [True, True]
        assert all(r <= 1e-8 for r in eq["certified_radius"])
        assert len(eq["windows"]) == 1 and eq["horizon_converged"]
        # U_min.csv and U_max.csv end at the certified horizon
        for name in ("U_min.csv", "U_max.csv"):
            last = (out / name).read_text().splitlines()[-1]
            assert float(last.split(",")[0]) == pytest.approx(eq["horizon"])

    def test_rising_row_at_an_unstable_lower_bound_exits_0(self, tmp_path):
        # m >= 0 (a sin at frequency 0.5) gives the interval [0, 1], whose
        # lower bound 0 is an unstable equilibrium.  The rising row U sits
        # near 3e-11 and rises by up to 1e-12 a step, within the slack: it
        # takes the contraction start, where a warm start at its state
        # would breach the sandwich at step 47
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario="fisher",
                     params={"alpha": 0.5349847038870532,
                             "m": {"profile": "sin", "amplitude": 5.487300271461031,
                                   "frequency": 0.5}},
                     n=4, dt=0.02, T=1.0)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["iteration"]["sandwich_certified"]
        eq = doc["equilibria"]
        assert eq["certified"] == [True, True] and len(eq["windows"]) == 1

    def test_unstable_extremal_equilibrium_keeps_its_exit_code(self, tmp_path):
        # a constant Fisher weight gives the [0, 1] interval, whose lower
        # bound 0 is an unstable equilibrium; 0 with F(0) = 0 is one by
        # construction, so as the least point of the interval it certifies
        # with radius 0
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario="fisher", params={"alpha": 0.5, "m": 4.0})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        eq = json.loads((out / "report.json").read_text())["equilibria"]
        assert eq["certified"] == [True, True]
        assert eq["certified_radius"][0] == 0.0
        assert eq["u_star"] == [0.0] * 12

    def test_negative_dt_is_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, dt=-1e-3)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config.dt" in capsys.readouterr().err

    def test_unknown_scenario_is_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario="heat-death")
        assert main(["run", str(cfg)]) == 1
        assert "config.scenario" in capsys.readouterr().err

    def test_determinism_bit_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        main(["run", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()
        assert (tmp_path / "a/U_min.csv").read_bytes() == (
            tmp_path / "b/U_min.csv"
        ).read_bytes()

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_U_min_file_is_a_copy_only_of_the_same_row(self, tmp_path, monkeypatch, kind):
        # from the lower bound the march certifies at window 1 and U_min is
        # iterate's lower row, one object: its text is rendered once, for
        # u_min.csv.  From the upper bound iterate's lower row falls, and
        # U_min is rendered
        header, written, rendered = mild.csv_header, {}, []
        render = cli.trajectory_to_csv

        def recording(traj, path):
            written[path.name] = traj
            render(traj, path)

        def counting(n_points, components):  # one header per rendering
            rendered.append(list(written)[-1])
            return header(n_points, components)

        monkeypatch.setattr(cli, "trajectory_to_csv", recording)
        monkeypatch.setattr(mild, "csv_header", counting)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, u0={"kind": kind})
        copied = kind == "lower"
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert ("U_min.csv" in rendered) is not copied
        assert (written["U_min.csv"] is written["u_min.csv"]) is copied
        out = tmp_path / "out"
        U_min = (out / "U_min.csv").read_bytes()
        assert (U_min == (out / "u_min.csv").read_bytes()) is copied
        # the file holds the bytes the renderer writes
        traj = written["U_min.csv"]
        fresh = Trajectory(traj.t_grid, traj.states, traj.components)
        render(fresh, tmp_path / "rendered.csv")
        assert (tmp_path / "rendered.csv").read_bytes() == U_min

    def test_directory_run_with_jobs(self, tmp_path):
        configs = tmp_path / "configs"
        configs.mkdir()
        write_config(configs / "one.json")
        write_config(configs / "two.json", params={"a": 1.0, "b": 1.0})
        out = tmp_path / "batch"
        assert main(["run", str(configs), "--out", str(out), "--jobs", "2"]) == 0
        assert (out / "one" / "report.json").exists()
        assert (out / "two" / "report.json").exists()

    @pytest.mark.parametrize("jobs, n_configs, workers", [
        (5000, 2, 2), (5000, 1, None), (2, 3, 2), (1, 3, None),
    ])
    def test_jobs_are_capped_at_the_config_count(
        self, tmp_path, monkeypatch, jobs, n_configs, workers
    ):
        # an executor that records its size and runs the tasks in-process:
        # no process is started, whatever --jobs says
        sizes, ran = [], []

        class InProcess:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcess)
        monkeypatch.setattr(cli, "cmd_run", lambda cfg, out_dir: ran.append(out_dir.name) or 0)
        configs = tmp_path / "configs"
        configs.mkdir()
        for i in range(n_configs):
            write_config(configs / f"c{i}.json")
        argv = ["run", str(configs), "--out", str(tmp_path / "o"), "--jobs", str(jobs)]
        assert main(argv) == 0
        assert sizes == ([] if workers is None else [workers])
        assert ran == [f"c{i}" for i in range(n_configs)]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", None)
        configs = tmp_path / "configs"
        configs.mkdir()
        write_config(configs / "one.json")
        out = tmp_path / "o"
        for target in (configs, configs / "one.json"):
            assert main(["run", str(target), "--out", str(out), "--jobs", jobs]) == 1
            assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "eig", "verify"])
    def test_single_config_internal_error_exits_2(
        self, tmp_path, monkeypatch, capsys, command
    ):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, f"cmd_{command}", boom)
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "internal error: RuntimeError: boom" in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        {"params": {"a": 15.0, "b": 1.0}, "n": 99, "bc": "dirichlet",
         "dt": 0.02, "T": 1.0},
        {**SETUP_COMPETITION, "n": 60},
    ], ids=["logistic-dirichlet", "competition-dirichlet"])
    def test_report_is_valid_json(self, tmp_path, overrides):
        # their sandwich slack comes out of numpy as np.float64/np.bool_
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) in (0, 2)
        doc = json.loads((out / "report.json").read_text())
        assert isinstance(doc["iteration"]["sandwich_certified"], bool)

    def test_competition_dirichlet_n99_exits_0(self, tmp_path):
        # the benchmark's setup competition at n = 99: the residual floor of
        # its semi-trivial states lies above an absolute target of 1e-10
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **SETUP_COMPETITION, n=99)
        for out in ("a", "b"):
            assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 0
        report = (tmp_path / "a/report.json").read_bytes()
        assert report == (tmp_path / "b/report.json").read_bytes()
        radii = json.loads(report)["scenario"]["eig_data"]["w_radii"]
        assert len(radii) == 2 and all(r <= 1e-7 for r in radii)

    @pytest.mark.parametrize("overrides, key", [
        ({"params": {"a": 1.0}}, "config.params.b"),
        ({"params": {"a": "x", "b": 2.0}}, "config.params.a"),
        ({"params": {"a": True, "b": 2.0}}, "config.params.a"),
        ({"params": {"a": 1.0, "b": 2.0, "eps_override": "big"}},
         "config.params.eps_override"),
        ({"scenario": "competition", "params": {"a1": 1.0, "a2": 1.0}},
         "config.params.b11"),
        ({"scenario": "fisher", "params": {"alpha": 0.5}}, "config.params.m"),
        ({"scenario": "fisher", "params": {"alpha": 0.5, "m": [1.0, "x"]}},
         "config.params.m"),
        ({"scenario": "scalar-nonunique", "params": {"a": 1.0, "M": None}},
         "config.params.M"),
        ({"T": True}, "config.T"),
    ], ids=["missing", "string", "bool", "eps-override", "competition-missing",
            "fisher-no-weight", "fisher-bad-weight", "scalar-null", "bool-horizon"])
    @pytest.mark.parametrize("command", ["run", "eig"])
    def test_bad_param_is_exit_1(self, tmp_path, capsys, overrides, key, command):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        argv = [command, str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides, key", [
        ({"seed": "x"}, "config.seed"),
        ({"seed": True}, "config.seed"),
        ({"seed": 1.5}, "config.seed"),
        ({"seed": -1}, "config.seed"),
        ({"emit": []}, "config.emit"),
        ({"emit": {"trajectories": "no"}}, "config.emit"),
        ({"emit": {"trajectories": 0}}, "config.emit"),
    ], ids=["seed-string", "seed-bool", "seed-float", "seed-negative",
            "emit-list", "emit-string-flag", "emit-int-flag"])
    def test_bad_seed_or_emit_is_exit_1(self, tmp_path, capsys, overrides, key):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_emit_trajectories_false_writes_no_csv(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, emit={"trajectories": False}, seed=7)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert not list(out.glob("*.csv"))

    def test_crashing_config_does_not_abort_the_batch(self, tmp_path, monkeypatch, capsys):
        from mevolve import cli

        original = cli.cmd_run

        def crash_on_one(cfg, out_dir):
            if out_dir.name == "one":
                raise RuntimeError("boom")
            return original(cfg, out_dir)

        monkeypatch.setattr(cli, "cmd_run", crash_on_one)
        configs = tmp_path / "configs"
        configs.mkdir()
        write_config(configs / "one.json")
        write_config(configs / "two.json")
        out = tmp_path / "batch"
        assert main(["run", str(configs), "--out", str(out)]) == 2
        assert (out / "two" / "report.json").exists()
        err = capsys.readouterr().err
        assert "one.json: internal error: RuntimeError: boom" in err

    def test_constant_u0_outside_interval_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, u0={"kind": "constant", "value": 50.0})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "u0" in capsys.readouterr().err



def _patched(monkeypatch, name, **fields):
    """Make cli.<name> return its usual result with some fields replaced."""
    original = getattr(cli, name)
    monkeypatch.setattr(
        cli, name, lambda *a, **k: dataclasses.replace(original(*a, **k), **fields)
    )


class TestStatusReasons:
    """report.json names every check that turned the exit code to 2."""

    def run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)  # tol 1e-9, tol_eq 1e-8
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["status"] == code
        return code, doc["status_reasons"]

    def test_clean_run_has_no_reasons(self, tmp_path):
        assert self.run(tmp_path) == (0, [])

    @pytest.mark.parametrize("target, fields, reason", [
        ("iterate", {"converged": False}, "iteration did not converge"),
        ("asymptotic_equilibria", {"horizon_converged": False},
         "horizon extension did not converge"),
        ("asymptotic_equilibria", {"residuals": (1e-7, 0.0)},
         "equilibrium residual above tol_res"),
    ], ids=["iteration", "horizon", "residual"])
    def test_existing_checks_are_named(self, tmp_path, monkeypatch, target, fields, reason):
        _patched(monkeypatch, target, **fields)
        assert self.run(tmp_path) == (2, [reason])

    def test_inner_iteration_cap_is_named(self, tmp_path, monkeypatch):
        # a real march stopped by the cap, not a patched result; the capped
        # windows never converge, so the horizon check fails as well
        from mevolve import monotone

        monkeypatch.setattr(monotone, "MAX_INNER_ITER", 2)
        monkeypatch.setattr(monotone, "MAX_WINDOWS", 2)
        code, reasons = self.run(tmp_path)
        assert code == 2
        assert reasons[:2] == ["iteration did not converge", "horizon extension did not converge"]

    def test_failed_sandwich_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "certify_sandwich", lambda report: (False, 1.0))
        assert self.run(tmp_path) == (2, ["sandwich certificate failed"])

    @pytest.mark.parametrize("field, limit, reason", [
        ("extremal_violation", 1e-7, "extremal violation above 10*tol_eq"),
        ("continuation_defect", 1e-8,
         "continuation defect above max(order slack, 10*tol)"),
    ], ids=["extremal", "continuation"])
    @pytest.mark.parametrize("factor", [0.5, 1.5])
    def test_gated_checks(self, tmp_path, monkeypatch, field, limit, reason, factor):
        # limits are the benchmark's: 10*tol_eq and max(order slack, 10*tol)
        _patched(monkeypatch, "asymptotic_equilibria", **{field: factor * limit})
        expected = (2, [reason]) if factor > 1 else (0, [])
        assert self.run(tmp_path) == expected

    def test_wrong_certificate_is_caught_by_the_cross_check(self, tmp_path, monkeypatch,
                                                           capsys):
        # a certificate that claims the genuine but non-minimal equilibrium
        # 0 of the scalar case (equilibria -1 < 0 < 1) with radius 0, while
        # the maximal end stays uncertified: the random-start cross-check
        # runs, finds -1 below the claimed minimal end and fails the run
        from mevolve import monotone

        def wrong(problem, state, side, tol_eq, slack):
            return (np.zeros_like(state), 0.0) if side == 1 else None

        monkeypatch.setattr(monotone, "_certify_extremal", wrong)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario="scalar-nonunique", params={"a": 1.0, "M": 2.0}, dt=0.01)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["equilibria"]["certified"] == [True, False]
        assert doc["equilibria"]["u_star"] == [0.0]
        assert doc["equilibria"]["newton_equilibria_found"] > 0
        assert doc["status_reasons"] == ["extremal violation above 10*tol_eq"]

    def test_certificate_of_a_non_equilibrium_fails_the_residual_check(self, tmp_path,
                                                                       monkeypatch):
        # both ends "certified", so the cross-check does not run; a
        # certificate that returns 0.5, no equilibrium of the scalar case,
        # still fails the run through the residual of the reported point
        from mevolve import monotone

        original = monotone._certify_extremal

        def lying(problem, state, side, tol_eq, slack):
            if side == 1:
                return np.full_like(state, 0.5), 0.0
            return original(problem, state, side, tol_eq, slack)

        monkeypatch.setattr(monotone, "_certify_extremal", lying)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario="scalar-nonunique", params={"a": 1.0, "M": 2.0}, dt=0.01)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        eq = doc["equilibria"]
        assert eq["certified"] == [True, True] and eq["u_star"] == [0.5]
        assert (eq["newton_equilibria_found"], eq["extremal_violation"]) == (0, 0.0)
        assert doc["status_reasons"] == ["equilibrium residual above tol_res"]

    def test_every_failed_check_is_named(self, tmp_path, monkeypatch):
        _patched(monkeypatch, "iterate", converged=False)
        _patched(monkeypatch, "asymptotic_equilibria", horizon_converged=False,
                 extremal_violation=1.0, continuation_defect=1.0)
        code, reasons = self.run(tmp_path)
        assert code == 2 and len(reasons) == 4

    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_benchmark_configs_exit_0(self, tmp_path, workload):
        for i, cfg in enumerate(workloads.configs(workload, workloads.DEFAULT_SEED)):
            cfg["emit"] = {"trajectories": False}
            path, out = tmp_path / f"{i}.json", tmp_path / f"out{i}"
            path.write_text(json.dumps(cfg))
            assert main(["run", str(path), "--out", str(out)]) == 0, workloads.label(cfg)
            assert json.loads((out / "report.json").read_text())["status_reasons"] == []

class TestEigVerify:
    def test_eig_prints_closed_form(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg, params={"a": 15.0, "b": 1.0}, n=99, bc="dirichlet", dt=0.01
        )
        assert main(["eig", str(cfg)]) == 0
        out = capsys.readouterr().out
        lam = float(out.splitlines()[0].split("=")[1])
        h = 0.01
        assert abs(lam - (4 / h**2) * np.sin(np.pi * h / 2) ** 2) <= 1e-12

    def test_eig_neumann_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["eig", str(cfg)]) == 0
        lam = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert abs(lam) <= 1e-11

    def test_verify_passes_on_valid_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["verify", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_flags_oversized_eps(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg, params={"a": 10.5, "b": 1.0, "eps_override": 30.0},
            n=30, bc="dirichlet",
        )
        assert main(["verify", str(cfg)]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "margin" in out

    @pytest.mark.parametrize("scenario, params", [
        ("competition", {"a1": 30.0, "a2": 30.0, "b11": 1.0, "b12": 0.3,
                         "b21": 0.3, "b22": 1.0}),
        ("scalar-nonunique", {"a": 1.0, "M": 2.0}),
    ])
    def test_verify_rejects_eps_override_without_phi0(
        self, tmp_path, capsys, scenario, params
    ):
        # neither scenario has an eps*phi0 lower bound, so no check could read it
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario=scenario, params={**params, "eps_override": 1e6},
                     bc="dirichlet")
        assert main(["verify", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "config.params.eps_override" in captured.err
        assert "PASS" not in captured.out

    def test_verify_equilibrium_as_both_bounds(self, tmp_path, capsys):
        # degenerate logistic interval via the scalar scenario: lower bound
        # margins are reported and certificates pass
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario="scalar-nonunique", params={"a": 1.0, "M": 1.0})
        assert main(["verify", str(cfg)]) == 0


class TestTracerSurface:
    """bench/tracer.py patches mevolve's module attributes from outside, so a
    renamed or deleted attribute breaks the benchmark's traced run."""

    @staticmethod
    def bindings() -> dict:
        snapshot = {
            (name, attr): value
            for name, module in list(sys.modules.items())
            if name == "mevolve" or name.startswith("mevolve.")
            for attr, value in list(vars(module).items())
        }
        snapshot["GeneratorSpec", "_eig_factors"] = vars(GeneratorSpec)["_eig_factors"]
        return snapshot

    def test_install_and_uninstall_restore_every_binding(self):
        tracer_module = bench_module("tracer")
        before = self.bindings()
        tracer = tracer_module.Tracer()
        try:  # uninstall also reverts the bindings of a partial install
            tracer.install()
            for module, attr, _ in tracer_module.SPANNED:
                assert getattr(module, attr) is not before[module.__name__, attr], attr
            assert (vars(GeneratorSpec)["_eig_factors"]
                    is not before["GeneratorSpec", "_eig_factors"])
        finally:
            tracer.uninstall()
        after = self.bindings()
        assert after.keys() == before.keys()
        assert [key for key in before if after[key] is not before[key]] == []


def test_console_entry_point_works(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, n=8)
    proc = subprocess.run(
        [sys.executable, "-m", "mevolve.cli", "eig", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "lambda_1" in proc.stdout


MATRIX_PARAMS = {
    "logistic": {"a": 15.0, "b": 1.0},
    "competition": {"a1": 30.0, "a2": 30.0, "b11": 1.0, "b12": 0.3, "b21": 0.3, "b22": 1.0},
    "fisher": {"alpha": 0.5, "m": {"profile": "sin", "amplitude": 8.0, "frequency": 1.0}},
}


def run_matrix_config(directory, capsys, **overrides):
    """Run one config; it must end in a documented exit code, with a report
    naming its status on 0 and 2, and never in a traceback."""
    cfg = directory / "cfg.json"
    write_config(cfg, beta=0.5, **overrides)
    out = directory / "out"
    code = main(["run", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err
    if code != 1:
        doc = json.loads((out / "report.json").read_text())
        assert doc["status"] == code
        assert (doc["status_reasons"] == []) == (code == 0)
        eq = doc["equilibria"]
        for certified, radius in zip(eq["certified"], eq["certified_radius"]):
            assert radius <= doc["config"]["tol_eq"] if certified else radius is None
    return code


class TestScenarioMatrix:
    """Every scenario under every boundary condition, and the edge cases of
    the scenario gates, through `mevolve run`."""

    @pytest.mark.parametrize("n", [8, 2])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
    @pytest.mark.parametrize("scenario", sorted(MATRIX_PARAMS))
    def test_scenario_and_boundary_condition(self, tmp_path, capsys, scenario, bc, n):
        params = MATRIX_PARAMS[scenario]
        assert run_matrix_config(tmp_path, capsys, scenario=scenario, params=params,
                                 n=n, bc=bc) == 0

    def test_scalar(self, tmp_path, capsys):
        assert run_matrix_config(tmp_path, capsys, scenario="scalar-nonunique",
                                 params={"a": 1.0, "M": 2.0}) == 0

    @pytest.mark.parametrize("scenario, params, bc", [
        # lambda_1 of the 8-node Dirichlet Laplacian is about 9.8
        ("logistic", {"a": 5.0, "b": 1.0}, "dirichlet"),
        ("competition", {**MATRIX_PARAMS["competition"], "a1": 5.0}, "dirichlet"),
        ("competition", {**MATRIX_PARAMS["competition"], "b12": 2.0, "b21": 2.0},
         "dirichlet"),
        ("competition", {**MATRIX_PARAMS["competition"], "b12": 2.0, "b21": 2.0},
         "neumann"),
    ], ids=["logistic-a-below-lambda1", "competition-a1-below-lambda1",
            "strong-competition-dirichlet", "strong-competition-neumann"])
    def test_gate_edge_cases(self, tmp_path, capsys, scenario, params, bc):
        assert run_matrix_config(tmp_path, capsys, scenario=scenario, params=params,
                                 n=8, bc=bc) == 0

    def test_semi_trivial_state_on_an_interval_bound(self, tmp_path, capsys):
        # a draw of test_drawn_params: species 2's logistic state 1 is the
        # lower bound of its interval (lambda_1 = 1), and Newton ends at
        # residual 1.1e-16, so p + eps*psi leaves the interval for every eps
        # unless clipped to the far bound; the build used to exit 2 with no
        # report.  a1 = lambda_1 is critical: species 1 dies out like 1/t,
        # so that end neither certifies nor stalls within max_windows
        params = {"a1": 1.0, "a2": 2.0, "b11": 1.0, "b12": 1.0, "b21": 1.0, "b22": 1.0}
        code = run_matrix_config(tmp_path, capsys, scenario="competition", params=params,
                                 n=2, bc="robin")
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["scenario"]["eig_data"]["w_radii"][0] is None
        assert doc["scenario"]["eig_data"]["w_radii"][1] <= 1e-15
        assert code == 2
        assert "horizon extension did not converge" in doc["status_reasons"]

    @given(
        st.sampled_from(sorted(MATRIX_PARAMS)),
        st.sampled_from(["dirichlet", "neumann", "robin"]),
        st.integers(2, 8),
        st.data(),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drawn_params(self, tmp_path_factory, capsys, scenario, bc, n, data):
        rate = st.floats(0.5, 40.0)
        if scenario == "logistic":
            params = {"a": data.draw(rate), "b": data.draw(st.floats(0.5, 5.0))}
        elif scenario == "competition":
            params = {key: data.draw(rate) for key in ("a1", "a2")}
            params.update({key: data.draw(st.floats(0.5, 2.5))
                           for key in ("b11", "b12", "b21", "b22")})
        else:
            params = {"alpha": data.draw(st.floats(0.1, 0.9)),
                      "m": {"profile": "sin", "amplitude": data.draw(st.floats(0.5, 12.0)),
                            "frequency": data.draw(st.floats(0.2, 2.0))}}
        run_matrix_config(tmp_path_factory.mktemp("drawn"), capsys, scenario=scenario,
                          params=params, n=n, bc=bc)
