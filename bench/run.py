#!/usr/bin/env python3
"""The mevolve benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all     # every workload, one table

Runs one workload of workloads.py as a closed loop with one client: passes
one after another, each solving the workload's configs one after another
through the public library API, in the order `mevolve run` uses.  Every
result is checked (workloads.check).  `--trace 0` prints the end-to-end
metrics, with pass times scaled to a reference machine speed measured by
`speed_probe` around every pass; `--trace 1` prints the layer metrics of tracer.py, the tracing
overhead and a probe of the `mevolve run` entry point.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  README.md in this directory documents workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SPEC = ROOT / "BENCHMARK.json"  # run_seconds and every metric's unit
# One BLAS thread: on 2 CPUs the default two threads ran `mesh` 2.6x
# slower and `sweep` no faster; see README.md.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CSV_NAMES = ("u_min", "u_max", "U_min", "U_max")
# speed_probe()'s time on a 2-CPU x86-64 Xeon VM in its fast state: the
# scale that turns a pass's time in probe units back into seconds
PROBE_REF_S = 0.0205



# -- environment ---------------------------------------------------------------


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mevolve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def openblas_threads(np) -> int | None:
    """Threads numpy's bundled OpenBLAS actually uses, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "libscipy_openblas*")):
        handle = ctypes.CDLL(lib)
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, fn_name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(np),
        "blas_threads_env": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- machine speed -------------------------------------------------------------


def speed_probe() -> float:
    """Seconds a fixed CPU kernel takes right now.

    The kernel mixes what a pass does: small numpy calls from a Python loop,
    then plain Python arithmetic.  It touches no mevolve code, so no change
    to the program can change its time; only the machine's speed can.
    """
    import numpy as np

    a = np.random.default_rng(0).random((60, 60))
    v = np.ones(60)
    start = time.perf_counter()
    for _ in range(3000):
        v = a @ v
        v /= np.max(v)
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - start


# -- one solve -----------------------------------------------------------------


def build(mv, cfg: dict):
    return mv.build_from_config(
        cfg["scenario"], cfg["params"], cfg.get("n", 1), cfg.get("bc", "scalar"),
        cfg.get("beta"),
    )


def solve(mv, cfg: dict, out: Path) -> dict:
    """One config, as `mevolve run` does it, with the report left out."""
    start = time.perf_counter()
    scen = build(mv, cfg)
    built = time.perf_counter()
    problem = scen.problem(horizon=cfg["T"], dt=cfg["dt"])
    report = mv.iterate(problem, scen.interval.lower, tol=cfg["tol"])
    eq = mv.asymptotic_equilibria(
        problem, tol=cfg["tol"], tol_eq=cfg["tol_eq"], tol_res=cfg["tol_res"],
        seed=cfg["seed"],
    )
    sandwich = mv.certify_sandwich(report)
    for name, traj in zip(CSV_NAMES, (report.u_min, report.u_max, eq.U_min, eq.U_max)):
        mv.trajectory_to_csv(traj, out / f"{name}.csv")
    done = time.perf_counter()
    return {"scenario": scen, "report": report, "eq": eq, "sandwich": sandwich,
            "setup_s": built - start, "run_s": done - start}


class Runner:
    """Solves a workload's configs pass after pass and counts failed solves."""

    def __init__(self, mv, workloads, configs: list[dict], out: Path):
        self.mv, self.w, self.configs, self.out = mv, workloads, configs, out
        self.attempted = self.failed = 0
        self.refs = []
        for cfg in configs:
            try:
                self.refs.append(workloads.reference(cfg, build(mv, cfg)))
            except Exception as exc:  # every solve of this config will fail
                self.refs.append(f"no reference: {type(exc).__name__}: {exc}")

    def _fail(self, cfg: dict, reason: str):
        self.failed += 1
        print(f"FAILED {self.w.label(cfg)}: {reason}")

    def one_pass(self) -> tuple[float, float]:
        """(run_s, setup_s) of one pass over the configs."""
        run_s = setup_s = 0.0
        for cfg, ref in zip(self.configs, self.refs):
            self.attempted += 1
            if isinstance(ref, str):
                self._fail(cfg, ref)
                continue
            try:
                solved = solve(self.mv, cfg, self.out)
            except Exception as exc:  # a failed solve is counted, not fatal
                self._fail(cfg, f"{type(exc).__name__}: {exc}")
                continue
            run_s += solved["run_s"]
            setup_s += solved["setup_s"]
            reasons = self.w.check(cfg, solved, ref)
            if reasons:
                self._fail(cfg, "; ".join(reasons))
        return run_s, setup_s


def cli_probe(mv, workloads, configs: list[dict], out: Path) -> tuple[float, int]:
    """Each config once through `mevolve run`, in-process; (seconds, failed).

    A config fails on an exception, a nonzero exit code or a missing or
    invalid report.json.
    """
    from mevolve import cli

    failed, elapsed = 0, 0.0
    for i, cfg in enumerate(configs):
        path, dest = out / f"cli-{i}.json", out / f"cli-{i}"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["run", str(path), "--out", str(dest)])
            json.loads((dest / "report.json").read_text())
            outcome = f"exit {code}"
        except Exception as exc:  # the probe reports the entry point's crashes
            code, outcome = None, f"{type(exc).__name__}: {exc}"
        elapsed += time.perf_counter() - start
        failed += code != 0
        print(f"cli {workloads.label(cfg)}: {outcome}")
    return elapsed, failed


# -- runs ----------------------------------------------------------------------


def measure(mv, workloads, runner: Runner, seconds: float, trace: bool) -> dict:
    runner.one_pass()  # warm-up: lazy scipy imports, BLAS buffers
    if not trace:
        # each pass is scaled by the machine speed probed on both sides of it
        probes, raw, scaled = [speed_probe()], [], []
        start = time.perf_counter()
        while not raw or time.perf_counter() - start < seconds:
            run_s, setup_s = runner.one_pass()
            probes.append(speed_probe())
            speed = PROBE_REF_S / (0.5 * (probes[-2] + probes[-1]))
            raw.append((run_s, setup_s))
            scaled.append((run_s * speed, setup_s * speed))
        n = len(raw)
        print(f"{n} timed passes after 1 warm-up pass; wall-clock medians "
              f"run {statistics.median(p[0] for p in raw):.4f} s, setup "
              f"{statistics.median(p[1] for p in raw):.5f} s; speed probe median "
              f"{1e3 * statistics.median(probes):.2f} ms")
        return {
            "run_s": (statistics.median(p[0] for p in scaled), n),
            "setup_s": (statistics.median(p[1] for p in scaled), n),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 1),
        }

    from tracer import Tracer, median_metrics

    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.one_pass()[0])
        tracer.install()
        try:
            tracer.reset()
            traced.append(runner.one_pass()[0])
        finally:
            tracer.uninstall()
        layers.append(tracer.pass_metrics(traced[-1]))
    print(f"{len(plain)} untraced and {len(traced)} traced passes, alternating")
    n = len(traced)
    metrics = {key: (value, n) for key, value in median_metrics(layers).items()}
    cli_s, cli_failed = cli_probe(mv, workloads, runner.configs, runner.out)
    metrics["cli.run_s"] = (cli_s, 1)
    metrics["cli.failed"] = (cli_failed / len(runner.configs), 1)
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), n)
    return metrics


def run_one(args) -> int:
    import mevolve as mv
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    configs = workloads.configs(args.workload, seed)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {seed}: "
          + ", ".join(workloads.label(c) for c in configs))
    TMP.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    try:
        runner = Runner(mv, workloads, configs, out)
        metrics = measure(mv, workloads, runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for name, (value, samples) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {args.units[name]:8s} n={samples}")
    print(f"  {'failed':32s} {runner.failed:>8d} / {runner.attempted} solves")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": args.units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, in order; one summary table."""
    import workloads

    rows, code = [], 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            code = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed", result["failed"] / result["attempted"], "ratio"))
    print(f"\n{'workload':10s} {'metric':32s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:10s} {metric:32s} {value:14.6g} {unit}")
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="sweep, windows, setup, mesh, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: layer metrics instead of end-to-end metrics")
    args = parser.parse_args(argv)
    args.units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # must precede the first numpy import to take effect
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "mevolve" / "__init__.py").is_file():
        print(f"error: no mevolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mevolve

    if Path(mevolve.__file__).resolve().parent != (SRC / "mevolve").resolve():
        print(f"error: imported mevolve from {mevolve.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
