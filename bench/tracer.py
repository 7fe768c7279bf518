"""Layer spans measured from outside mevolve.

`Tracer.install` rebinds public functions of mevolve's modules to wrappers
that record a span per call, then `uninstall` puts the originals back.  A
function imported by name into another module (`from .mild import
picard_step`) has one binding per module, so every binding of the same
function object in every loaded `mevolve.*` module is replaced.

Spans are aggregated as they close: per span name the inclusive time, and
the self time, which is the span minus the time of its direct child spans.
The layer metrics of README.md are read from these sums and the counters.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import mevolve.generators
import mevolve.mild
import mevolve.monotone
import mevolve.scenarios

# (module, attribute, span name); scenarios.build_from_config is the build
SPANNED = [
    (mevolve.scenarios, "build_from_config", "scenarios.build"),
    (mevolve.scenarios, "_semi_trivial", "scenarios.semi_trivial"),
    (mevolve.generators, "principal_eig", "generators.principal_eig"),
    (mevolve.generators, "propagator_matrices", "generators.propagator"),
    (mevolve.mild, "picard_step", "mild.picard"),
    (mevolve.mild, "trajectory_to_csv", "mild.csv"),
    (mevolve.monotone, "iterate", "monotone.iterate"),
    (mevolve.monotone, "asymptotic_equilibria", "monotone.equilibria"),
    (mevolve.monotone, "certify_sandwich", "monotone.certify"),
    (mevolve.monotone, "newton_equilibrium", "monotone.newton"),
]
MONOTONE_SELF = ("monotone.iterate", "monotone.equilibria", "monotone.certify")


def _picard_flops(traj) -> int:
    """Computed flops of one sweep: the B F GEMM and one P matvec per step
    (dim > 1), or two multiplies and an add per step (dim == 1)."""
    k, n = traj.n_steps, traj.states.shape[1]
    if n == 1:
        return 3 * k
    return 2 * (k + 1) * n * n + k * (2 * n * n + n)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [name, start, child time]
        self._rebound: list[tuple] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def reset(self):
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()

    def _wrap(self, name, fn):
        stack, total, self_time, counts = (
            self._stack, self.total, self.self_time, self.counts)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
                total[name] += duration
                self_time[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            counts[name + ".calls"] += 1
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-span counters ---------------------------------------------------

    def _after_mild_picard(self, result, *args, **kwargs):
        self.counts["mild.steps"] += result.n_steps
        self.counts["mild.flops"] += _picard_flops(result)

    def _after_mild_csv(self, result, traj, path):
        self.counts["mild.csv_bytes"] += os.path.getsize(path)

    def _after_monotone_iterate(self, report, *args, **kwargs):
        # iterate runs a lower and an upper sequence per round; inside a
        # window asymptotic_equilibria keeps one of the two
        rounds = report.n_iters
        self.counts["monotone.sequences_run"] += 2 * rounds
        inside_window = bool(self._stack) and self._stack[-1][0] == "monotone.equilibria"
        self.counts["monotone.sequences_kept"] += rounds if inside_window else 2 * rounds

    def _after_monotone_equilibria(self, eq, *args, **kwargs):
        self.counts["monotone.windows"] += len(eq.windows)

    def _after_monotone_newton(self, result, *args, **kwargs):
        if not result[2]:
            self.counts["monotone.newton_failed"] += 1

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mevolve" and not mod_name.startswith("mevolve."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._rebound.append((mod, attr, original))

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for module, attr, name in SPANNED:
            original = getattr(module, attr)
            self._rebind(original, self._wrap(name, original))
        spec = mevolve.generators.GeneratorSpec
        eig_factors = spec._eig_factors
        counts = self.counts

        def counted_eig_factors(gen):
            if gen._eig is None:
                counts["generators.factorizations"] += 1
            return eig_factors(gen)

        spec._eig_factors = counted_eig_factors
        self._rebound.append((spec, "_eig_factors", eig_factors))

    def uninstall(self):
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    # -- metrics -------------------------------------------------------------

    def pass_metrics(self, pass_s: float) -> dict[str, float]:
        """Layer metrics of one pass that took `pass_s` seconds of wall time."""
        c, tot, own = self.counts, self.total, self.self_time
        picard_s = own["mild.picard"]
        run_seq = c["monotone.sequences_run"]
        return {
            "scenarios.build_s": tot["scenarios.build"],
            "scenarios.semi_trivial_s": tot["scenarios.semi_trivial"],
            "generators.principal_eig_s": tot["generators.principal_eig"],
            "generators.principal_eig_calls": c["generators.principal_eig.calls"],
            "generators.propagator_s": tot["generators.propagator"],
            "generators.propagator_calls": c["generators.propagator.calls"],
            "generators.factorizations": c["generators.factorizations"],
            "mild.picard_s": picard_s,
            "mild.sweeps": c["mild.picard.calls"],
            "mild.step_us": 1e6 * picard_s / max(1, c["mild.steps"]),
            "mild.gflop_s": 1e-9 * c["mild.flops"] / picard_s if picard_s else 0.0,
            "mild.csv_s": tot["mild.csv"],
            "mild.csv_mb": c["mild.csv_bytes"] / 1e6,
            "monotone.self_s": sum(own[name] for name in MONOTONE_SELF),
            "monotone.iterate_calls": c["monotone.iterate.calls"],
            "monotone.windows": c["monotone.windows"],
            "monotone.kept_sequence_ratio":
                c["monotone.sequences_kept"] / run_seq if run_seq else 1.0,
            "monotone.newton_s": tot["monotone.newton"],
            "monotone.newton_calls": c["monotone.newton.calls"],
            "monotone.newton_failed": c["monotone.newton_failed"],
            "trace.unattributed_frac":
                (pass_s - sum(own.values())) / pass_s if pass_s else 0.0,
        }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
