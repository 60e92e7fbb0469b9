#!/usr/bin/env python3
"""qtail benchmark: one seeded workload per run, checked op by op.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qtail is imported from ``src/`` there,
on whatever backend ``import qtail`` selects.  Workloads, metrics and
thresholds are defined in ``spec.py`` and ``workloads.py``.

``--trace 0`` runs whole cycles of the workload until ``--seconds`` of op
time have passed and reports the end-to-end metrics: throughput and the
latency percentiles over every op of the run, and the median set-up time
of several fresh interpreters, each timed from its launch to the moment
its first op could start (imports and input generation).  All of these
times are host-normalised (see ``HostClock``).

``--trace 1`` runs a fixed number of cycles (so call counts repeat exactly
for a seed) twice, untraced and then with every layer function wrapped,
and reports the per-layer metrics from the traced pass.

An op fails if it raises, yields a non-finite value or residual, or
exceeds a threshold.  Failures are counted, never fatal, and make the run
report ``correct: false``.  The workloads keep to inputs on which the
parent commit passes every check; the traced scalar_scans run also
evaluates ``workloads.defect_probe``, fixed inputs on which the parent is
known to fail, and reports its failures apart (``defect_probe.failed``).

The last line of standard output is the result as one JSON object; a
fuller record with the environment is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from spec import (  # noqa: E402
    END_TO_END, LAYERS, PER_LAYER, THRESHOLDS, WORKLOADS)

SETUP_PROBES = 5
TRACE_CYCLES = {"fourier_sweep": 2, "window_sampling": 1, "scalar_scans": 1}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (qtail missing or foreign)."""


def import_qtail():
    try:
        import qtail
    except ImportError as exc:
        raise SetupError(f"cannot import qtail from {ROOT}/src: {exc}") from exc
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(qtail.__file__).startswith(src + os.sep):
        raise SetupError(f"qtail imported from {qtail.__file__}, not from {src}")
    return qtail


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Tally:
    """Outcomes of executed ops: failures by kind, worst check residuals."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_kind = {"exception": 0, "nonfinite": 0, "threshold": 0}
        self.exceptions: dict[str, int] = {}
        self.failing_ops: dict[str, int] = {}
        self.worst: dict[str, float] = {}
        self.samples: list[str] = []

    def record(self, op, kind: str | None, detail: str = "") -> None:
        self.attempted += 1
        if kind is None:
            return
        self.failed += 1
        self.by_kind[kind] += 1
        self.failing_ops[op.kind] = self.failing_ops.get(op.kind, 0) + 1
        if len(self.samples) < 10:
            self.samples.append(f"{op.kind} q={op.q:.4f}: {kind} {detail}")

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "by_kind": self.by_kind,
                "exceptions": self.exceptions, "by_op": self.failing_ops,
                "samples": self.samples}

    def worst_margin(self) -> float:
        # log10(residual / threshold) of the worst finite check; a zero
        # residual is floored at 1e-300 to stay finite
        return max((math.log10(max(r, 1e-300) / THRESHOLDS[c]) for c, r in self.worst.items()),
                   default=-300.0)


def execute(op, tally: Tally, wrap=lambda f: f) -> None:
    try:
        checks = op.run(wrap)
    except Exception as exc:  # an op that raises is a failure, not a crash
        name = type(exc).__name__
        tally.exceptions[name] = tally.exceptions.get(name, 0) + 1
        tally.record(op, "exception", f"{name}: {exc}"[:200])
        return
    kind = None
    for check, r in checks:
        r = float(r)
        if not math.isfinite(r):
            kind = "nonfinite"
            continue
        tally.worst[check] = max(tally.worst.get(check, 0.0), r)
        if r >= THRESHOLDS[check] and kind is None:
            kind = "threshold"
    tally.record(op, kind, ", ".join(f"{c}={float(r):.3g}" for c, r in checks))


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# On a shared 2-vCPU Xeon host the speed of this code changed by up to half
# within seconds (the same seed ran 25% apart between runs), within runs
# as well as between them.  Every end-to-end time is therefore scaled by
# REFERENCE_SECONDS / r, where r is the time of a fixed reference loop
# measured next to it, at most REFERENCE_EVERY seconds of op time away.
# The reported times are those of a host on which the loop takes
# REFERENCE_SECONDS; the raw times are kept in the result record.
REFERENCE_SECONDS = 4e-4
REFERENCE_EVERY = 0.05


def _reference_loop() -> complex:
    """Complex arithmetic, cmath calls and small LAPACK calls, the mix
    qtail's scalar paths execute; it does not use qtail, so no change to
    the program can change its time."""
    import numpy as np

    matrix = np.eye(4, dtype=complex) * 3 + np.eye(4, k=1) + np.eye(4, k=-1)
    z, acc, qn, s = 0.3 + 0.4j, 1.0 + 0.0j, 1.0, 0.0j
    for i in range(600):
        acc *= 1.0 - z * qn
        qn *= 0.999
        s += cmath.exp(1e-3j * i) / (1.0 + abs(z) * qn)
    for _ in range(12):
        s += complex(np.linalg.det(matrix))
    return acc + s


def reference_seconds() -> float:
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Turns raw op times into host-normalised ones, a batch at a time:
    each batch is scaled by the mean of the reference times measured
    just before and just after it."""

    def __init__(self):
        self.last = reference_seconds()

    def scale(self, raw: list[float]) -> list[float]:
        now = reference_seconds()
        factor = REFERENCE_SECONDS / (0.5 * (self.last + now))
        self.last = now
        return [t * factor for t in raw]


def run_cycles(workload: str, seed: int, cycles, tally: Tally, tracer=None,
               stop_after: float | None = None, clock: HostClock | None = None):
    """Run whole cycles; returns the raw op latencies of each cycle and,
    with a ``clock``, their host-normalised values.  With ``stop_after``
    the run ends after the cycle that brings the raw op time to it."""
    from workloads import make_cycle

    raw_cycles, norm_cycles = [], []
    busy = 0.0
    for index in cycles:
        raw, norm, batch = [], [], []
        for op in make_cycle(workload, seed, index):
            t0 = time.perf_counter()
            if tracer is None:
                execute(op, tally)
            else:
                tracer.op = tally.attempted
                with tracer.span("bench.op"):
                    execute(op, tally, lambda f: tracer.wrap("bench.kernel_callback", f))
            raw.append(time.perf_counter() - t0)
            batch.append(raw[-1])
            if clock is not None and sum(batch) >= REFERENCE_EVERY:
                norm += clock.scale(batch)
                batch = []
        if clock is not None:
            norm += clock.scale(batch)
        raw_cycles.append(raw)
        norm_cycles.append(norm)
        busy += sum(raw)
        if stop_after is not None and busy >= stop_after:
            break
    return raw_cycles, norm_cycles


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> None:
    """Body of one set-up probe: everything a run does before its first op."""
    import_qtail()
    from workloads import make_cycle

    make_cycle(workload, seed, 0)
    ready = time.monotonic()
    # the host's speed as this process saw it, which may differ from what
    # the parent sees on another core
    print(repr(ready), repr(reference_seconds()), flush=True)


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and host-normalised set-up times of SETUP_PROBES fresh processes."""
    raw, norm = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        ready, reference = map(float, proc.stdout.split()[-2:])
        raw.append(ready - t0)
        norm.append(raw[-1] * REFERENCE_SECONDS / reference)
    return raw, norm


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def deciles(values: list[float]) -> list[float]:
    """The 10th, 20th, ..., 90th percentiles, linearly interpolated."""
    return statistics.quantiles(values, n=10, method="inclusive")


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    setup_raw, setup = setup_seconds(workload, seed)
    tally = Tally()
    raw, norm = run_cycles(workload, seed, itertools.count(), tally, stop_after=seconds,
                           clock=HostClock())
    ops = [t for c in norm for t in c]
    raw_ops = [t for c in raw for t in c]
    lat, raw_lat = deciles(ops), deciles(raw_ops)
    # Throughput is the median over cycles, so that the cut-off of the
    # last cycle does not make it depend on how many cycles fitted; the
    # percentiles pool every op of the run.
    metrics = {
        "throughput_ops_s": statistics.median(len(c) / sum(c) for c in norm),
        "latency_p50_ms": 1e3 * lat[4],
        "latency_p90_ms": 1e3 * lat[8],
        "success_rate": 1.0 - tally.failed / tally.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "cycles": len(norm), "ops": len(ops), "failure_rate": tally.failed / tally.attempted,
        "raw": {"throughput_ops_s": statistics.median(len(c) / sum(c) for c in raw),
                "latency_p50_ms": 1e3 * raw_lat[4],
                "latency_p90_ms": 1e3 * raw_lat[8],
                "setup_s": statistics.median(setup_raw),
                "setup_samples_s": setup_raw},
        "host_speed": sum(raw_ops) / sum(ops),
    }
    return tally, metrics, extra


def traced_run(workload: str, seed: int) -> tuple[Tally, dict, dict]:
    from tracing import Tracer
    from workloads import WINDOW_DRAWS, defect_probe

    cycles = range(TRACE_CYCLES[workload])
    _, plain = run_cycles(workload, seed, cycles, Tally(), clock=HostClock())

    tracer = Tracer(LAYERS)
    tally = Tally()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.run"):
            _, traced = run_cycles(workload, seed, cycles, tally, tracer, clock=HostClock())
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz"))

    s = tracer.summary()

    def stat(name, key):
        return s.get(name, {}).get(key, 0)

    def per_call(name, scale):
        calls = stat(name, "calls")
        return scale * stat(name, "incl_s") / calls if calls else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v["self_s"] for k, v in s.items()
                                         if k.startswith(layer + "."))
    metrics["qspecial.calls"] = sum(v["calls"] for k, v in s.items() if k.startswith("qspecial."))
    metrics["verify.calls"] = sum(v["calls"] for k, v in s.items() if k.startswith("verify."))
    metrics["bench.self_s"] = sum(v["self_s"] for k, v in s.items() if k.startswith("bench."))
    for name, unit, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "calls" and name not in metrics:
            metrics[name] = stat(head, "calls")
        elif tail == "us_per_call":
            metrics[name] = per_call(head, 1e6)
        elif tail == "ms_per_call":
            metrics[name] = per_call(head, 1e3)
    callback = "bench.kernel_callback"
    sampler = stat("dpp.sample_window", "incl_s") - tracer.time_under(callback, "dpp.sample_window")
    draws = stat("dpp.sample_window", "calls") * WINDOW_DRAWS
    metrics["dpp.draws_per_s"] = draws / sampler if sampler > 0 else 0.0
    metrics["dpp.kernel_entries"] = stat(callback, "calls")
    metrics["dpp.kernel_callback_s"] = stat(callback, "incl_s")
    metrics["trace.wall_s"] = traced_wall
    # host-normalised op times of the same ops, traced over untraced
    metrics["trace.overhead_ratio"] = sum(map(sum, traced)) / sum(map(sum, plain))
    metrics["check.worst_margin"] = tally.worst_margin()
    for kind, n in tally.by_kind.items():
        metrics[f"failures.{kind}"] = n
    probe = Tally()
    if workload == "scalar_scans":
        for op in defect_probe():
            execute(op, probe)
    metrics["defect_probe.failed"] = probe.failed
    extra = {"spans": len(tracer.spans),
             "functions": {k: v for k, v in sorted(s.items())},
             "defect_probe": probe.summary()}
    return tally, metrics, extra


def environment(seed: int, qtail) -> dict:
    import platform
    from importlib import metadata

    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "backend": qtail.backend_name() if hasattr(qtail, "backend_name") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read without git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe_setup:
            probe_setup(args.workload, args.seed)
            return 0
        qtail = import_qtail()
        if args.trace:
            tally, metrics, extra = traced_run(args.workload, args.seed)
            names = [(n, u) for n, u, _ in PER_LAYER]
        else:
            tally, metrics, extra = timed_run(args.workload, args.seed, args.seconds)
            names = [(n, u) for n, u, _, _ in END_TO_END]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  environment=environment(args.seed, qtail), detail=extra,
                  failures=tally.summary(),
                  worst_residuals=tally.worst)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, default=str)
    for n, u in names:
        print(f"{args.workload} {n} = {metrics[n]!r} {u}")
    print(f"{args.workload} attempted={tally.attempted} failed={tally.failed} "
          f"failure_rate={tally.failed / tally.attempted!r} by_kind={tally.by_kind} "
          f"exceptions={tally.exceptions}")
    if extra.get("defect_probe", {}).get("attempted"):
        probe = extra["defect_probe"]
        print(f"{args.workload} defect probe (not in the result): attempted={probe['attempted']} "
              f"failed={probe['failed']} by_op={probe['by_op']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
