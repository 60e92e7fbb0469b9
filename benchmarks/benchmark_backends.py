#!/usr/bin/env python3
"""Timing comparison of the compiled core against the pure-Python fallback.

Runs a fixed workload per operation in the current interpreter, then
re-executes itself with QTAIL_BACKEND=python and prints the side-by-side
table.  The kernel-entry and lattice-sum rows come twice: "cold" empties
the per-pair caches before every call (the cost for a new pair), "warm"
repeats one pair.  Usage: python benchmarks/benchmark_backends.py
"""

import json
import os
import subprocess
import sys
import time


def workload():
    import qtail
    from qtail import (
        Phi21Params,
        QContext,
        QParam,
        elliptic_kernel,
        fourier_series,
        phi21,
        qpoch_inf,
        theta,
        theta3,
        validate_pair,
    )
    from qtail.fourier import _clear_pair_caches

    q = QParam(0.5)
    ctx = QContext(q, 1.3, -0.55)
    pair = validate_pair(0.31 / 1.3, 0.44 / 1.3, ctx)
    p = Phi21Params(0.3 + 0.1j, 0.5, 0.7, q)

    def cold(fn):
        """fn with every per-pair cache emptied first, as for a new pair."""

        def run():
            _clear_pair_caches()
            fn()

        return run

    def bench(name, fn, n):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        return name, n, dt

    def entry():
        elliptic_kernel(ctx.point(1, 0), ctx.point(-1, 1), pair, ctx)

    def series():
        fourier_series(0.7, pair, ctx)

    results = [
        bench("qpoch_inf", lambda: qpoch_inf(0.3 + 0.1j, q), 20000),
        bench("theta", lambda: theta(0.7 - 0.2j, q), 20000),
        bench("theta3", lambda: theta3(0.7 - 0.2j, q), 20000),
        bench("phi21", lambda: phi21(p, 0.4 - 0.2j), 5000),
        bench("elliptic_kernel cold", cold(entry), 500),
        bench("elliptic_kernel warm", entry, 2000),
        bench("fourier_series cold", cold(series), 200),
        bench("fourier_series warm", series, 2000),
    ]
    return qtail.backend_name(), results


def main():
    backend, results = workload()
    if os.environ.get("_QTAIL_BENCH_CHILD"):
        print(json.dumps({"backend": backend, "results": results}))
        return
    env = dict(os.environ, QTAIL_BACKEND="python", _QTAIL_BENCH_CHILD="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=env, capture_output=True, text=True, check=True)
    other = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{'operation':<22}{'calls':>8}{backend + ' [s]':>14}"
          f"{other['backend'] + ' [s]':>14}{'speedup':>10}")
    for (name, n, dt), (_, _, dt2) in zip(results, other["results"]):
        print(f"{name:<22}{n:>8}{dt:>14.4f}{dt2:>14.4f}{dt2 / dt:>10.2f}x")


if __name__ == "__main__":
    main()
