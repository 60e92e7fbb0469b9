"""What the benchmark measures: workloads, metrics, bounds and thresholds.

This module is the single source of ``BENCHMARK.json`` at the repository
root; ``python3 perfbench/spec.py`` rewrites that file from the tables
below, and the smoke tests check that the committed file matches.

The correctness thresholds are copies, not imports, of the values the
acceptance gate (``tests/test_acceptance.py``) and the CLI's
``SUITE_THRESH`` use, so that moving that registry inside the package
cannot silently change what the benchmark accepts.
"""

from __future__ import annotations

import json
import os
import sys

RUN_SECONDS = 30

# Layers are the package modules.  The CLI has no layer of its own: each
# subcommand loops over the same public functions the workloads call.
LAYERS = ("qspecial", "qhyper", "kernels", "fourier", "verify", "limits", "dpp")

# name -> (why, layers whose per-layer metrics it should move, layers it
# must leave untouched).  An optimisation of a layer in the third column
# is predicted to change nothing on that workload.
WORKLOADS = {
    "fourier_sweep": (
        "Fourier routes recompute eta-independent work at every eta; shows "
        "pair hoisting and eta batching. Moves fourier, kernels, qspecial, "
        "verify; not dpp, qhyper, limits",
        ("fourier", "kernels", "qspecial", "verify"),
        ("dpp", "qhyper", "limits"),
    ),
    "window_sampling": (
        "Time splits between the window kernel matrix and the per-draw "
        "sampler loop; the only workload that moves the sampler. Moves dpp, "
        "kernels, qspecial; not fourier, verify, qhyper, limits",
        ("dpp", "kernels", "qspecial"),
        ("fourier", "verify", "qhyper", "limits"),
    ),
    "scalar_scans": (
        "One-value-at-a-time special-function calls that cannot be batched; "
        "per-call overhead shows here. Moves qspecial, qhyper, kernels, "
        "limits, verify; not fourier, dpp",
        ("qspecial", "qhyper", "kernels", "limits", "verify"),
        ("fourier", "dpp"),
    ),
}

# (name, unit, better, bound).  success_rate stands in for failure_rate,
# which is 0 whenever every op passes and so has no usable relative
# spread; failure_rate = 1 - success_rate = failed / attempted.
END_TO_END = (
    ("throughput_ops_s", "1/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_p90_ms", "ms", "lower", 0.2),
    ("success_rate", "ratio", "higher", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    ("qspecial.self_s", "s", "lower"),
    ("qspecial.calls", "count", "lower"),
    ("qspecial.theta.us_per_call", "us", "lower"),
    ("qspecial.log_theta.calls", "count", "lower"),
    ("qspecial.log_theta.us_per_call", "us", "lower"),
    ("qspecial.theta_logderiv.us_per_call", "us", "lower"),
    ("qspecial.qpoch_inf.us_per_call", "us", "lower"),
    ("qhyper.self_s", "s", "lower"),
    ("qhyper.phi21.calls", "count", "lower"),
    ("qhyper.phi21.us_per_call", "us", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.log_C_elliptic.calls", "count", "lower"),
    ("kernels.elliptic_kernel.us_per_call", "us", "lower"),
    ("kernels.basic_kernel.ms_per_call", "ms", "lower"),
    ("kernels.elliptic_diag_contour.ms_per_call", "ms", "lower"),
    ("fourier.self_s", "s", "lower"),
    ("fourier.fourier_series.ms_per_call", "ms", "lower"),
    ("fourier.fourier_closed.ms_per_call", "ms", "lower"),
    ("fourier.fourier_lemma_form.ms_per_call", "ms", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.calls", "count", "lower"),
    ("limits.self_s", "s", "lower"),
    ("limits.tail_limit_scan.ms_per_call", "ms", "lower"),
    ("limits.sine_limit_scan.ms_per_call", "ms", "lower"),
    ("limits.trig_limit_scan.ms_per_call", "ms", "lower"),
    ("dpp.self_s", "s", "lower"),
    ("dpp.draws_per_s", "1/s", "higher"),
    ("dpp.kernel_entries", "count", "lower"),
    ("dpp.kernel_callback_s", "s", "lower"),
    ("dpp.exact_outcome_probabilities.ms_per_call", "ms", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("check.worst_margin", "log10", "lower"),
    ("failures.exception", "count", "lower"),
    ("failures.nonfinite", "count", "lower"),
    ("failures.threshold", "count", "lower"),
    ("defect_probe.failed", "count", "lower"),
)

# Relative-residual thresholds: the CLI's SUITE_THRESH plus the gate's
# per-criterion limits (criteria 7, 8 and 11).  The two sampler checks
# are z-scores: an empirical frequency may sit at most this many standard
# errors from the exact probability.
THRESHOLDS = {
    "theta_identities": 1e-10,
    "qdiff_equation": 1e-9,
    "heine_transform": 1e-8,
    "watson_transform": 1e-8,
    "weierstrass_three_term": 1e-10,
    "bilateral_secant_sum": 1e-8,
    "bilateral_logderiv_sum": 1e-8,
    "diagonal_logderiv_product": 1e-8,
    "fourier_three_route_equality": 1e-8,
    "fourier_trace_one": 1e-8,
    "hermitian_residual": 1e-10,
    "det_residual": 1e-10,
    "trace_residual": 1e-10,
    "idempotent_residual": 1e-9,
    "contour_vs_closed_diag": 1e-9,
    "tail_terminal_error": 1e-6,
    "trig_terminal_error": 0.05,
    "sine_terminal_error": 0.02,
    "rho1_zscore": 6.0,
    "outcome_zscore": 6.0,
    "outcome_probability_sum": 1e-9,
}

def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w[0]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def benchmark_json_path() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")


if __name__ == "__main__":
    with open(benchmark_json_path(), "w") as f:
        json.dump(benchmark_json(), f, indent=2)
        f.write("\n")
    sys.exit(0)
