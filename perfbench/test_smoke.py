"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

A one-cycle run of every workload, timed and traced, must finish and
emit every metric named in ``spec.py``; failing ops must be counted, not
crash the run; the committed ``BENCHMARK.json`` must match ``spec.py``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import spec
import workloads
from workloads import Op, defect_probe, make_cycle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, trace):
    # --seconds 0 stops after the first cycle
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    for m in out["metrics"].values():
        assert math.isfinite(m["value"])
    return out


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_timed_run_emits_every_end_to_end_metric(workload):
    out = result(workload, 0)
    assert list(out["metrics"]) == [m[0] for m in spec.END_TO_END]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m[0]: m[1] for m in spec.END_TO_END}
    for name, value in out["metrics"].items():
        assert value["value"] > 0, name
    rate = out["metrics"]["success_rate"]["value"]
    assert rate == pytest.approx(1 - out["failed"] / out["attempted"])
    # the workloads keep to inputs the parent commit gets right
    assert out["correct"] and out["failed"] == 0


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run_attributes_time_to_layers(workload):
    out = result(workload, 1)
    assert list(out["metrics"]) == [m[0] for m in spec.PER_LAYER]
    m = {k: v["value"] for k, v in out["metrics"].items()}
    # the layers' self times plus the benchmark's own account for the wall time
    accounted = sum(m[f"{layer}.self_s"] for layer in spec.LAYERS) + m["bench.self_s"]
    assert accounted == pytest.approx(m["trace.wall_s"], rel=0.02)
    _, moves, untouched = spec.WORKLOADS[workload]
    for layer in moves:
        assert m[f"{layer}.self_s"] > 0, layer
    for layer in untouched:
        assert m[f"{layer}.self_s"] == 0, layer
    assert m["trace.overhead_ratio"] > 0
    failures = sum(m[f"failures.{k}"] for k in ("exception", "nonfinite", "threshold"))
    assert failures == out["failed"]
    if workload != "scalar_scans":
        assert m["defect_probe.failed"] == 0


def test_traced_counts_repeat_for_a_seed():
    counts = [{k: v["value"] for k, v in result("fourier_sweep", 1)["metrics"].items()
               if k.endswith(".calls") or k == "dpp.kernel_entries"} for _ in range(2)]
    assert counts[0] == counts[1]


def _op(checks):
    def body(_wrap):
        if isinstance(checks, Exception):
            raise checks
        return checks
    return Op("theta_periodicity", 0.5, body)


def test_failing_ops_are_counted_by_kind():
    tally = run.Tally()
    run.execute(_op(ZeroDivisionError("boom")), tally)
    run.execute(_op([("theta_identities", float("nan"))]), tally)
    run.execute(_op([("theta_identities", 1e-3)]), tally)
    run.execute(_op([("theta_identities", 1e-15)]), tally)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.by_kind == {"exception": 1, "nonfinite": 1, "threshold": 1}
    assert tally.exceptions == {"ZeroDivisionError": 1}
    assert tally.worst_margin() == pytest.approx(math.log10(1e-3 / 1e-10))


def test_defect_probe_has_fixed_inputs():
    def fingerprint():
        return [(op.kind, op.q) for op in defect_probe()]

    assert fingerprint() == fingerprint()
    assert {kind for kind, _ in fingerprint()} >= set(workloads.Q_CAP) | {"contour_diag"}


def test_inputs_come_from_the_seed_only():
    def fingerprint(seed):
        return [(op.kind, op.q) for op in make_cycle("scalar_scans", seed, 1)]

    assert fingerprint(5) == fingerprint(5)
    assert fingerprint(5) != fingerprint(6)


def test_benchmark_json_matches_spec():
    with open(spec.benchmark_json_path()) as f:
        assert json.load(f) == spec.benchmark_json()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fourier_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
