"""Identity residual operations and seeded parameter draws."""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qtail import (
    DomainError,
    QContext,
    QParam,
    diagonal_identity_residual,
    fourier_equality_residual,
    logderiv_sum_residual,
    ramanujan_sum_residual,
    trace_identity_residual,
    weierstrass_residual,
)
from qtail.cli import EXIT_OK, EXIT_VERIFY_FAIL, main
from qtail.verify import THRESHOLDS, draw_context, draw_pair, draw_quadruple


def rc(rng, lo=0.3, hi=2.0):
    return float(rng.uniform(lo, hi)) * cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))


class TestWeierstrass:
    def test_random_draws(self, rng):
        for _ in range(40):
            q = QParam(float(rng.uniform(0.3, 0.9)))
            rep = weierstrass_residual(rc(rng), rc(rng), rc(rng), rc(rng), q)
            assert rep.rel_residual < 1e-10, rep.params

    def test_specialization_y_equals_x(self, rng):
        # at Y = X the first and third products collapse
        for _ in range(10):
            q = QParam(float(rng.uniform(0.3, 0.9)))
            X = rc(rng)
            rep = weierstrass_residual(X, X, rc(rng), rc(rng), q)
            assert rep.rel_residual < 1e-10


class TestBilateralSums:
    def test_ramanujan_sum(self, rng):
        for _ in range(25):
            p = float(rng.uniform(0.3, 0.8))
            a = rc(rng, p * 1.1, 0.9 / p)
            z = rc(rng, 0.5, 1.5)
            assert ramanujan_sum_residual(a, z, p).rel_residual < 1e-8

    def test_logderiv_sum(self, rng):
        for _ in range(25):
            p = float(rng.uniform(0.3, 0.8))
            z = rc(rng, 1.05 * p, 0.95 / p)
            assert logderiv_sum_residual(z, p).rel_residual < 1e-8

    def test_ramanujan_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            ramanujan_sum_residual(0.1, 1.0, 0.5)

    def test_logderiv_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            logderiv_sum_residual(3.0, 0.5)


class TestKernelIdentities:
    def test_trace_one(self, ctx, pair):
        for eta in (0.0, 1.1, -2.7):
            assert trace_identity_residual(eta, pair, ctx).rel_residual < 1e-11

    def test_fourier_three_routes(self, ctx, pair):
        for eta in (0.4, -1.8):
            assert fourier_equality_residual(eta, pair, ctx).rel_residual < 1e-10

    def test_diagonal_identity(self, rng):
        for _ in range(20):
            ctx = draw_context(rng, q_range=(0.3, 0.8))
            c, d = sorted(rng.uniform(0.3, 1.2, size=2))
            if d - c < 0.03:
                continue
            rep = diagonal_identity_residual(float(c), float(d), ctx)
            assert rep.rel_residual < 1e-8, rep.params

    def test_diagonal_identity_near_q_one(self):
        """At q = 0.9945 a product of three thetas underflows; the theta
        ratio is taken as one sum of logs."""
        ctx = QContext(QParam(0.9944860155831251), 1.5251321749475126, -1.2515571195855866)
        rep = diagonal_identity_residual(0.6351998626669211, 0.9870841673888442, ctx)
        assert rep.rel_residual < 1e-8


class TestDraws:
    def test_draw_context_ranges(self, rng):
        for _ in range(20):
            ctx = draw_context(rng)
            assert 0.3 <= ctx.q.q <= 0.9
            assert ctx.zeta_plus > 0 > ctx.zeta_minus

    def test_draw_pair_series_tags(self, rng):
        seen = set()
        for _ in range(40):
            ctx = draw_context(rng)
            pair = draw_pair(rng, ctx)
            seen.add(pair.series)
            if pair.series == "principal":
                assert pair.delta == pytest.approx(pair.gamma.conjugate())
            else:
                assert abs(pair.gamma.imag) == 0.0
        assert seen == {"principal", "complementary"}

    def test_draw_quadruple_satisfies_constraint(self, rng):
        for _ in range(20):
            ctx = draw_context(rng)
            quad = draw_quadruple(rng, ctx)
            assert (quad.alpha * quad.beta).real < ctx.q.q ** 2 * (quad.gamma * quad.delta).real

    def test_draws_reproducible_from_seed(self):
        a = draw_pair(np.random.default_rng(42), draw_context(np.random.default_rng(42)))
        b = draw_pair(np.random.default_rng(42), draw_context(np.random.default_rng(42)))
        assert a == b


class TestRegistry:
    def test_verify_all_prints_each_threshold_once(self, capsys):
        # every registry suite at 2 draws: each check it reports has a
        # threshold, and each threshold belongs to one reported check
        code = main(["verify", "all", "--seed", "0", "--draws", "2"])
        assert code in (EXIT_OK, EXIT_VERIFY_FAIL)
        lines = capsys.readouterr().out.splitlines()
        assert sorted(l.split(":")[0].split("/")[1] for l in lines) == sorted(THRESHOLDS)

    def test_benchmark_thresholds_match(self):
        """perfbench/spec.py keeps its own copy of these thresholds, so that
        a change here cannot move what the benchmark accepts unseen; the
        checks both name must agree."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
        loader = importlib.util.spec_from_file_location("perfbench_spec", path)
        spec = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(spec)
        shared = sorted(THRESHOLDS.keys() & spec.THRESHOLDS.keys())
        assert len(shared) == 14
        assert {k: spec.THRESHOLDS[k] for k in shared} == {k: THRESHOLDS[k] for k in shared}
