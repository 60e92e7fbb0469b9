"""Limit regimes: tail depth convergence, the two-line trigonometric limit
and the discrete sine limit, plus validation of the regime parameters."""

import math

import pytest

from qtail import (
    DomainError,
    LatticePoint,
    RegimeI,
    RegimeII,
    TrigParams,
    sine_kernel,
    sine_limit_scan,
    tail_limit_scan,
    trig_kernel,
    trig_limit_scan,
)
from qtail import limits


class TestTrigKernel:
    def test_rejects_integer_difference(self):
        with pytest.raises(DomainError):
            TrigParams(0.7, 1.7)

    @pytest.mark.parametrize("c,d", [(math.nan, 0.7), (0.3, math.inf)])
    def test_rejects_non_finite_exponents(self, c, d):
        with pytest.raises(DomainError):
            TrigParams(c, d)

    def test_rejects_bad_line_index(self):
        tp = TrigParams(0.3, 0.7)
        with pytest.raises(DomainError):
            trig_kernel((0, 0.1), (1, 0.2), tp)

    def test_diagonal_value(self):
        tp = TrigParams(0.3, 0.7)
        pref = math.sin(0.3 * math.pi) * math.sin(0.7 * math.pi) / (
            math.pi * math.sin(-0.4 * math.pi))
        assert trig_kernel((1, 0.5), (1, 0.5), tp) == pytest.approx(pref * -0.4)

    def test_same_line_diagonal_is_continuous_limit(self):
        tp = TrigParams(0.3, 0.7)
        lim = trig_kernel((2, 1e-8), (2, 0.0), tp)
        assert trig_kernel((2, 0.0), (2, 0.0), tp) == pytest.approx(lim, rel=1e-6)

    def test_same_line_symmetry(self):
        tp = TrigParams(0.25, 0.6)
        assert trig_kernel((1, 0.4), (1, -0.3), tp) == pytest.approx(
            trig_kernel((1, -0.3), (1, 0.4), tp))


class TestSineKernel:
    def test_diagonal_density(self):
        assert sine_kernel(3, 3, 1.2) == pytest.approx(1.2 / math.pi)

    def test_symmetry_and_formula(self):
        assert sine_kernel(5, 2, 0.9) == pytest.approx(math.sin(0.9 * 3) / (3 * math.pi))
        assert sine_kernel(2, 5, 0.9) == pytest.approx(sine_kernel(5, 2, 0.9))


class TestTailLimit:
    def test_converges_geometrically(self, ctx, quad):
        x, y = LatticePoint(1, 0), LatticePoint(1, 1)
        scan = tail_limit_scan(x, y, quad, ctx, 30)
        errs = dict(scan)
        assert errs[30] < 1e-5
        assert errs[30] < errs[10] < errs[0]

    def test_cross_branch_converges(self, ctx, quad):
        x, y = LatticePoint(1, 0), LatticePoint(-1, 0)
        scan = tail_limit_scan(x, y, quad, ctx, 25)
        assert scan[-1][1] < 1e-4
        assert scan[-1][1] < scan[0][1]

    def test_rejects_negative_depth(self, ctx, quad):
        with pytest.raises(DomainError):
            tail_limit_scan(LatticePoint(1, 0), LatticePoint(1, 1), quad, ctx, -1)

    @pytest.mark.parametrize("M_max", [2.5, "3"])
    def test_rejects_non_integer_depth(self, ctx, quad, M_max):
        with pytest.raises(DomainError, match="M_max"):
            tail_limit_scan(LatticePoint(1, 0), LatticePoint(1, 1), quad, ctx, M_max)

    @pytest.mark.parametrize("x,y", [(1.3, LatticePoint(1, 1)), (LatticePoint(1, 0), -0.55)])
    def test_rejects_points_off_the_lattice(self, monkeypatch, ctx, quad, x, y):
        """Checked before the theta-kernel target is evaluated."""
        def refuse(*args):
            raise AssertionError("target evaluated")

        monkeypatch.setattr(limits, "elliptic_kernel", refuse)
        with pytest.raises(DomainError, match="LatticePoint"):
            tail_limit_scan(x, y, quad, ctx, 3)


class TestRegimeII:
    def test_rejects_integer_difference(self):
        with pytest.raises(DomainError):
            RegimeII(c=0.2, d=0.2)

    def test_rejects_exponent_outside_unit_interval(self):
        with pytest.raises(DomainError):
            RegimeII(c=1.3, d=0.4)

    def test_context_and_pair(self):
        reg = RegimeII(c=0.3, d=0.7)
        ctx = reg.context(0.9)
        assert ctx.zeta_plus == pytest.approx(1.0)
        p = reg.pair(0.9, ctx)
        assert p.gamma == pytest.approx(0.9 ** 0.3)

    @pytest.mark.parametrize("i,j", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_trig_scan_decreases(self, i, j):
        reg = RegimeII(c=0.3, d=0.7, q_sweep=(0.8, 0.9, 0.95, 0.99))
        scan = trig_limit_scan(0.4, 0.1, i, j, reg)
        errs = [e for _, e in scan]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05

    def test_mirrored_scan_reports_without_verdict(self):
        # anchored at the negative branch the scan converges to a
        # different plateau; the scan must still run and return finite data
        reg = RegimeII(c=0.3, d=0.7, mirrored=True, q_sweep=(0.8, 0.9))
        scan = trig_limit_scan(0.4, 0.1, 1, 1, reg)
        assert all(math.isfinite(e) for _, e in scan)


class TestRegimeI:
    def test_rejects_bad_phi(self):
        with pytest.raises(DomainError):
            RegimeI(phi=0.0)
        with pytest.raises(DomainError):
            RegimeI(phi=4.0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sine_scan_decreases(self, sign):
        reg = RegimeI(phi=1.2, q_sweep=(0.9, 0.95, 0.99))
        scan = sine_limit_scan(1, 0, sign, reg)
        errs = [e for _, e in scan]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.02

    def test_rejects_bad_sign(self):
        with pytest.raises(DomainError):
            sine_limit_scan(1, 0, 0, RegimeI(phi=1.2))
