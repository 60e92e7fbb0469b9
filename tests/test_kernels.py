"""Lattice kernels: validation of pairs/quadruples, closed forms against the
direct quotient, contour diagonals against the log-derivative diagonals,
gauge structure, and the limit of distinct pairs at gamma = delta."""

import cmath
import math

import numpy as np
import pytest

from qtail import (
    AdmissiblePair,
    AdmissibleQuadruple,
    ConvergenceError,
    DomainError,
    LatticePoint,
    PoleError,
    QContext,
    QParam,
    basic_kernel,
    closed_diag,
    elliptic_diag_contour,
    elliptic_kernel,
    frak_C,
    gauge_eps,
    hat_kernel,
    tail_limit_scan,
    tilde_kernel,
    validate_pair,
    validate_quadruple,
)
from qtail import kernels
from qtail.kernels import (_NODE_LIMIT, C_elliptic, _PairPlan, _QuadPlan, _diag_contour,
                           _elliptic_direct, _ring_sum, truncation_order)

import theta_reference
from conftest import DELTA_REF, GAMMA_REF


def _bits(values) -> bytes:
    """The exact bit pattern of a list of complex values (signed zeros too)."""
    return np.array(values, dtype=complex).tobytes()


class TestLatticeTypes:
    def test_context_requires_sign_ordering(self):
        with pytest.raises(DomainError):
            QContext(QParam(0.5), -1.0, -2.0)
        with pytest.raises(DomainError):
            QContext(QParam(0.5), 1.0, 2.0)

    @pytest.mark.parametrize("zp,zm", [(math.inf, -1.0), (1.0, -math.inf), (math.nan, -1.0)])
    def test_context_rejects_non_finite_anchors(self, zp, zm):
        with pytest.raises(DomainError):
            QContext(QParam(0.5), zp, zm)

    def test_point_value(self, ctx):
        assert LatticePoint(1, 3).value(ctx) == pytest.approx(1.3 * 0.5 ** 3)
        assert LatticePoint(-1, -2).value(ctx) == pytest.approx(-0.55 * 0.5 ** -2)

    def test_point_rejects_bad_sign(self):
        with pytest.raises(DomainError):
            LatticePoint(0, 1)

    def test_exponent_clamp(self):
        with pytest.raises(DomainError):
            LatticePoint(1, 401)

    def test_shift(self):
        assert LatticePoint(1, 2).shift(3) == LatticePoint(1, 5)

    @pytest.mark.parametrize("k", [2.5, 2.0, math.nan, "3", 1 + 0j])
    def test_exponent_must_be_an_integer(self, k):
        with pytest.raises(DomainError):
            LatticePoint(1, k)

    def test_numpy_integer_exponent_is_stored_as_int(self):
        x = LatticePoint(-1, np.int64(-3))
        assert type(x.k) is int and x == LatticePoint(-1, -3)

    @pytest.mark.parametrize("k", [-400, 400])
    def test_value_outside_normal_double_range_raises(self, k):
        # 0.1^-400 overflows; 0.1^400 would be 0 (q^k below ~0.17 goes subnormal)
        with pytest.raises(DomainError):
            LatticePoint(1, k).value(QContext(QParam(0.1), 1.0, -1.0))
        assert math.isfinite(LatticePoint(1, k).value(QContext(QParam(0.5), 1.0, -1.0)))


class TestValidation:
    def test_complementary_pair(self, ctx, pair):
        assert pair.series == "complementary"

    def test_principal_pair(self, ctx):
        g = 0.7 * cmath.exp(0.9j)
        p = validate_pair(g, g.conjugate(), ctx)
        assert p.series == "principal"

    def test_rejects_non_conjugate_complex(self, ctx):
        with pytest.raises(DomainError):
            validate_pair(0.7 * cmath.exp(0.9j), 0.7 * cmath.exp(0.5j), ctx)

    @pytest.mark.parametrize("g,d", [(math.nan, 0.3), (0.3, math.inf),
                                     (complex(0.3, math.nan), 0.3)])
    def test_rejects_non_finite_parameters(self, ctx, g, d):
        with pytest.raises(DomainError):
            validate_pair(g, d, ctx)
        with pytest.raises(DomainError):
            validate_quadruple(g, d, GAMMA_REF, DELTA_REF, ctx)

    def test_rejects_opposite_sign_reals(self, ctx):
        with pytest.raises(DomainError):
            validate_pair(0.3, -0.3, ctx)

    def test_rejects_different_q_intervals(self, ctx):
        # reciprocals land in different q-intervals of the positive branch
        g = 0.5 ** 0.3 / ctx.zeta_plus
        d = 0.5 ** 1.4 / ctx.zeta_plus
        with pytest.raises(DomainError):
            validate_pair(g, d, ctx)

    def test_rejects_reciprocal_lattice_point(self, ctx):
        with pytest.raises(DomainError):
            validate_pair(0.5 ** 2 / ctx.zeta_plus, 0.5 ** 2.5 / ctx.zeta_plus, ctx)

    def test_quadruple_product_constraint(self, ctx):
        with pytest.raises(DomainError):
            validate_quadruple(GAMMA_REF * 0.9, DELTA_REF * 0.9,
                               GAMMA_REF, DELTA_REF, ctx)

    def test_quadruple_pair_property(self, quad):
        p = quad.pair
        assert p.gamma == quad.gamma and p.delta == quad.delta

    def test_signed_zeros_are_normalised(self):
        z = complex(-0.5, -0.0)
        pair = AdmissiblePair(z, complex(-0.0, 0.7), "complementary")
        quad = AdmissibleQuadruple(z, z, z, complex(0.3, -0.0), "complementary", "complementary")
        for v in (pair.gamma, pair.delta, quad.alpha, quad.beta, quad.gamma, quad.delta):
            assert isinstance(v, complex)
            for part in (v.real, v.imag):
                assert part != 0.0 or math.copysign(1.0, part) == 1.0

    def test_signed_zero_pairs_compute_equal(self, cold_caches):
        """A pair given with +0.0 and with -0.0 imaginary parts compares and
        hashes equal, so both must give the same bits whichever the caches
        saw first."""
        ctx = QContext(QParam(0.5), 1.3, -0.55)
        g, d = 0.31 / -0.55, 0.44 / -0.55
        plus = validate_pair(complex(g, 0.0), complex(d, 0.0), ctx)
        minus = validate_pair(complex(g, -0.0), complex(d, -0.0), ctx)
        assert plus == minus and hash(plus) == hash(minus)

        def entries(pair):
            return _bits([elliptic_kernel(LatticePoint(1, m), LatticePoint(-1, n), pair, ctx).value
                          for m in range(-6, 7) for n in range(-6, 7)])

        first = [entries(plus), entries(minus)]
        cold_caches()
        second = [entries(minus), entries(plus)]
        assert first[0] == first[1] == second[0] == second[1]


    def test_near_pairs_are_stored_exactly(self, ctx):
        """_classify admits delta up to 1e-12 off conj(gamma) and real
        pairs with imaginary residue up to 1e-14; the stored pair is the
        exact conjugate or real pair."""
        g = 0.7 * cmath.exp(0.9j)
        assert validate_pair(g, g.conjugate() * (1 + 1e-13), ctx).delta == g.conjugate()
        near = validate_pair(complex(GAMMA_REF, 1e-15 * GAMMA_REF),
                             complex(DELTA_REF, -1e-15 * DELTA_REF), ctx)
        assert (near.gamma, near.delta) == (complex(GAMMA_REF), complex(DELTA_REF))
        alpha = complex(GAMMA_REF / 8, 1e-15 * GAMMA_REF / 8)
        quad = validate_quadruple(alpha, DELTA_REF / 8, g, g.conjugate() * (1 - 1e-13), ctx)
        assert quad.alpha.imag == 0.0 and quad.delta == g.conjugate()

    def test_both_spellings_compute_equal(self, ctx, cold_caches):
        g = 0.7 * cmath.exp(0.9j)
        points = [LatticePoint(1, 0), LatticePoint(1, 2), LatticePoint(-1, 0), LatticePoint(-1, -1)]

        def entries(pair):
            return _bits([elliptic_kernel(x, y, pair, ctx).value
                          for x in points for y in points])

        near = entries(validate_pair(g, g.conjugate() * (1 + 1e-13), ctx))
        cold_caches()
        assert entries(validate_pair(g, g.conjugate(), ctx)) == near


class TestEllipticClosedForms:
    POINTS = [(1, 0), (1, 3), (1, -2), (-1, 0), (-1, 2), (-1, -1)]

    def test_closed_matches_direct_quotient(self, ctx, pair):
        for sx, kx in self.POINTS:
            for sy, ky in self.POINTS:
                if (sx, kx) == (sy, ky):
                    continue
                x, y = LatticePoint(sx, kx), LatticePoint(sy, ky)
                closed = elliptic_kernel(x, y, pair, ctx).value
                direct = _elliptic_direct(x.value(ctx), y.value(ctx), pair, ctx)
                assert abs(closed - direct) <= 1e-11 * max(1.0, abs(closed))

    def test_symmetry(self, ctx, pair):
        x, y = LatticePoint(1, 2), LatticePoint(-1, -1)
        assert elliptic_kernel(x, y, pair, ctx).value == pytest.approx(
            elliptic_kernel(y, x, pair, ctx).value, rel=1e-12)

    def test_diag_translation_invariant(self, ctx, pair):
        base = elliptic_kernel(LatticePoint(1, 0), LatticePoint(1, 0), pair, ctx).value
        for k in (-5, 3, 17):
            v = elliptic_kernel(LatticePoint(1, k), LatticePoint(1, k), pair, ctx).value
            assert v == pytest.approx(base, rel=1e-12)

    def test_diag_trace_is_one(self, ctx, pair):
        dp = closed_diag(1, pair, ctx).value
        dm = closed_diag(-1, pair, ctx).value
        assert (dp + dm).real == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < dp.real < 1.0 and 0.0 < dm.real < 1.0

    def test_contour_diag_matches_closed(self, ctx, pair):
        for sign in (1, -1):
            x = LatticePoint(sign, 0)
            cont = elliptic_diag_contour(x, pair, ctx).value
            closed = closed_diag(sign, pair, ctx).value
            assert abs(cont - closed) <= 1e-10 * max(1.0, abs(closed))

    def test_contour_diag_matches_closed_at_high_q(self):
        """Where theta(z delta) is far below theta(z gamma) on the circle, the
        contour takes it from its own accumulator, not as theta(z gamma) +
        z (delta - gamma) [theta](z delta, z gamma), which cancels."""
        ctx = QContext(QParam(0.9), 1.0, -1.0)
        g = 0.8 * cmath.exp(1.1j)
        pair = validate_pair(g, g.conjugate(), ctx)
        x = LatticePoint(1, 2)
        cont = elliptic_diag_contour(x, pair, ctx).value
        closed = closed_diag(1, pair, ctx).value
        assert abs(cont - closed) <= 1e-10 * max(1.0, abs(closed))

    @pytest.mark.parametrize("q", [0.95, 0.97, 0.98])
    def test_contour_diag_raises_when_rings_disagree(self, q):
        """The contour radius is fixed at half the distance to the nearest
        singularity, where the weight ratio varies by exp(O(1/-ln q)); from
        q = 0.95 no two rings up to _NODE_LIMIT nodes agree for this pair,
        and the last ring was 4.3e-10, 2.1e-4 and 1.1e5 off closed_diag."""
        ctx = QContext(QParam(q), 1.0, -1.0)
        g = 0.8 * cmath.exp(1.1j)
        pair = validate_pair(g, g.conjugate(), ctx)
        with pytest.raises(ConvergenceError, match="no two rings"):
            elliptic_diag_contour(LatticePoint(1, 2), pair, ctx)
        assert issubclass(ConvergenceError, ArithmeticError)  # the CLI's exit 3

    def test_principal_pair_values_real_on_lattice(self, ctx, principal_pair):
        for (sx, kx), (sy, ky) in [((1, 0), (1, 1)), ((1, 0), (-1, 0)), ((-1, 1), (-1, -1))]:
            v = elliptic_kernel(LatticePoint(sx, kx), LatticePoint(sy, ky),
                                principal_pair, ctx).value
            assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))

    def test_off_lattice_diagonal_raises(self, ctx, pair):
        with pytest.raises(DomainError):
            elliptic_kernel(0.77, 0.77, pair, ctx)


class TestEqualParameters:
    def test_is_limit_of_distinct_pairs(self, ctx):
        g = GAMMA_REF
        eps = 1e-6
        points = [(1, 0), (1, 2), (-1, 0), (-1, 1)]
        xs = [LatticePoint(*a).value(ctx) for a in points]
        equal = theta_reference.kernel_matrix(xs, g, g, ctx.q.q, ctx.zeta_plus, ctx.zeta_minus)
        for i, a in enumerate(points):
            for j in range(i, len(points)):
                x, y = LatticePoint(*a), LatticePoint(*points[j])
                perturbed = elliptic_kernel(
                    x, y, validate_pair(g, g * (1.0 + eps), ctx), ctx).value
                assert abs(equal[i][j] - perturbed) <= 1e-4 * max(1.0, abs(equal[i][j]))


class TestGauges:
    def test_gauge_values(self):
        assert gauge_eps(LatticePoint(1, 7)) == 1
        assert gauge_eps(LatticePoint(-1, 3)) == -1
        assert gauge_eps(LatticePoint(-1, 4)) == 1

    @pytest.mark.parametrize("f", [gauge_eps])
    def test_gauge_rejects_a_plain_number(self, f):
        with pytest.raises(DomainError, match="LatticePoint is required"):
            f(0.5)

    @pytest.mark.parametrize("f", [tilde_kernel, hat_kernel])
    def test_gauged_kernel_rejects_a_plain_number(self, f, ctx, pair):
        for x, y in ((0.5, LatticePoint(1, 0)), (LatticePoint(1, 0), -0.25)):
            with pytest.raises(DomainError, match="LatticePoint is required"):
                f(x, y, pair, ctx)

    def test_tilde_translation_invariance(self, ctx, pair, principal_pair):
        """Exact, on all four branch pairs, for shifts out to the |k| clamp."""
        for p in (pair, principal_pair):
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                for kx, ky in ((0, 2), (1, 0), (0, 0), (-3, 1)):
                    base = tilde_kernel(LatticePoint(sx, kx), LatticePoint(sy, ky), p, ctx).value
                    top = kernels.MAX_EXPONENT - max(kx, ky)
                    bottom = -kernels.MAX_EXPONENT - min(kx, ky)
                    for dm in (1, 4, -3, top, bottom):
                        v = tilde_kernel(LatticePoint(sx, kx + dm), LatticePoint(sy, ky + dm),
                                         p, ctx).value
                        assert v == base

    def test_hat_diagonal_is_complementary(self, ctx, pair):
        # particle-hole involution on the plus branch: 1 - K there
        raw = elliptic_kernel(LatticePoint(1, 0), LatticePoint(1, 0), pair, ctx).value
        hat = hat_kernel(LatticePoint(1, 0), LatticePoint(1, 0), pair, ctx).value
        assert hat == pytest.approx(1.0 - raw, rel=1e-12)
        raw_m = elliptic_kernel(LatticePoint(-1, 0), LatticePoint(-1, 0), pair, ctx).value
        hat_m = hat_kernel(LatticePoint(-1, 0), LatticePoint(-1, 0), pair, ctx).value
        assert hat_m == pytest.approx(raw_m, rel=1e-12)

    def test_hat_cross_blocks_antisymmetric(self, ctx, pair):
        x, y = LatticePoint(1, 2), LatticePoint(-1, 1)
        assert hat_kernel(x, y, pair, ctx).value == pytest.approx(
            -hat_kernel(y, x, pair, ctx).value, rel=1e-12)


class TestBasicKernel:
    def test_constant_matches_reference(self, ctx, quad, principal_pair):
        g = principal_pair.gamma
        quads = [quad,
                 validate_quadruple(0.4 * g, 0.4 * g.conjugate(), g, g.conjugate(), ctx),
                 validate_quadruple(GAMMA_REF / 8, DELTA_REF / 8, g, g.conjugate(), ctx),
                 validate_quadruple(0.1 * g, 0.1 * g.conjugate(), GAMMA_REF, GAMMA_REF, ctx)]
        for qd in quads:
            want = theta_reference.frak_C(qd.alpha, qd.beta, qd.gamma, qd.delta, ctx.q.q,
                                          ctx.zeta_plus, ctx.zeta_minus)
            assert abs(frak_C(qd, ctx).value - want) <= 1e-13 * abs(want)

    def test_building_function_two_routes_agree(self, ctx, quad):
        for x in (1.3 * 0.5 ** 2, -0.55 * 0.5, 1.3 * 0.5 ** 5):
            # the two routes of the building function's meromorphic part, of
            # which _h picks one by |x|
            for r in (0, 1):
                d = kernels._h_direct(x, r, quad, ctx)
                t = kernels._h_transformed(x, r, quad, ctx)
                assert abs(d - t) <= 1e-10 * max(abs(d), abs(t), 1e-30)

    def test_symmetry(self, ctx, quad):
        x, y = LatticePoint(1, 1), LatticePoint(-1, 0)
        assert basic_kernel(x, y, quad, ctx).value == pytest.approx(
            basic_kernel(y, x, quad, ctx).value, rel=1e-10)

    def test_values_real_and_bounded(self, ctx, quad):
        for (sx, kx), (sy, ky) in [((1, 0), (1, 1)), ((1, 2), (-1, 0)), ((-1, 0), (-1, 1))]:
            v = basic_kernel(LatticePoint(sx, kx), LatticePoint(sy, ky), quad, ctx).value
            assert abs(v.imag) <= 1e-10 * max(1.0, abs(v))
            assert abs(v) < 10.0

    def test_diagonal_contour_in_unit_interval(self, ctx, quad):
        for sign, k in [(1, 0), (1, 3), (-1, 1)]:
            v = basic_kernel(LatticePoint(sign, k), LatticePoint(sign, k), quad, ctx).value
            assert 0.0 < v.real < 1.0
            assert abs(v.imag) <= 1e-9

    def test_deep_exponent_stability(self, ctx, quad):
        # the meromorphic parts individually overflow the double range near
        # k ~ 30-40; the log-space assembly must keep the kernel O(1)
        v = basic_kernel(LatticePoint(1, 40), LatticePoint(1, 41), quad, ctx).value
        assert math.isfinite(v.real) and abs(v) < 10.0

    def test_deep_diagonal_approaches_theta_kernel(self, ctx, quad, pair):
        deep = basic_kernel(LatticePoint(1, 40), LatticePoint(1, 40), quad, ctx).value
        target = elliptic_kernel(LatticePoint(1, 0), LatticePoint(1, 0), pair, ctx).value
        assert abs(deep - target) < 1e-5

    def test_route_failure_propagates(self, ctx, quad, monkeypatch, cold_caches):
        # deep points take the two-term route alone: its typed error must
        # surface instead of a silent switch to the direct route
        def fail(*args):
            raise PoleError("two-term route fails")

        monkeypatch.setattr(kernels, "_h_transformed", fail)
        with pytest.raises(PoleError):
            basic_kernel(LatticePoint(1, 10), LatticePoint(1, 11), quad, ctx)

    def test_tail_scan_computes_each_point_once(self, ctx, quad, monkeypatch, cold_caches):
        """Criterion 7's scan touches 42 lattice points: each gets one weight
        and two building functions, and frak_C is computed once."""
        calls = {"_h": 0, "_log_weight": 0}

        def counting(name):
            f = getattr(kernels, name)

            def wrapped(*args):
                calls[name] += 1
                return f(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(kernels, name, counting(name))
        tail_limit_scan(LatticePoint(1, 0), LatticePoint(1, 1), quad, ctx, 40)
        assert calls == {"_h": 84, "_log_weight": 42}
        assert _QuadPlan.build.cache_info().misses == 1


def test_kernel_results_carry_no_bound(ctx, pair, quad):
    """No error bound has been derived for a kernel value, so none is given."""
    x, y = LatticePoint(1, 0), LatticePoint(-1, 1)
    results = [
        C_elliptic(pair, ctx),
        closed_diag(1, pair, ctx),
        elliptic_kernel(x, x, pair, ctx),
        elliptic_kernel(x, y, pair, ctx),
        elliptic_kernel(0.77, -0.3, pair, ctx),
        elliptic_diag_contour(x, pair, ctx),
        tilde_kernel(x, y, pair, ctx),
        hat_kernel(x, y, pair, ctx),
        frak_C(quad, ctx),
        basic_kernel(x, y, quad, ctx),
        basic_kernel(x, x, quad, ctx),
    ]
    assert [r.abs_error_bound for r in results] == [None] * len(results)


def _ring_by_ring(x, eps, integrand, pref):
    """The contour diagonal with every ring evaluated at all of its nodes,
    each ring summed by the same ``_ring_sum``."""
    prev = None
    n = 64
    while n <= _NODE_LIMIT:
        ph = np.exp(2j * math.pi * np.arange(n) / n)
        z = x + eps * ph
        val = _ring_sum(x, eps, pref, ph, z, *integrand(z))
        if prev is not None and abs(val - prev) <= 1e-10 * max(1.0, abs(val)):
            return val, True
        prev = val
        n *= 2
    return prev, False


class TestDiagContour:
    X, EPS, PREF = -0.3, 0.1, 0.7 - 0.2j

    def _integrand(self, num):
        """Weight z^2 and numerator ``num`` on an array of nodes; records the
        nodes of every call.  The circle crosses the negative axis, where the
        log ratio's imaginary part jumps by 4 pi, so the unwrap is exercised."""
        calls = []

        def integrand(z):
            calls.append(z.copy())
            return 2.0 * np.log(z) - 2.0 * cmath.log(self.X), num(z)

        return integrand, calls

    def test_each_node_is_evaluated_once(self):
        # sqrt(w(z)/w(x)) = z/x, so the integral is pref d/dz (z/x) = pref/x
        integrand, calls = self._integrand(np.ones_like)
        got, converged = _diag_contour(self.X, self.EPS, integrand, self.PREF)
        nodes = np.concatenate(calls).tolist()
        assert converged
        assert [len(c) for c in calls] == [64, 64]  # one call per ring
        assert len(nodes) == len(set(nodes)) == 128
        assert (got, converged) == _ring_by_ring(self.X, self.EPS, integrand, self.PREF)
        assert abs(got - self.PREF / self.X) < 1e-14

    def test_unconverged_rings_reuse_nodes(self):
        # |z - x - eps| is not analytic, so no two rings agree to 1e-10
        integrand, calls = self._integrand(lambda z: np.abs(z - self.X - self.EPS))
        got, converged = _diag_contour(self.X, self.EPS, integrand, self.PREF)
        nodes = np.concatenate(calls).tolist()
        assert not converged
        assert [len(c) for c in calls] == [64, 64, 128, 256]
        assert len(nodes) == len(set(nodes)) == _NODE_LIMIT
        assert (got, converged) == _ring_by_ring(self.X, self.EPS, integrand, self.PREF)


class TestPairPlanCache:
    def test_second_call_repeats_first_bitwise(self, ctx, pair, quad, cold_caches):
        def calls():
            return _bits([
                elliptic_kernel(LatticePoint(1, 2), LatticePoint(1, -1), pair, ctx).value,
                elliptic_kernel(LatticePoint(1, 1), LatticePoint(-1, 3), pair, ctx).value,
                elliptic_kernel(LatticePoint(-1, 0), LatticePoint(1, -2), pair, ctx).value,
                closed_diag(1, pair, ctx).value,
                closed_diag(-1, pair, ctx).value,
                C_elliptic(pair, ctx).value,
                basic_kernel(LatticePoint(1, 2), LatticePoint(1, 3), quad, ctx).value,
                basic_kernel(LatticePoint(1, 2), LatticePoint(-1, 1), quad, ctx).value,
                basic_kernel(LatticePoint(-1, 1), LatticePoint(-1, 1), quad, ctx).value,
            ])

        first = calls()
        assert _PairPlan.build.cache_info().currsize == 1
        assert _QuadPlan.build.cache_info().currsize == 1
        assert calls() == first

    def test_context_and_tolerance_are_part_of_the_key(self, ctx, pair, cold_caches):
        """The key is (pair, ctx); the precision is the one fixed REL_TOL."""
        ctx2 = QContext(QParam(0.5), 1.3, -0.6)
        plans = [_PairPlan.build(pair, ctx), _PairPlan.build(pair, ctx2)]
        assert _PairPlan.build.cache_info().currsize == 2
        assert [p.ctx for p in plans] == [ctx, ctx2]
        assert plans[0].B != plans[1].B
        assert _PairPlan.build(pair, ctx) is plans[0]

    def test_lattice_coefficients_match_entry_methods(self, ctx, pair, principal_pair):
        """T[i, j, M + d] is tilde(s_i, s_j, d) bitwise for |d| <= M, with M
        the truncation order, and entry is that value times the eps gauge."""
        for p in (pair, principal_pair):
            plan = _PairPlan.build(p, ctx)
            T = plan.lattice
            M = truncation_order(p, ctx)
            assert T.shape == (2, 2, 2 * M + 1)
            for i, s1 in enumerate((1, -1)):
                for j, s2 in enumerate((1, -1)):
                    want = [plan.tilde(s1, s2, d) for d in range(-M, M + 1)]
                    assert _bits(T[i, j]) == _bits(want)
                    for d in range(-M, M + 1):
                        x, y = LatticePoint(s1, d), LatticePoint(s2, 0)
                        assert plan.entry(x, y) == gauge_eps(x) * T[i, j, M + d]
            assert (T[0, 0, M], T[1, 1, M]) == (plan.diag(1), plan.diag(-1))

    def test_lattice_coefficients_are_read_only(self, ctx, pair):
        T = _PairPlan.build(pair, ctx).lattice
        with pytest.raises(ValueError):
            T[0, 1, 0] = 0.0
