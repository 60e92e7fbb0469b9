"""Fourier matrix of the gauged theta kernel: three evaluation routes,
projection structure, and the truncation-order estimate."""

import cmath
import math

import numpy as np
import pytest

from qtail import (
    DEFAULT_TOL,
    Matrix2C,
    QContext,
    QParam,
    Tolerance,
    fourier_closed,
    fourier_lemma_form,
    fourier_series,
    projection_report,
    tilde_kernel,
    validate_pair,
)
from qtail import fourier, qspecial
from qtail.fourier import _PAIR_CACHES, _closed_constants, _lemma_constants, truncation_order
from qtail.kernels import _CACHE_SIZE, C_elliptic, _PairPlan
from qtail.qspecial import qpoch_inf, theta, theta_logderiv, theta_multi
from qtail.verify import draw_context, draw_pair

from conftest import GAMMA_REF, DELTA_REF

ETAS = [0.0, 0.7, -1.9, math.pi - 0.01, 2.4]


class TestMatrix2C:
    def test_entry_indexing(self):
        M = Matrix2C(1, 2, 3, 4)
        assert M.entry(1, 1) == 1 and M.entry(1, -1) == 2
        assert M.entry(-1, 1) == 3 and M.entry(-1, -1) == 4

    def test_as_array_layout(self):
        A = Matrix2C(1, 2, 3, 4).as_array()
        assert A[0, 1] == 2 and A[1, 0] == 3

    def test_max_abs_diff(self):
        a = Matrix2C(1, 0, 0, 1)
        b = Matrix2C(1, 0.5, 0, 1)
        assert a.max_abs_diff(b) == pytest.approx(0.5)


class TestTruncationOrder:
    def test_grows_with_tightness(self, ctx, pair):
        assert truncation_order(pair, ctx, 1e-16) > truncation_order(pair, ctx, 1e-6)

    def test_geometric_bound_sanity(self, ctx, pair):
        M = truncation_order(pair, ctx, 1e-13)
        q = ctx.q.q
        r = abs(pair.gamma / pair.delta)
        rho = max(math.sqrt(q), math.sqrt(q * r), math.sqrt(q / r))
        assert rho ** (M - 10) <= 1e-13


class TestThreeRoutes:
    @pytest.mark.parametrize("eta", ETAS)
    def test_reference_pair(self, ctx, pair, eta):
        S = fourier_series(eta, pair, ctx)
        C = fourier_closed(eta, pair, ctx)
        L = fourier_lemma_form(eta, pair, ctx)
        assert S.max_abs_diff(C) < 1e-10
        assert S.max_abs_diff(L) < 1e-10

    @pytest.mark.parametrize("eta", [0.3, -2.1])
    def test_principal_pair(self, ctx, principal_pair, eta):
        S = fourier_series(eta, principal_pair, ctx)
        C = fourier_closed(eta, principal_pair, ctx)
        L = fourier_lemma_form(eta, principal_pair, ctx)
        assert S.max_abs_diff(C) < 1e-10
        assert S.max_abs_diff(L) < 1e-10

    def test_random_pairs(self, rng):
        for _ in range(8):
            ctx = draw_context(rng, q_range=(0.3, 0.85))
            pair = draw_pair(rng, ctx)
            eta = float(rng.uniform(-math.pi, math.pi))
            S = fourier_series(eta, pair, ctx)
            C = fourier_closed(eta, pair, ctx)
            scale = max(1.0, float(np.max(np.abs(S.as_array()))))
            assert S.max_abs_diff(C) < 1e-9 * scale


class TestLatticeSum:
    @pytest.mark.parametrize("pair_name", ["pair", "principal_pair"])
    def test_series_is_sum_of_gauged_entries(self, ctx, request, pair_name):
        """Entry (e1, e2) is sum_m e^{i eta m} tilde K(zeta_e1 q^m, zeta_e2)
        over the truncation range, built here from single kernel entries."""
        pair = request.getfixturevalue(pair_name)
        eta = 0.7
        M = truncation_order(pair, ctx, 1e-13)
        expect = np.zeros((2, 2), dtype=complex)
        for i, e1 in enumerate((1, -1)):
            for j, e2 in enumerate((1, -1)):
                y = ctx.point(e2, 0)
                expect[i, j] = sum(
                    cmath.exp(1j * eta * m) * tilde_kernel(ctx.point(e1, m), y, pair, ctx).value
                    for m in range(-M, M + 1)
                )
        got = fourier_series(eta, pair, ctx).as_array()
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def _closed_ten_thetas(eta, pair, ctx, tol=DEFAULT_TOL):
    """fourier_closed with each entry's two numerator thetas evaluated."""
    q, qv = ctx.q, ctx.q.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    s, pp_pref, mm_pref, cross_pref = _closed_constants(pair, ctx, tol)
    e, ec = cmath.exp(1j * eta), cmath.exp(-1j * eta)
    den = theta_multi([-e * qv * s / g, -e * qv * s / d], q, tol).value
    return np.array([
        [pp_pref * theta_multi([-e * zp * s, -ec * zp * s], q, tol).value / den,
         cross_pref * theta_multi([-e * zp * s, -ec * zm * s], q, tol).value / den],
        [cross_pref * theta_multi([-e * zm * s, -ec * zp * s], q, tol).value / den,
         mm_pref * theta_multi([-e * zm * s, -ec * zm * s], q, tol).value / den]])


def _lemma_six_thetas(eta, pair, ctx, tol=DEFAULT_TOL):
    """The log-derivative form as C times differences, with each of its six
    eta-dependent thetas evaluated (gamma != delta)."""
    q, qv = ctx.q, ctx.q.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    C = C_elliptic(pair, ctx, tol).value
    sq = math.sqrt(qv * (g * d).real)
    r2 = abs(zp / zm)

    def ld(z):
        return z * theta_logderiv(z, q, tol)

    def th(z):
        return theta(z, q, tol).value

    pref = C * math.sqrt(r2) * -(qpoch_inf(qv, q, tol).value ** 2) / math.sqrt(
        theta_multi([g * zm, d * zm, g * zp, d * zp], q, tol).value.real)
    pm_pref = pref / th(zp / zm)
    mp_pref = pref / (r2 * th(zm / zp))
    gpdm, dpgm = th(g * zp) * th(d * zm), th(d * zp) * th(g * zm)
    e = cmath.exp(1j * eta)
    th_g, th_d = th(-e * sq / g), th(-e * sq / d)
    return np.array([
        [C * (ld(d * zp) - ld(g * zp) - ld(-e * sq / g) + ld(-e * sq / d)),
         pm_pref * (gpdm * th(e * r2 * sq / g) / th_g - dpgm * th(e * r2 * sq / d) / th_d)],
        [mp_pref * (gpdm * th(e * sq / (r2 * d)) / th_d - dpgm * th(e * sq / (r2 * g)) / th_g),
         C * (ld(g * zm) - ld(d * zm) - ld(-e * sq / d) + ld(-e * sq / g))]])


class TestDistinctThetas:
    """Each route evaluates every distinct theta once per eta: the closed
    form takes theta(-e^{-i eta} zeta s) as the conjugate of
    theta(-e^{i eta} zeta s), the lemma form takes its mp entry from the pm
    one and its other thetas from its divided-difference loops."""

    GRID = [0.0, math.pi, -math.pi] + list(np.linspace(-math.pi, math.pi, 33))

    @pytest.fixture
    def pairs(self, ctx, pair, principal_pair):
        # the reference pair, a principal pair, and a complementary pair on
        # the negative anchor
        minus = validate_pair(0.31 / ctx.zeta_minus, 0.44 / ctx.zeta_minus, ctx)
        return [pair, principal_pair, minus]

    def test_closed_is_the_ten_theta_formula(self, ctx, pairs):
        for p in pairs:
            for eta in self.GRID:
                got = fourier_closed(float(eta), p, ctx).as_array()
                assert np.array_equal(got, _closed_ten_thetas(float(eta), p, ctx))

    def test_closed_at_negative_zero_is_closed_at_zero(self, ctx, pairs):
        for p in pairs:
            assert (fourier_closed(-0.0, p, ctx).as_array().tobytes()
                    == fourier_closed(0.0, p, ctx).as_array().tobytes())

    def test_lemma_is_the_six_theta_formula(self, ctx, pairs):
        for p in pairs:
            for eta in self.GRID:
                got = fourier_lemma_form(float(eta), p, ctx).as_array()
                want = _lemma_six_thetas(float(eta), p, ctx)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("route,per_eta", [(fourier_closed, 4), (fourier_lemma_form, 0)])
    def test_thetas_per_eta(self, monkeypatch, ctx, pairs, route, per_eta):
        calls = []

        def counting(z, q, tol=DEFAULT_TOL):
            calls.append(z)
            return theta(z, q, tol)

        monkeypatch.setattr(qspecial, "theta", counting)
        monkeypatch.setattr(fourier, "theta", counting)
        etas = (0.3, -2.2, math.pi)
        for p in pairs:
            route(0.0, p, ctx)              # builds the eta-independent constants
            calls.clear()
            for eta in etas:
                route(eta, p, ctx)
            assert len(calls) == per_eta * len(etas)


class TestRouteCaches:
    ROUTES = (fourier_series, fourier_closed, fourier_lemma_form)

    def test_second_call_repeats_first_bitwise(self, ctx, pair, principal_pair, cold_caches):
        def calls():
            return np.array([route(eta, p, ctx).as_array()
                             for p in (pair, principal_pair)
                             for eta in (0.0, 0.7, -2.4)
                             for route in self.ROUTES]).tobytes()

        first = calls()
        assert calls() == first

    def test_context_tolerance_and_series_tol_are_part_of_the_key(self, ctx, pair, cold_caches):
        ctx2 = QContext(QParam(0.5), 1.3, -0.6)
        tol2 = Tolerance(rel_tol=1e-10)
        for c, t in ((ctx, DEFAULT_TOL), (ctx2, DEFAULT_TOL), (ctx, tol2)):
            for route in self.ROUTES:
                route(0.7, pair, c, t)
        fourier_series(0.7, pair, ctx, series_tol=1e-8)
        for cache in (_PairPlan.build, _closed_constants, _lemma_constants):
            assert cache.cache_info().currsize == 3
        # two truncation orders for the first plan, one for each other plan
        assert truncation_order(pair, ctx, 1e-8) != truncation_order(pair, ctx, 1e-13)
        assert _PairPlan.lattice.cache_info().currsize == 4
        assert (_closed_constants(pair, ctx, DEFAULT_TOL)
                != _closed_constants(pair, ctx2, DEFAULT_TOL))

    def test_size_stays_within_bound(self, ctx, cold_caches):
        for cache in _PAIR_CACHES:
            assert cache.cache_info().maxsize == _CACHE_SIZE
        for i in range(_CACHE_SIZE + 4):
            pair = validate_pair(GAMMA_REF * (1.0 + 0.01 * i), DELTA_REF, ctx)
            for route in self.ROUTES:
                route(0.7, pair, ctx)
            for cache in _PAIR_CACHES:
                assert cache.cache_info().currsize <= _CACHE_SIZE
        for cache in _PAIR_CACHES:
            assert cache.cache_info().currsize == _CACHE_SIZE


class TestProjection:
    @pytest.mark.parametrize("eta", ETAS)
    def test_rank_one_projection(self, ctx, pair, eta):
        rep = projection_report(eta, pair, ctx)
        assert rep["hermitian_residual"] < 1e-11
        assert rep["det_residual"] < 1e-11
        assert rep["trace_residual"] < 1e-11
        assert rep["idempotent_residual"] < 1e-10

    def test_eigenvalues_are_zero_and_one(self, ctx, pair):
        M = fourier_closed(0.9, pair, ctx).as_array()
        lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
        assert lam[0] == pytest.approx(0.0, abs=1e-10)
        assert lam[1] == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_entries_in_unit_interval(self, ctx, pair):
        for eta in ETAS:
            M = fourier_closed(eta, pair, ctx)
            assert -1e-12 < M.pp.real < 1.0 + 1e-12
            assert -1e-12 < M.mm.real < 1.0 + 1e-12
