"""Fourier matrix of the gauged theta kernel: three evaluation routes,
projection structure, and the truncation-order estimate."""

import cmath
import gc
import math
import weakref

import numpy as np
import pytest

from qtail import (
    LatticePoint,
    QContext,
    QParam,
    closed_diag,
    elliptic_kernel,
    fourier_closed,
    fourier_lemma_form,
    fourier_series,
    projection_report,
    tilde_kernel,
    validate_pair,
)
from qtail import _core, fourier, kernels, qspecial
from qtail.fourier import truncation_order
from qtail.kernels import _CACHE_SIZE, C_elliptic, _PairPlan
from qtail.qspecial import qpoch_inf, theta, theta_logderiv, theta_multi
from qtail.verify import draw_context, draw_pair

from conftest import GAMMA_REF, DELTA_REF

ETAS = [0.0, 0.7, -1.9, math.pi - 0.01, 2.4]


class TestTruncationOrder:
    def test_geometric_bound_sanity(self, ctx, pair):
        M = truncation_order(pair, ctx)
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
        assert np.max(np.abs(S - C)) < 1e-10
        assert np.max(np.abs(S - L)) < 1e-10

    @pytest.mark.parametrize("eta", [0.3, -2.1])
    def test_principal_pair(self, ctx, principal_pair, eta):
        S = fourier_series(eta, principal_pair, ctx)
        C = fourier_closed(eta, principal_pair, ctx)
        L = fourier_lemma_form(eta, principal_pair, ctx)
        assert np.max(np.abs(S - C)) < 1e-10
        assert np.max(np.abs(S - L)) < 1e-10

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_closed_rejects_non_finite_eta(self, ctx, pair, eta):
        with pytest.raises(qspecial.DomainError, match="eta"):
            fourier_closed(eta, pair, ctx)

    def test_random_pairs(self, rng):
        for _ in range(8):
            ctx = draw_context(rng, q_range=(0.3, 0.85))
            pair = draw_pair(rng, ctx)
            eta = float(rng.uniform(-math.pi, math.pi))
            S = fourier_series(eta, pair, ctx)
            C = fourier_closed(eta, pair, ctx)
            scale = max(1.0, float(np.max(np.abs(S))))
            assert np.max(np.abs(S - C)) < 1e-9 * scale


class TestLatticeSum:
    @pytest.mark.parametrize("pair_name", ["pair", "principal_pair"])
    def test_series_is_sum_of_gauged_entries(self, ctx, request, pair_name):
        """Entry (e1, e2) is sum_m e^{i eta m} tilde K(zeta_e1 q^m, zeta_e2)
        over the truncation range, built here from single kernel entries."""
        pair = request.getfixturevalue(pair_name)
        eta = 0.7
        M = truncation_order(pair, ctx)
        expect = np.zeros((2, 2), dtype=complex)
        for i, e1 in enumerate((1, -1)):
            for j, e2 in enumerate((1, -1)):
                y = LatticePoint(e2, 0)
                expect[i, j] = sum(
                    cmath.exp(1j * eta * m) * tilde_kernel(LatticePoint(e1, m), y, pair, ctx).value
                    for m in range(-M, M + 1)
                )
        got = fourier_series(eta, pair, ctx)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def _closed_ten_thetas(eta, pair, ctx):
    """fourier_closed with each entry's ten log thetas evaluated, the
    conjugate points' included."""
    q = ctx.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    plan = _PairPlan.build(pair, ctx)
    gd = (g * d).real
    s = math.sqrt(gd / q.q)
    lf = math.log(q.q / (gd * zp)) - (plan.lt_zz + plan.lt_gdzz).real
    l_pp = lf - math.log(zp) + (plan.lt_gm + plan.lt_dm).real
    l_mm = lf - math.log(abs(zm)) + (plan.lt_gp + plan.lt_dp).real
    l_x = lf - 0.5 * math.log(abs(zm * zp)) + plan.half_theta4
    e = cmath.exp(1j * eta)
    zs = {zeta: -e * zeta * s for zeta in (zp, zm)}

    def lt(z):
        return qspecial._log_theta_any(z, q)

    l_den = lt(-e * q.q * s / g) + lt(-e * q.q * s / d)

    def entry(l_pref, z1, z2):  # theta(-e^{i eta} z1 s) theta(-e^{-i eta} z2 s) / den
        return cmath.exp(l_pref + lt(zs[z1]) + lt(zs[z2].conjugate()) - l_den)

    return np.array([[entry(l_pp, zp, zp), -entry(l_x, zp, zm)],
                     [-entry(l_x, zm, zp), entry(l_mm, zm, zm)]])


def _closed_product(eta, pair, ctx):
    """fourier_closed as the plain-float product of thetas, prefactors
    from theta_multi (moderate q only: the thetas must stay in range)."""
    q, qv = ctx.q, ctx.q.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    base = theta_multi([zm / zp, g * d * zm * zp], q).value
    sq_theta = math.sqrt(theta_multi([g * zm, d * zm, g * zp, d * zp], q).value.real)
    pp_pref = qv * theta_multi([g * zm, d * zm], q).value / (g * d * zp * zp * base)
    mm_pref = qv * theta_multi([g * zp, d * zp], q).value / (g * d * abs(zm * zp) * base)
    cross_pref = -qv * sq_theta / (g * d * zp * math.sqrt(abs(zm * zp)) * base)
    s = math.sqrt((g * d).real / qv)
    e, ec = cmath.exp(1j * eta), cmath.exp(-1j * eta)
    den = theta_multi([-e * qv * s / g, -e * qv * s / d], q).value
    return np.array([
        [pp_pref * theta_multi([-e * zp * s, -ec * zp * s], q).value / den,
         cross_pref * theta_multi([-e * zp * s, -ec * zm * s], q).value / den],
        [cross_pref * theta_multi([-e * zm * s, -ec * zp * s], q).value / den,
         mm_pref * theta_multi([-e * zm * s, -ec * zm * s], q).value / den]])


def _lemma_six_thetas(eta, pair, ctx):
    """The log-derivative form as C times differences, with each of its six
    eta-dependent thetas evaluated (gamma != delta)."""
    q, qv = ctx.q, ctx.q.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    C = C_elliptic(pair, ctx).value
    sq = math.sqrt(qv * (g * d).real)
    r2 = abs(zp / zm)

    def ld(z):
        return z * theta_logderiv(z, q)

    def th(z):
        return theta(z, q).value

    pref = C * math.sqrt(r2) * -(qpoch_inf(qv, q).value ** 2) / math.sqrt(
        theta_multi([g * zm, d * zm, g * zp, d * zp], q).value.real)
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
    """The closed form takes log theta(-e^{-i eta} zeta s) as the conjugate
    of log theta(-e^{i eta} zeta s), the lemma form takes its mp entry from
    the pm one and its other thetas from its divided-difference loops."""

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
                got = fourier_closed(float(eta), p, ctx)
                assert np.array_equal(got, _closed_ten_thetas(float(eta), p, ctx))

    def test_closed_at_negative_zero_is_closed_at_zero(self, ctx, pairs):
        for p in pairs:
            assert (fourier_closed(-0.0, p, ctx).tobytes()
                    == fourier_closed(0.0, p, ctx).tobytes())

    def test_lemma_is_the_six_theta_formula(self, ctx, pairs):
        for p in pairs:
            for eta in self.GRID:
                got = fourier_lemma_form(float(eta), p, ctx)
                want = _lemma_six_thetas(float(eta), p, ctx)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("route,per_eta", [(fourier_closed, 4), (fourier_lemma_form, 0)])
    def test_thetas_per_eta(self, monkeypatch, ctx, pairs, route, per_eta, cold_caches):
        """Once the plan is built, every call, the first included, makes only
        its per-eta log theta calls and no theta call: the eta-independent
        factors come from the plan's logs."""
        thetas, logs = [], []

        def counting(calls, fn):
            def wrapped(z, q):
                calls.append(z)
                return fn(z, q)
            return wrapped

        monkeypatch.setattr(qspecial, "theta", counting(thetas, theta))
        monkeypatch.setattr(fourier, "_log_theta_any",
                            counting(logs, qspecial._log_theta_any))
        etas = (0.3, -2.2, math.pi)
        for p in pairs:
            _PairPlan.build(p, ctx)
            thetas.clear()
            logs.clear()
            for eta in etas:
                route(eta, p, ctx)
            assert len(logs) == per_eta * len(etas)
            assert thetas == []


def test_log_theta_calls_per_route(monkeypatch, cold_caches):
    """On a warm plan of a far principal pair, the lemma form evaluates six
    log thetas at its four distinct points (a_gamma and the b of larger
    |theta| twice each) and the closed form four."""
    ctx = QContext(QParam(0.3), 1.3, -0.55)
    g = 0.8 * cmath.exp(1.1j)
    pair = validate_pair(g, g.conjugate(), ctx)
    calls = []
    log_theta = qspecial._log_theta

    def counting(z, q):
        calls.append(z)
        return log_theta(z, q)

    monkeypatch.setattr(qspecial, "_log_theta", counting)
    for route, want in ((fourier_lemma_form, 6), (fourier_closed, 4)):
        route(0.7, pair, ctx)  # builds the plan and what it keeps
        calls.clear()
        route(0.7, pair, ctx)
        assert len(calls) == want


class TestPlanConstants:
    """The closed route's eta-independent factors, derived from the plan's
    logs, against the theta products they stand for."""

    @pytest.fixture
    def pairs(self, ctx, pair, principal_pair):
        return [pair, principal_pair, validate_pair(0.31 / ctx.zeta_minus, 0.44 / ctx.zeta_minus, ctx),
                validate_pair(GAMMA_REF, GAMMA_REF, ctx)]

    def test_closed_is_the_product_formula(self, ctx, pairs):
        """Summed as logs, the closed form is the plain product of its thetas
        and prefactors where those stay in double range."""
        for p in pairs:
            for eta in (0.0, 0.7, -1.9, 3.0):
                got = fourier_closed(eta, p, ctx)
                want = _closed_product(eta, p, ctx)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestRouteCaches:
    """All per-pair work lives on the pair plan, behind the one cache of
    ``_PairPlan.build``."""

    ROUTES = (fourier_series, fourier_closed, fourier_lemma_form)

    def test_second_call_repeats_first_bitwise(self, ctx, pair, principal_pair, cold_caches):
        def calls():
            return np.array([route(eta, p, ctx)
                             for p in (pair, principal_pair)
                             for eta in (0.0, 0.7, -2.4)
                             for route in self.ROUTES]).tobytes()

        first = calls()
        assert calls() == first
        cold_caches()
        assert calls() == first

    def test_context_and_tolerance_are_part_of_the_key(self, ctx, pair, cold_caches):
        """The key is (pair, ctx); the precision is the one fixed REL_TOL."""
        ctx2 = QContext(QParam(0.5), 1.3, -0.6)
        for c in (ctx, ctx2):
            for route in self.ROUTES:
                route(0.7, pair, c)
        assert _PairPlan.build.cache_info().currsize == 2
        plans = [_PairPlan.build(pair, c) for c in (ctx, ctx2)]
        assert _PairPlan.build.cache_info().currsize == 2
        assert plans[0].rho != plans[1].rho and plans[0].D != plans[1].D
        assert all("lattice" in vars(p) for p in plans)
        assert not np.array_equal(plans[0].lattice, plans[1].lattice)

    def test_size_stays_within_bound(self, ctx, cold_caches):
        assert _PairPlan.build.cache_info().maxsize == _CACHE_SIZE == 8
        for i in range(_CACHE_SIZE + 4):
            pair = validate_pair(GAMMA_REF * (1.0 + 0.01 * i), DELTA_REF, ctx)
            for route in self.ROUTES:
                route(0.7, pair, ctx)
            assert _PairPlan.build.cache_info().currsize == min(i + 1, _CACHE_SIZE)

    def test_evicted_plan_is_freed_with_its_constants(self, ctx, pair, cold_caches):
        for route in self.ROUTES:
            route(0.7, pair, ctx)
        plan = _PairPlan.build(pair, ctx)
        assert {"rho", "D", "lattice"} <= set(vars(plan))
        refs = [weakref.ref(obj) for obj in (plan, plan.lattice)]
        del plan
        for i in range(1, _CACHE_SIZE + 1):
            fourier_series(0.7, validate_pair(GAMMA_REF * (1.0 + 0.01 * i), DELTA_REF, ctx), ctx)
        gc.collect()
        assert [r() for r in refs] == [None] * 2


class TestPlanLaziness:
    def test_diagonal_and_same_branch_entries_evaluate_no_rho(self, monkeypatch, ctx, pair,
                                                            cold_caches):
        calls = []

        def counting(*args):
            calls.append(args)
            return qspecial._theta_ratio_dd(*args)

        monkeypatch.setattr(kernels, "_theta_ratio_dd", counting)
        for sign in (1, -1):
            closed_diag(sign, pair, ctx)
        elliptic_kernel(LatticePoint(1, 2), LatticePoint(1, -1), pair, ctx)
        elliptic_kernel(LatticePoint(-1, 0), LatticePoint(-1, 3), pair, ctx)
        assert calls == []
        elliptic_kernel(LatticePoint(1, 1), LatticePoint(-1, 0), pair, ctx)
        elliptic_kernel(LatticePoint(-1, 4), LatticePoint(1, -2), pair, ctx)
        assert len(calls) == 2

    def test_diagonal_evaluates_one_divided_difference_per_sign(self, monkeypatch, ctx, pair,
                                                               cold_caches):
        """diag(+1) and diag(-1) are kept on the plan: the diagonal entries,
        one-point correlations and the lemma form's prefactors reuse them."""
        calls = []

        def counting(*args):
            calls.append(args)
            return qspecial._zlogderiv_dd(*args)

        monkeypatch.setattr(kernels, "_zlogderiv_dd", counting)
        first = [closed_diag(sign, pair, ctx).value for sign in (1, -1)]
        for k in (0, 3, -2):
            for sign in (1, -1):
                elliptic_kernel(LatticePoint(sign, k), LatticePoint(sign, k), pair, ctx)
        fourier_lemma_form(0.7, pair, ctx)
        assert len(calls) == 2
        assert [closed_diag(sign, pair, ctx).value for sign in (1, -1)] == first


def test_takes_no_product(monkeypatch, cold_caches):
    """At q = 0.995, where a product takes about 13,800 factors, the theta
    log-derivative, the pair plan and the three Fourier routes run on the
    dual-nome sum alone: every product loop of ``_core`` raises.  The
    closed and lemma forms agree with the lattice sum there, though single
    thetas reach e^{+-300}."""
    def refuse(*args):
        raise AssertionError("product loop called")

    for mod in (_core, qspecial, kernels, fourier):
        for name in ("qpoch_raw", "logqpoch_raw", "theta_dd_raw"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    q = QParam(0.995)
    ctx = QContext(q, 1.1, -0.9)
    for z in (0.9 + 0.3j, -1.02, 7.0 - 1.0j):
        assert cmath.isfinite(theta_logderiv(z, q))
        assert cmath.isfinite(qspecial.theta_deriv(z, q).value)
    assert cmath.isfinite(qspecial.theta_deriv(q.q ** 3, q).value)  # at a zero of theta
    g = 0.8 * cmath.exp(1.1j)
    for gamma, delta in ((g, g.conjugate()), (0.9 * 0.995 ** 0.3, 0.9), (0.9, 0.9)):
        pair = validate_pair(gamma, delta, ctx)
        _PairPlan.build(pair, ctx)
        for sign in (1, -1):
            assert cmath.isfinite(closed_diag(sign, pair, ctx).value)
        for eta in (0.7, 3.0, -2.0, 0.0):
            series = fourier_series(eta, pair, ctx)
            assert np.max(np.abs(fourier_closed(eta, pair, ctx) - series)) <= 1e-10
            assert np.max(np.abs(fourier_lemma_form(eta, pair, ctx) - series)) <= 1e-10


class TestProjection:
    @pytest.mark.parametrize("eta", ETAS)
    def test_rank_one_projection(self, ctx, pair, eta):
        rep = projection_report(eta, pair, ctx)
        assert rep["hermitian_residual"] < 1e-11
        assert rep["det_residual"] < 1e-11
        assert rep["trace_residual"] < 1e-11
        assert rep["idempotent_residual"] < 1e-10

    def test_eigenvalues_are_zero_and_one(self, ctx, pair):
        M = fourier_closed(0.9, pair, ctx)
        lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
        assert lam[0] == pytest.approx(0.0, abs=1e-10)
        assert lam[1] == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_entries_in_unit_interval(self, ctx, pair):
        for eta in ETAS:
            M = fourier_closed(eta, pair, ctx)
            assert -1e-12 < M[0, 0].real < 1.0 + 1e-12
            assert -1e-12 < M[1, 1].real < 1.0 + 1e-12
