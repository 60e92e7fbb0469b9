"""One path for every admissible pair: the closed forms, the quotient
form and the three Fourier routes at gamma = delta and as delta -> gamma,
against the 40-digit reference in ``theta_reference``."""

import cmath
import math

import numpy as np
import pytest

from qtail import (
    DomainError,
    LatticePoint,
    QContext,
    QParam,
    SampleConfig,
    Window,
    closed_diag,
    correlation,
    elliptic_diag_contour,
    elliptic_kernel,
    fourier_closed,
    fourier_equality_residual,
    fourier_lemma_form,
    fourier_series,
    sample_window,
    validate_pair,
)
from qtail._core import theta_dd_raw
from qtail.kernels import C_elliptic, _elliptic_direct, _sinh_quotient, log_C_elliptic
from qtail.qspecial import _theta_ratio_dd, _zlogderiv_dd

import theta_reference

EPSILONS = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0]
WINDOW = [(1, 0), (1, 1), (-1, 0), (-1, 1)]
CTX_PLUS = QContext(QParam(0.5), 1.3, -0.55)
CTX_MINUS = QContext(QParam(0.35), 0.8, -1.7)
CTX_PRINCIPAL = QContext(QParam(0.55), 1.1, -0.9)
# (context, pair at distance eps): a complementary pair anchored on zeta_+,
# one anchored on zeta_-, and principal pairs with phi -> 0 and phi -> pi;
# gamma - delta is about eps |gamma| in each
SERIES = {
    "plus": (CTX_PLUS, lambda e: (0.44 / 1.3 * (1.0 - e), 0.44 / 1.3)),
    "minus": (CTX_MINUS, lambda e: (0.35 ** 0.4 / -1.7 * (1.0 - e), 0.35 ** 0.4 / -1.7)),
    "phi->0": (CTX_PRINCIPAL, lambda e: (0.8 * cmath.exp(0.5j * e), 0.8 * cmath.exp(-0.5j * e))),
    "phi->pi": (CTX_PRINCIPAL, lambda e: (0.8 * cmath.exp(1j * (math.pi - 0.5 * e)),
                                          0.8 * cmath.exp(-1j * (math.pi - 0.5 * e)))),
}
ETAS = np.linspace(-math.pi, math.pi, 9)


def _window_reference(pair, ctx):
    xs = [LatticePoint(*p).value(ctx) for p in WINDOW]
    return theta_reference.kernel_matrix(xs, pair.gamma, pair.delta, ctx.q.q,
                                         ctx.zeta_plus, ctx.zeta_minus)


@pytest.mark.parametrize("name", SERIES)
def test_window_matches_reference_through_gamma_equals_delta(name):
    ctx, make = SERIES[name]
    for eps in EPSILONS:
        pair = validate_pair(*make(eps), ctx)
        want = _window_reference(pair, ctx)
        for i, a in enumerate(WINDOW):
            for j, b in enumerate(WINDOW):
                got = elliptic_kernel(LatticePoint(*a), LatticePoint(*b), pair, ctx).value
                assert abs(got - want[i][j]) <= 1e-13, (name, eps, a, b)


@pytest.mark.parametrize("t", [30.3, 60.3])
def test_window_for_a_pair_far_from_the_anchors(t):
    """gamma zeta_+ = q^t: the divided-difference loops run until every
    factor is 1 to within the cut, and rho is free of theta's scale.  The
    plan's logs reach ~t^2 log(1/q)/2 ~ 1300 here, whose rounding alone
    is ~1e-13 in B."""
    ctx = QContext(QParam(0.5), 1.0, -1.0)
    pair = validate_pair(0.5 ** t, 0.5 ** (t + 0.3), ctx)
    want = _window_reference(pair, ctx)
    for i, a in enumerate(WINDOW):
        for j, b in enumerate(WINDOW):
            got = elliptic_kernel(LatticePoint(*a), LatticePoint(*b), pair, ctx).value
            assert abs(got - want[i][j]) <= 1e-12, (t, a, b)


def test_equal_pairs_are_stored_equal():
    """At eps = 0 every series reaches gamma = delta exactly, so the window
    test above covers the equal pair itself."""
    for ctx, make in SERIES.values():
        pair = validate_pair(*make(0.0), ctx)
        assert pair.gamma == pair.delta


@pytest.mark.parametrize("name", SERIES)
def test_fourier_routes_agree_through_gamma_equals_delta(name):
    ctx, make = SERIES[name]
    for eps in EPSILONS:
        pair = validate_pair(*make(eps), ctx)
        for eta in ETAS:
            closed = fourier_closed(float(eta), pair, ctx)
            assert np.max(np.abs(closed - fourier_lemma_form(float(eta), pair, ctx))) <= 1e-13
            assert np.max(np.abs(closed - fourier_series(float(eta), pair, ctx))) <= 1e-12
            assert fourier_equality_residual(float(eta), pair, ctx).rel_residual < 1e-12


def test_off_lattice_quotient_form_at_gamma_equals_delta():
    ctx, make = SERIES["plus"]
    for eps in (1e-8, 0.0):
        pair = validate_pair(*make(eps), ctx)
        for a, b in ((1, 0), (1, 1)), ((1, 1), (-1, 0)), ((-1, 0), (-1, 1)):
            x, y = LatticePoint(*a), LatticePoint(*b)
            closed = elliptic_kernel(x, y, pair, ctx).value
            direct = _elliptic_direct(x.value(ctx), y.value(ctx), pair, ctx)
            assert abs(closed - direct) <= 1e-13


def test_sampler_at_gamma_equals_delta():
    ctx, make = SERIES["plus"]
    pair = validate_pair(*make(0.0), ctx)
    pts = tuple(LatticePoint(*p) for p in WINDOW)

    def kern(x, y):
        return elliptic_kernel(x, y, pair, ctx).value

    n = 1000
    samples = sample_window(Window(pts), kern, SampleConfig(n, seed=7))
    for i, p in enumerate(pts):
        rho = correlation([p], kern)
        freq = sum(1 for s in samples if i in s) / n
        assert abs(freq - rho) < 4.0 * math.sqrt(rho * (1.0 - rho) / n)


def test_constant_raises_at_its_pole():
    ctx, make = SERIES["plus"]
    pair = validate_pair(*make(0.0), ctx)
    for call in (lambda: C_elliptic(pair, ctx), lambda: log_C_elliptic(pair, ctx)):
        with pytest.raises(DomainError):
            call()
    # the contour cross-check carries B, not C, so it holds at the pole too
    x = LatticePoint(1, 0)
    assert abs(elliptic_diag_contour(x, pair, ctx).value - closed_diag(1, pair, ctx).value) <= 1e-10
    near = validate_pair(*make(1e-12), ctx)
    assert math.isfinite(abs(C_elliptic(near, ctx).value))


@pytest.mark.parametrize("name", SERIES)
def test_contour_diagonal_through_gamma_equals_delta(name):
    ctx, make = SERIES[name]
    for eps in (1e-6, 1e-10, 1e-12, 1e-14, 0.0):
        pair = validate_pair(*make(eps), ctx)
        for sign in (1, -1):
            cont = elliptic_diag_contour(LatticePoint(sign, 0), pair, ctx).value
            assert abs(cont - closed_diag(sign, pair, ctx).value) <= 1e-10, (name, eps, sign)


@pytest.mark.parametrize("a", [0.7, 0.31 + 0.4j, -1.6, 2.3 - 0.8j])
def test_divided_differences_at_a_equal_b(a):
    q = QParam(0.5)
    rho = _theta_ratio_dd(a, a, q)
    want = theta_reference.logderiv(a, q.q)
    assert abs(rho - want) <= 1e-14 * abs(want)
    T, P, _ = theta_dd_raw(a, a, 0.45 - 0.2j, q.q)
    assert abs(T / P - want) <= 1e-14 * abs(want)
    F = _zlogderiv_dd(a, a, q)
    want = theta_reference.zlogderiv_d(a, q.q)
    assert abs(F - want) <= 1e-14 * abs(want)


def test_lemma_form_where_a_cross_theta_vanishes():
    """With r^2 sqrt(q) = 1 and gamma = delta, the pm entry's theta(b_gamma)
    is theta(1) = 0 at eta = 0; its divided difference keeps it finite."""
    ctx = QContext(QParam(0.25), 1.0, -0.5)
    for d in (0.6, 0.6 * (1.0 + 1e-9), 0.7):
        pair = validate_pair(0.6, d, ctx)
        for eta in (0.0, 1e-9, 0.4):
            closed = fourier_closed(eta, pair, ctx)
            assert np.max(np.abs(closed - fourier_lemma_form(eta, pair, ctx))) <= 1e-13


def test_lemma_form_where_theta_of_b_gamma_is_exactly_zero():
    """gamma != delta with zeta_- chosen so that b_gamma = e^{i eta} r^2
    sqrt(q gamma delta)/gamma is 1.0 exactly at eta = 0: [theta](b_d, b_g)
    is taken as theta(b_d) rho(b_g, b_d), from the b of larger |theta|."""
    ctx = QContext(QParam(0.25), 1.0, -0.5400617248673216)
    pair = validate_pair(0.6, 0.7, ctx)
    sq, r2 = math.sqrt(0.25 * 0.6 * 0.7), abs(ctx.zeta_plus / ctx.zeta_minus)
    assert r2 * sq / pair.gamma == 1.0
    for eta in (0.0, 1e-9, 0.4):
        closed = fourier_closed(eta, pair, ctx)
        assert np.max(np.abs(closed - fourier_lemma_form(eta, pair, ctx))) <= 1e-13
        assert np.max(np.abs(closed - fourier_series(eta, pair, ctx))) <= 1e-13


@pytest.mark.parametrize("x", [1, 2, 7, 37, 400])
def test_sinh_quotient_on_the_unit_circle(x):
    """s = i sigma (a principal pair): sin(x sigma)/sin(sigma), also where
    x sigma sits on a pole of tan."""
    b = 0.3 * x
    near_poles = [(k + 0.5) * math.pi * (1.0 + t) / x for k in (0, 1) for t in (0.0, 1e-11, -3e-8)]
    for sigma in [1e-13, 0.3, 1.2] + near_poles:
        want = math.sin(x * sigma) / math.sin(sigma) * math.exp(-b)
        assert abs(_sinh_quotient(x, 1j * sigma, b) - want) <= 1e-14 * max(1.0, x * math.exp(-b))
