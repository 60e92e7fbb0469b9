"""Fourier transform of the gauge-fixed theta kernel over one period.

The eps-gauged kernel is invariant under a simultaneous q-shift of both
arguments, so it descends to a function of (branch pair, exponent
difference); its Fourier series in the exponent

    hat K_{e1 e2}(eta) = sum_m e^{i eta m} tilde K(zeta_{e1} q^m, zeta_{e2})

is a 2x2 matrix-valued function on the circle.  Three independent
evaluation routes are provided: the truncated lattice sum, a closed
product-of-thetas form, and a theta log-derivative form.  Each returns a
2x2 complex array [[pp, pm], [mp, mm]] indexed by the branch signs (+, -).
The matrix is a rank-one orthogonal projection for every eta;
``projection_report`` quantifies how closely a computed matrix satisfies
that.
"""

from __future__ import annotations

import cmath

import numpy as np

from .kernels import AdmissiblePair, QContext, _PairPlan, truncation_order
from .qspecial import (QParam, _log_theta_ratio, _q_power, _theta_ratio_dd, _zlogderiv_dd,
                       log_theta, theta, theta_deriv, theta_logderiv, theta_multi)

__all__ = [
    "truncation_order",
    "fourier_series",
    "fourier_closed",
    "fourier_lemma_form",
    "projection_report",
]


def fourier_series(eta: float, pair: AdmissiblePair, ctx: QContext) -> np.ndarray:
    """Truncated lattice sum, dropping terms below REL_TOL / 10.

    The gauged kernel is q-shift invariant, so eta enters only through
    e^{i eta m}: each entry is e^{i eta m} summed against one row
    T[i, j] of the pair plan's table of gauged values (computed once per
    pair), and the even same-branch rows against 2 cos(eta m).
    """
    T = _PairPlan.build(pair, ctx).lattice
    M = T.shape[2] // 2
    m = np.arange(-M, M + 1)
    e = np.exp(1j * eta * m)
    # the minus row is the negated plus row off the centre
    same = complex(2.0 * np.cos(eta * m[M + 1:]) @ T[0, 0, M + 1:])
    return np.array([[T[0, 0, M] + same, e @ T[0, 1]], [e @ T[1, 0], T[1, 1, M] - same]],
                    dtype=complex)


def fourier_closed(eta: float, pair: AdmissiblePair, ctx: QContext) -> np.ndarray:
    """Closed product form: each entry is a ratio of theta products in
    e^{i eta} times an eta-independent prefactor from the pair plan."""
    q = ctx.q
    qv = q.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    s, pp_pref, mm_pref, cross_pref = _PairPlan.build(pair, ctx).closed_prefactors
    e = cmath.exp(1j * eta)
    den = theta_multi([-e * qv * s / g, -e * qv * s / d], q).value
    # q, zeta_+-, s are real, so theta(-e^{-i eta} zeta s) is the conjugate
    # of theta(-e^{i eta} zeta s), bit for bit
    tp = theta(-e * zp * s, q).value
    tm = theta(-e * zm * s, q).value
    pp = pp_pref * (tp * tp.conjugate()) / den
    mm = mm_pref * (tm * tm.conjugate()) / den
    pm = cross_pref * (tp * tm.conjugate()) / den
    mp = cross_pref * (tm * tp.conjugate()) / den
    return np.array([[pp, pm], [mp, mm]], dtype=complex)


def fourier_lemma_form(eta: float, pair: AdmissiblePair, ctx: QContext) -> np.ndarray:
    """Theta log-derivative form of the same matrix: the two classical
    bilateral summation formulas sum its series in closed form, through the
    divided differences [F], rho and [theta] at points that depend on eta.
    Each is read from the dual-nome sum of ``qspecial``, so no step takes a
    product and the cost does not grow as q -> 1."""
    q = ctx.q
    g, d = pair.gamma, pair.delta
    plan = _PairPlan.build(pair, ctx)
    pp0, mm0, sq, h, eps, r2, E, lpref, lt_gpdm = plan.lemma_prefactors
    e = cmath.exp(1j * eta)
    a_g, a_d = -e * sq / g, -e * sq / d
    # the eta terms enter with sign opposite to F(z) = z theta'(z)/theta(z):
    # C (F(a_d) - F(a_g)) = B e sq h [F](a_g, a_d)
    t = plan.B * e * sq * h * _zlogderiv_dd(a_g, a_d, q)
    # pm = -pref/B C (X(gamma, delta) - X(delta, gamma)), X(gamma, delta) =
    # th_gpdm theta(b_g)/theta(a_g).  E <- E + k (1 + eps E) carries (product
    # - 1)/eps over the factors 1 + eps k of the ratio of the two X but
    # theta(b_d)/theta(b_g), taken as a divided difference: theta(b_g) may be 0.
    k = -e * sq * h * _theta_ratio_dd(a_g, a_d, q)
    E += k * (1.0 + eps * E)
    lp, dd_b, r_b = _cross_thetas(e * r2 * sq / d, e * r2 * sq / g, a_g, q)
    Z = r_b * E - (1.0 + eps * E) * e * r2 * sq * h * dd_b
    # mp is pm at e^{-i eta} (by theta(z) = theta(q/z)), which for a real
    # pair or one stored with delta = conj(gamma) makes it pref conj(pm/pref).
    lz = lt_gpdm + lp
    return np.array([[pp0 + t, cmath.exp(lpref + lz) * Z],
                     [cmath.exp(lpref + lz.conjugate()) * Z.conjugate(), mm0 - t]], dtype=complex)


def _cross_thetas(b_d: complex, b_g: complex, a: complex, q: QParam) -> tuple[complex, complex,
                                                                          complex]:
    """(l, T, P) with [theta](b_d, b_g)/theta(a) = e^l T and theta(b_g)/theta(a)
    = e^l P, finite where theta(b_g) or theta(b_d) is 0: [theta](b_d, b_g) =
    theta(b) rho(o, b), with b the one of b_d, b_g of larger |theta| and o
    the other, and theta'(b) at b_d = b_g.  e^l = theta(b)/theta(a) stays a
    log, as it can leave double range where the entry does not."""
    if b_d == b_g:
        if _q_power(b_g, q.q) is not None:
            return -log_theta(a, q), theta_deriv(b_g, q).value, 0j
        return _log_theta_ratio(b_g, a, q), theta_logderiv(b_g, q), complex(1.0)
    lr = _log_theta_ratio(b_d, b_g, q)  # log(theta(b_d)/theta(b_g))
    if lr.real > 0.0:
        return _log_theta_ratio(b_d, a, q), _theta_ratio_dd(b_g, b_d, q), cmath.exp(-lr)
    return _log_theta_ratio(b_g, a, q), _theta_ratio_dd(b_d, b_g, q), complex(1.0)


def projection_report(eta: float, pair: AdmissiblePair, ctx: QContext) -> dict:
    """How far the closed-form matrix is from a rank-one orthogonal
    projection: Hermitian defect, |det|, |trace - 1|, and ||M^2 - M||."""
    M = fourier_closed(eta, pair, ctx)
    herm = float(np.max(np.abs(M - M.conj().T)))
    det = abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    tr = abs(M[0, 0] + M[1, 1] - 1.0)
    idem = float(np.max(np.abs(M @ M - M)))
    return {
        "hermitian_residual": herm,
        "det_residual": float(det),
        "trace_residual": float(tr),
        "idempotent_residual": idem,
    }
