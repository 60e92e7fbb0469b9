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
import math

import numpy as np

from ._core import cexpm1
from .kernels import AdmissiblePair, QContext, _PairPlan, truncation_order
from .qspecial import (DomainError, QParam, _log_theta_any, _log_theta_ratio, _theta_ratio_dd,
                       _theta_zero, _zlogderiv_dd, log_theta, theta_deriv, theta_logderiv)

__all__ = [
    "truncation_order",
    "fourier_series",
    "fourier_closed",
    "fourier_lemma_form",
    "projection_report",
]


def _check_eta(eta: float) -> None:
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")


def fourier_series(eta: float, pair: AdmissiblePair, ctx: QContext) -> np.ndarray:
    """Truncated lattice sum, dropping terms below REL_TOL / 10.

    The gauged kernel is q-shift invariant, so eta enters only through
    e^{i eta m}: each entry is e^{i eta m} summed against one row
    T[i, j] of the pair plan's table of gauged values (computed once per
    pair), and the even same-branch rows against 2 cos(eta m).
    """
    _check_eta(eta)
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
    e^{i eta} times an eta-independent prefactor.  With s = sqrt(gamma
    delta / q) and b = theta(zeta_-/zeta_+, gamma delta zeta_- zeta_+), the
    pp, mm and cross prefactors are q theta(gamma zeta_-, delta zeta_-) /
    (gamma delta zeta_+^2 b), q theta(gamma zeta_+, delta zeta_+) / (gamma
    delta |zeta_- zeta_+| b) and -q sqrt(Theta) / (gamma delta zeta_+
    sqrt|zeta_- zeta_+| b).  Each entry's ten log thetas, six of them the
    plan's, are summed and exponentiated once, so nothing under- or
    overflows as q -> 1, where single thetas reach e^{+-300}."""
    _check_eta(eta)
    q = ctx.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    plan = _PairPlan.build(pair, ctx)
    gd = (g * d).real
    s = math.sqrt(gd / q.q)
    # each theta product of the prefactors is positive: real parts of the logs
    lf = math.log(q.q / (gd * zp)) - (plan.lt_zz + plan.lt_gdzz).real
    l_pp = lf - math.log(zp) + (plan.lt_gm + plan.lt_dm).real
    l_mm = lf - math.log(abs(zm)) + (plan.lt_gp + plan.lt_dp).real
    l_x = lf - 0.5 * math.log(abs(zm * zp)) + plan.half_theta4
    e = cmath.exp(1j * eta)
    l_den = _log_theta_any(-e * q.q * s / g, q) + _log_theta_any(-e * q.q * s / d, q)
    # q, zeta_+-, s are real, so theta(-e^{-i eta} zeta s) is the conjugate
    # of theta(-e^{i eta} zeta s), and log theta(conj z) is conj log theta(z)
    # bit for bit
    lp = _log_theta_any(-e * zp * s, q)
    lm = _log_theta_any(-e * zm * s, q)
    return np.array([[cmath.exp(l_pp + lp + lp.conjugate() - l_den),
                      -cmath.exp(l_x + lp + lm.conjugate() - l_den)],
                     [-cmath.exp(l_x + lm + lp.conjugate() - l_den),
                      cmath.exp(l_mm + lm + lm.conjugate() - l_den)]], dtype=complex)


def fourier_lemma_form(eta: float, pair: AdmissiblePair, ctx: QContext) -> np.ndarray:
    """Theta log-derivative form of the same matrix: the two classical
    bilateral summation formulas sum its series in closed form, through the
    divided differences [F], rho and [theta] at points that depend on eta.
    Each is read from the dual-nome sum of ``qspecial``, so no step takes a
    product and the cost does not grow as q -> 1.

    The pm and mp prefactors -B r theta'(1) / (sqrt(Theta) theta(zeta_+ /
    zeta_-)) and -B theta'(1) / (r sqrt(Theta) theta(zeta_-/zeta_+)), r^2 =
    zeta_+/|zeta_-|, are equal: theta(zeta_+/zeta_-) = r^2 theta(zeta_- /
    zeta_+) and theta'(1) = -(q; q)_inf^2.  Their log lpref meets the eta
    -dependent theta ratio in log space."""
    _check_eta(eta)
    q = ctx.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    plan = _PairPlan.build(pair, ctx)
    eps, r2 = d - g, abs(zp / zm)
    sq, h = math.sqrt(q.q * (g * d).real), 1.0 / (g * d)
    # theta(delta zeta_+)/theta(gamma zeta_+) = 1 + eps k1 and theta(gamma
    # zeta_-)/theta(delta zeta_-) = 1 + eps k2, as rho(b, a) = rho(a, b) /
    # (1 + (a - b) rho(a, b)); E is the zeta-side part of the cross entries'
    # recurrence below
    rho_p, rho_m = plan.rho
    k1, k2 = zp * rho_p, -zm * rho_m / (1.0 + eps * zm * rho_m)
    E = k1 + k2 * (1.0 + eps * k1)
    lpref = (cmath.log(plan.B) + 2.0 * q.lqq[0] - plan.half_theta4 - plan.lt_zz.real
             - 0.5 * math.log(r2))
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
    lz = plan.lt_gp + plan.lt_dm + lp
    return np.array([[plan.diag(1) + t, cmath.exp(lpref + lz) * Z],
                     [cmath.exp(lpref + lz.conjugate()) * Z.conjugate(), plan.diag(-1) - t]],
                    dtype=complex)


def _cross_thetas(b_d: complex, b_g: complex, a: complex, q: QParam) -> tuple[complex, complex,
                                                                          complex]:
    """(l, T, P) with [theta](b_d, b_g)/theta(a) = e^l T and theta(b_g)/theta(a)
    = e^l P, finite where theta(b_g) or theta(b_d) is 0: [theta](b_d, b_g) =
    theta(b) rho(o, b), with b the one of b_d, b_g of larger |theta| and o
    the other, and theta'(b) at b_d = b_g.  e^l = theta(b)/theta(a) stays a
    log, as it can leave double range where the entry does not.  The one
    log ratio lr = log(theta(b_d)/theta(b_g)) gives rho(o, b) = expm1(+-lr)
    / (o - b) and P."""
    if b_d == b_g:
        if _theta_zero(b_g, q) is not None:
            return -log_theta(a, q), theta_deriv(b_g, q).value, 0j
        return _log_theta_ratio(b_g, a, q), theta_logderiv(b_g, q), complex(1.0)
    lr = _log_theta_ratio(b_d, b_g, q)
    if lr.real > 0.0:
        return _log_theta_ratio(b_d, a, q), cexpm1(-lr) / (b_g - b_d), cmath.exp(-lr)
    return _log_theta_ratio(b_g, a, q), cexpm1(lr) / (b_d - b_g), complex(1.0)


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
