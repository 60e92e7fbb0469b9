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

from ._core import theta_dd_raw, theta_ratio_dd_raw, zlogderiv_dd_raw
from .kernels import AdmissiblePair, QContext, _PairPlan
from .qspecial import REL_TOL, theta, theta_multi

__all__ = [
    "truncation_order",
    "fourier_series",
    "fourier_closed",
    "fourier_lemma_form",
    "projection_report",
]


def truncation_order(pair: AdmissiblePair, ctx: QContext) -> int:
    """Lattice terms needed down to REL_TOL / 10: the summand decays like
    rho^|m| with rho = max(sqrt(q), |sqrt(q gamma/delta)|, |sqrt(q delta/gamma)|)."""
    q = ctx.q.q
    r = abs(pair.gamma / pair.delta)
    rho = max(math.sqrt(q), math.sqrt(q * r), math.sqrt(q / r))
    if rho >= 1.0:
        raise ValueError("summand does not decay; pair outside admissible range")
    return int(math.ceil(math.log(REL_TOL / 10) / math.log(rho))) + 10


def fourier_series(eta: float, pair: AdmissiblePair, ctx: QContext) -> np.ndarray:
    """Truncated lattice sum, dropping terms below REL_TOL / 10.

    The gauged kernel is q-shift invariant, so eta enters only through
    e^{i eta m}: the pair plan's lattice coefficients (computed once per
    pair and truncation order) are combined with cos(eta m) and
    e^{i eta m}.
    """
    M = truncation_order(pair, ctx)
    dp, dm, a, pm, mp = _PairPlan.build(pair, ctx).lattice(M)
    m = np.arange(-M, M + 1)
    e = np.exp(1j * eta * m)
    # same-branch entries: the diagonal plus 2 cos(eta m) times the signed
    # theta-power ratio (the gauge is trivial on the plus branch and
    # cancels the (-1)^m on the minus branch)
    same = complex(2.0 * np.cos(eta * m[M + 1:]) @ a)
    return np.array([[dp + same, e @ pm], [e @ mp, dm - same]], dtype=complex)


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
    """Theta log-derivative form of the same matrix (summed term by term
    via the two classical bilateral summation formulas)."""
    qv = ctx.q.q
    g, d = pair.gamma, pair.delta
    plan = _PairPlan.build(pair, ctx)
    pp0, mm0, sq, h, eps, r2, E, pref, th_gpdm = plan.lemma_prefactors
    e = cmath.exp(1j * eta)
    a_g, a_d = -e * sq / g, -e * sq / d
    # the eta terms enter with sign opposite to F(z) = z theta'(z)/theta(z):
    # C (F(a_d) - F(a_g)) = B e sq h [F](a_g, a_d)
    t = plan.B * e * sq * h * zlogderiv_dd_raw(a_g, a_d, qv)[0]
    # pm = -pref/B C (X(gamma, delta) - X(delta, gamma)), X(gamma, delta) =
    # th_gpdm theta(b_g)/theta(a_g).  E <- E + k (1 + eps E) carries (product
    # - 1)/eps over the factors 1 + eps k of the ratio of the two X but
    # theta(b_d)/theta(b_g), taken as a divided difference: theta(b_g) may be 0.
    k = -e * sq * h * theta_ratio_dd_raw(a_g, a_d, qv)[0]
    E += k * (1.0 + eps * E)
    # [theta](b_d, b_g)/theta(a_g) and theta(b_g)/theta(a_g)
    dd_b, r_b, _ = theta_dd_raw(e * r2 * sq / d, e * r2 * sq / g, a_g, qv)
    Z = th_gpdm * (r_b * E - (1.0 + eps * E) * e * r2 * sq * h * dd_b)
    # mp is pm at e^{-i eta} (by theta(z) = theta(q/z)), which for a real
    # pair or one stored with delta = conj(gamma) makes its Z conj(Z).
    return np.array([[pp0 + t, pref * Z], [pref * Z.conjugate(), mm0 - t]], dtype=complex)


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
