"""Fourier transform of the gauge-fixed theta kernel over one period.

The eps-gauged kernel is invariant under a simultaneous q-shift of both
arguments, so it descends to a function of (branch pair, exponent
difference); its Fourier series in the exponent

    hat K_{e1 e2}(eta) = sum_m e^{i eta m} tilde K(zeta_{e1} q^m, zeta_{e2})

is a 2x2 matrix-valued function on the circle.  Three independent
evaluation routes are provided: the truncated lattice sum, a closed
product-of-thetas form, and a theta log-derivative form.  The matrix is a
rank-one orthogonal projection for every eta; ``projection_report``
quantifies how closely a computed matrix satisfies that.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import _CACHE_SIZE, AdmissiblePair, QContext, C_elliptic, _PairPlan
from .qspecial import (
    DEFAULT_TOL,
    Tolerance,
    qpoch_inf,
    theta,
    theta_logderiv,
    theta_multi,
)

__all__ = [
    "Matrix2C",
    "truncation_order",
    "fourier_series",
    "fourier_closed",
    "fourier_lemma_form",
    "projection_report",
]


@dataclass(frozen=True)
class Matrix2C:
    """2x2 complex matrix indexed by branch signs (+, -)."""

    pp: complex
    pm: complex
    mp: complex
    mm: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.pp, self.pm], [self.mp, self.mm]], dtype=complex)

    def entry(self, e1: int, e2: int) -> complex:
        if e1 > 0:
            return self.pp if e2 > 0 else self.pm
        return self.mp if e2 > 0 else self.mm

    def max_abs_diff(self, other: "Matrix2C") -> float:
        return float(np.max(np.abs(self.as_array() - other.as_array())))


def truncation_order(pair: AdmissiblePair, ctx: QContext, tol: float) -> int:
    """Number of lattice terms needed: the summand decays like rho^|m| with
    rho = max(sqrt(q), |sqrt(q gamma/delta)|, |sqrt(q delta/gamma)|)."""
    q = ctx.q.q
    r = abs(pair.gamma / pair.delta)
    rho = max(math.sqrt(q), math.sqrt(q * r), math.sqrt(q / r))
    if rho >= 1.0:
        raise ValueError("summand does not decay; pair outside admissible range")
    return int(math.ceil(math.log(tol) / math.log(rho))) + 10


def fourier_series(eta: float, pair: AdmissiblePair, ctx: QContext,
                   tol: Tolerance = DEFAULT_TOL, series_tol: float = 1e-13) -> Matrix2C:
    """Truncated lattice sum.

    The gauged kernel is q-shift invariant, so eta enters only through
    e^{i eta m}: the pair plan's lattice coefficients (computed once per
    pair and truncation order) are combined with cos(eta m) and
    e^{i eta m}.
    """
    M = truncation_order(pair, ctx, series_tol)
    dp, dm, a, pm, mp = _PairPlan.build(pair, ctx, tol).lattice(M)
    m = np.arange(-M, M + 1)
    e = np.exp(1j * eta * m)
    # same-branch entries: the diagonal plus 2 cos(eta m) times the signed
    # theta-power ratio (the gauge is trivial on the plus branch and
    # cancels the (-1)^m on the minus branch)
    same = complex(2.0 * np.cos(eta * m[M + 1:]) @ a)
    return Matrix2C(dp + same, complex(e @ pm), complex(e @ mp), dm - same)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _closed_constants(pair: AdmissiblePair, ctx: QContext, tol: Tolerance) -> tuple:
    """The eta-independent factors of ``fourier_closed``: sqrt(gamma delta / q)
    and the pp, mm and cross prefactors."""
    q = ctx.q
    qv = q.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    s = math.sqrt((g * d).real / qv)        # sqrt(gamma delta / q), positive root
    base = theta_multi([zm / zp, g * d * zm * zp], q, tol).value
    Theta = theta_multi([g * zm, d * zm, g * zp, d * zp], q, tol).value.real
    sqTheta = math.sqrt(Theta)              # positive root
    pp = qv * theta_multi([g * zm, d * zm], q, tol).value / (g * d * zp * zp * base)
    mm = qv * theta_multi([g * zp, d * zp], q, tol).value / (g * d * abs(zm * zp) * base)
    cross = -qv * sqTheta / (g * d * zp * math.sqrt(abs(zm * zp)) * base)
    return s, pp, mm, cross


def fourier_closed(eta: float, pair: AdmissiblePair, ctx: QContext,
                   tol: Tolerance = DEFAULT_TOL) -> Matrix2C:
    """Closed product form: each entry is a ratio of theta products in
    e^{i eta} times an eta-independent prefactor."""
    q = ctx.q
    qv = q.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    s, pp_pref, mm_pref, cross_pref = _closed_constants(pair, ctx, tol)
    e = cmath.exp(1j * eta)
    den = theta_multi([-e * qv * s / g, -e * qv * s / d], q, tol).value
    # q, zeta_+-, s are real, so theta(-e^{-i eta} zeta s) is the conjugate
    # of theta(-e^{i eta} zeta s), bit for bit
    tp = theta(-e * zp * s, q, tol).value
    tm = theta(-e * zm * s, q, tol).value
    pp = pp_pref * (tp * tp.conjugate()) / den
    mm = mm_pref * (tm * tm.conjugate()) / den
    pm = cross_pref * (tp * tm.conjugate()) / den
    mp = cross_pref * (tm * tp.conjugate()) / den
    return Matrix2C(pp, pm, mp, mm)


def _LD(z: complex, q, tol: Tolerance) -> complex:
    return z * theta_logderiv(z, q, tol)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _lemma_constants(pair: AdmissiblePair, ctx: QContext, tol: Tolerance) -> tuple:
    """The eta-independent factors of ``fourier_lemma_form``: C,
    sqrt(q gamma delta), the zeta-side log-derivative differences of the
    pp and mm entries, the zeta-side theta products of the cross entries
    and their prefactors."""
    q = ctx.q
    qv = q.q
    g, d = pair.gamma, pair.delta
    zp, zm = ctx.zeta_plus, ctx.zeta_minus
    C = C_elliptic(pair, ctx, tol).value
    sq = math.sqrt(qv * (g * d).real)       # sqrt(q gamma delta), positive root
    pp_side = _LD(d * zp, q, tol) - _LD(g * zp, q, tol)
    mm_side = _LD(g * zm, q, tol) - _LD(d * zm, q, tol)
    Theta = theta_multi([g * zm, d * zm, g * zp, d * zp], q, tol).value.real
    sqTheta = math.sqrt(Theta)
    tprime1 = -(qpoch_inf(qv, q, tol).value ** 2)  # theta'(1)
    r_pm = math.sqrt(abs(zp / zm))
    r_mp = 1.0 / r_pm
    pm_pref = C * r_pm / sqTheta * tprime1 / theta(zp / zm, q, tol).value
    mp_pref = C * r_mp / sqTheta * tprime1 / theta(zm / zp, q, tol).value
    th_gpdm = theta_multi([g * zp, d * zm], q, tol).value
    th_dpgm = theta_multi([d * zp, g * zm], q, tol).value
    return C, sq, pp_side, mm_side, r_pm, pm_pref, mp_pref, th_gpdm, th_dpgm


# Every cache that holds per-pair work, in kernels.py and here.
_PAIR_CACHES = (_PairPlan.build, _PairPlan.lattice, _closed_constants, _lemma_constants)


def _clear_pair_caches() -> None:
    """Empty every per-pair cache, as before the first call on any pair."""
    for cache in _PAIR_CACHES:
        cache.cache_clear()


def fourier_lemma_form(eta: float, pair: AdmissiblePair, ctx: QContext,
                       tol: Tolerance = DEFAULT_TOL) -> Matrix2C:
    """Theta log-derivative form of the same matrix (summed term by term
    via the two classical bilateral summation formulas)."""
    q = ctx.q
    g, d = pair.gamma, pair.delta
    (C, sq, pp_side, mm_side, r_pm,
     pm_pref, mp_pref, th_gpdm, th_dpgm) = _lemma_constants(pair, ctx, tol)
    e = cmath.exp(1j * eta)

    # the eta terms enter as +e^{i eta}(s/gamma) theta'/theta at
    # -e^{i eta} s/gamma, i.e. with sign opposite to z theta'(z)/theta(z)
    ld_g = _LD(-e * sq / g, q, tol)
    ld_d = _LD(-e * sq / d, q, tol)
    pp = C * (pp_side - ld_g + ld_d)
    mm = C * (mm_side - ld_d + ld_g)

    th_g = theta(-e * sq / g, q, tol).value
    th_d = theta(-e * sq / d, q, tol).value
    pm_g = theta(e * r_pm * r_pm * sq / g, q, tol).value
    pm_d = theta(e * r_pm * r_pm * sq / d, q, tol).value
    pm = pm_pref * (th_gpdm * pm_g / th_g - th_dpgm * pm_d / th_d)
    # The mp entry needs theta(e^{i eta} sq / (r_pm^2 delta)) and the same
    # at gamma.  By theta(z) = theta(q/z) and q delta / sq = sq / gamma they
    # are the conjugates of theta(e^{i eta} r_pm^2 sq / conj(gamma)) and the
    # same at conj(delta): the pm thetas, with gamma and delta swapped for a
    # real pair (a principal pair is stored with delta = conj(gamma) exactly).
    if pair.series == "principal":
        mp_d, mp_g = pm_d.conjugate(), pm_g.conjugate()
    else:
        mp_d, mp_g = pm_g.conjugate(), pm_d.conjugate()
    mp = mp_pref * (th_gpdm * mp_d / th_d - th_dpgm * mp_g / th_g)
    return Matrix2C(pp, pm, mp, mm)


def projection_report(eta: float, pair: AdmissiblePair, ctx: QContext,
                      tol: Tolerance = DEFAULT_TOL) -> dict:
    """How far the closed-form matrix is from a rank-one orthogonal
    projection: Hermitian defect, |det|, |trace - 1|, and ||M^2 - M||."""
    M = fourier_closed(eta, pair, ctx, tol).as_array()
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
