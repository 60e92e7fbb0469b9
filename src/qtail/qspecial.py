"""q-Pochhammer symbols and theta functions.

Conventions (fixed throughout the package):

    (z; q)_inf   = prod_{i>=1} (1 - z q^{i-1})
    theta_q(z)   = (z, q/z; q)_inf,  zeros exactly on q^Z
    theta3(z; q) = sum_{n in Z} z^n q^{n^2/2}

Note theta3 uses nome parameter q^{1/2} relative to the textbook convention.
theta, log_theta and theta_logderiv first write z = q^n w with w on the
annulus sqrt(q) <= |w| < 1/sqrt(q); ``_q_power`` is the package's one test
for v in q^Z.  On the annulus, theta and log_theta read log theta_q(w)
from Jacobi's imaginary transformation (``_log_theta``): a Gaussian sum in
the dual nome exp(-4 pi^2 / r), r = -ln q, of one to four terms for every
q in [0.02, 0.995], where the product takes about 2 ln(CUT) / ln q
factors.  theta is exp of that log, evaluated in the upper half-plane and
conjugated for the lower one, so theta(conj z) is conj theta(z) bit for
bit.  theta_logderiv and qpoch_inf remain products.  Functions that return
an EvalResult carry a truncation-tail bound in it; log_theta and
theta_logderiv return a plain complex.  The precision target ``REL_TOL``
and the cut-off ``CUT`` are re-exported from ``_core``, whose loops apply
them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

from ._core import CUT, REL_TOL, cexpm1, qpoch_raw, theta3_raw, theta_ratio_dd_raw

__all__ = [
    "QParam",
    "EvalResult",
    "DomainError",
    "REL_TOL",
    "CUT",
    "qpoch_inf",
    "qpoch_multi",
    "theta",
    "theta_multi",
    "theta_deriv",
    "theta_logderiv",
    "log_theta",
    "theta3",
    "jacobi_imaginary_rhs",
]

PI2 = math.pi * math.pi
TWO_PI_I = 2j * math.pi
ABS_FLOOR = 1e-300  # smallest magnitude a relative error bound divides by
QPOW_EPS = 1e-12  # relative distance within which v counts as a power of q
LOG_HUGE = math.log(sys.float_info.max)  # log |theta| beyond which theta overflows
LOG_TINY = math.log(sys.float_info.min)  # and below which it leaves the normal range


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class QParam:
    """The base q in (0, 1) together with the cached rate r = -ln q.

    The documented domain is q in [0.02, 0.995].  theta and log_theta take
    a fixed handful of terms at any q in it.  |theta| grows like
    exp(pi^2 / (6 r)) (about e^328 at q = 0.995), so theta raises
    OverflowError where the value leaves the normal double range and
    log_theta, which never overflows, serves the q -> 1 limit scans.  The
    product loops (qpoch_inf, theta_logderiv, the kernels' divided
    differences) take about 2 ln(CUT) / ln q factors and refuse q this
    close to 1 beyond ``_core``'s factor cap.
    """

    q: float
    r: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        object.__setattr__(self, "r", -math.log(self.q))


@dataclass(frozen=True)
class EvalResult:
    """A value and an absolute bound on its error: the truncation tail of
    the series and products here and in qhyper, and None for every kernel
    value, for which no bound has been derived."""

    value: complex
    abs_error_bound: float | None

    def __complex__(self) -> complex:
        return complex(self.value)


def _finite(z) -> complex:
    """complex(z); a nan or infinite part raises (``_q_power`` reads 1+nan*i as 1)."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"argument must be finite, got {z!r}")
    return z


def qpoch_inf(z: complex, q: QParam) -> EvalResult:
    """(z; q)_inf, entire in z."""
    val, err = qpoch_raw(_finite(z), q.q)
    return EvalResult(val, err)


def qpoch_multi(zs, q: QParam) -> EvalResult:
    """(z_1, ..., z_m; q)_inf as a product of single symbols.

    Error bounds combine to first order: sum of relative tails times the
    product magnitude.
    """
    prod = complex(1.0)
    rel = 0.0
    for z in zs:
        r = qpoch_inf(z, q)
        prod *= r.value
        rel += _rel(r.value, r.abs_error_bound)
    return EvalResult(prod, abs(prod) * rel)


def _rel(value: complex, bound: float) -> float:
    """Relative error bound; those of the factors of a product add."""
    return bound / max(abs(value), ABS_FLOOR)


def _quotient(num: EvalResult, den: EvalResult, inner: EvalResult) -> EvalResult:
    """num / den * inner, with the relative bounds of the three summed."""
    val = num.value / den.value * inner.value
    rel = (_rel(num.value, num.abs_error_bound) + _rel(den.value, den.abs_error_bound)
           + _rel(inner.value, inner.abs_error_bound))
    return EvalResult(val, abs(val) * rel)


def _reduce_to_annulus(z: complex, q: float) -> tuple[complex, int]:
    """Write z = q^n * w with |w| in [sqrt(q), 1/sqrt(q)); returns (w, n)."""
    n = round(math.log(abs(z)) / math.log(q))
    return z * q ** (-n), n


def _q_power(v: complex, q: float) -> int | None:
    """The n with v within relative QPOW_EPS of q^n, or None; v = 0 and
    every v off the positive axis give None."""
    v = complex(v)
    if v.real <= 0.0 or abs(v.imag) > QPOW_EPS * abs(v):
        return None
    t = math.log(v.real) / math.log(q)
    n = round(t)
    return n if abs(t - n) < QPOW_EPS else None


def _log_theta(z: complex, q: QParam) -> tuple[complex, int, float]:
    """(L, n, rel) with theta_q(z) = (-1)^n e^L and rel a bound on the
    relative truncation error, for z off q^Z and 0 with Im z >= 0 (a +0.0
    imaginary part on the real axis).

    With z = q^n w, theta_q(z) = (-1)^n q^{-n(n-1)/2} w^{-n} theta_q(w).  On
    the annulus, let u = log w / (2 pi i), v = u or -u with Re v >= 0, c =
    2 pi^2 / r and a = c v.  Poisson summation of the triple-product series
    (DLMF 20.7(viii)) and Dedekind's eta for (q; q)_inf give

        log theta_q(w) = -i pi/2 + [i pi if Re u < 0] + i pi u + r/12 + c/12
                         - log (q'; q')_inf - c (v - 1/2)^2
                         + log(-expm1(-2a)) + log(1 + sum_{k>=1} t_k),

    q' = e^{-2c}, t_k = (-1)^k e^{-c k(k+1) + 2ka} expm1(-2(2k+1)a) /
    expm1(-2a), |t_k| <= (2k+1) e^{-c k^2}.  expm1 keeps the relative
    accuracy as w -> 1, the zero of theta on the annulus.  rel is the first
    dropped bound plus the dropped tail of log (q'; q')_inf.
    """
    w, n = _reduce_to_annulus(z, q.q)
    lw = cmath.log(w)
    r = q.r
    c = 2.0 * PI2 / r
    v = lw / TWO_PI_I
    out = complex(r / 12.0 + c / 12.0, -0.5 * math.pi) + 0.5 * lw
    if v.real < 0.0:
        v = -v
        out += 1j * math.pi
    a2 = 2.0 * c * v
    x = cexpm1(-a2)
    total, k, bound = complex(1.0), 1, 3.0 * math.exp(-c)
    while bound > CUT:
        t = cmath.exp(k * (a2 - c * (k + 1))) * cexpm1(-(2 * k + 1) * a2) / x
        total += -t if k % 2 else t
        k += 1
        bound = (2 * k + 1) * math.exp(-c * k * k)
    qd = math.exp(-2.0 * c)
    p, lqd = qd, 0.0
    while p > CUT:
        lqd += math.log1p(-p)
        p *= qd
    out += cmath.log(-x) + cmath.log(total) - lqd - c * (v - 0.5) ** 2
    if n != 0:
        out += 0.5 * n * (n - 1) * r - n * lw
    return out, n, bound + p / (1.0 - qd)


def _upper(z: complex) -> tuple[complex, bool]:
    """(z or conj z, whichever has a nonnegative imaginary part with its
    sign bit clear; whether z was conjugated)."""
    lower = math.copysign(1.0, z.imag) < 0.0
    return (z.conjugate() if lower else z), lower


def theta(z: complex, q: QParam) -> EvalResult:
    """theta_q(z) = (z, q/z; q)_inf, as exp of ``_log_theta``.

    Points of q^Z return exactly 0 (the zeros are simple and known).  A
    real z gives a value with an imaginary part of exactly 0, and
    theta(conj z) is conj theta(z) bit for bit, signed zeros included.
    Raises OverflowError where |theta| leaves the normal double range;
    log_theta holds the value there.
    """
    z = _finite(z)
    if z == 0:
        raise DomainError("theta_q is undefined at z = 0")
    if _q_power(z, q.q) is not None:
        return EvalResult(0.0, 0.0)
    zu, lower = _upper(z)
    lt, n, rel = _log_theta(zu, q)
    if not LOG_TINY <= lt.real <= LOG_HUGE:
        raise OverflowError(f"|theta| = e^{lt.real:.1f} leaves the normal double range; "
                            "use log_theta")
    val = cmath.exp(lt)
    if n % 2:
        val = -val
    if zu.imag == 0.0:
        val = complex(val.real, 0.0)
    if lower:
        val = val.conjugate()
    return EvalResult(val, abs(val) * rel)


def theta_multi(zs, q: QParam) -> EvalResult:
    prod = complex(1.0)
    rel = 0.0
    for z in zs:
        r = theta(z, q)
        if r.value == 0.0:
            return EvalResult(0.0, 0.0)
        prod *= r.value
        rel += _rel(r.value, r.abs_error_bound)
    return EvalResult(prod, abs(prod) * rel)


def log_theta(z: complex, q: QParam) -> complex:
    """Complex logarithm of theta_q(z), defined modulo 2 pi i.

    Overflow-safe: works for any magnitude of theta.  Only differences and
    exponentials of these logs are meaningful.  log_theta(conj z) is conj
    log_theta(z).
    """
    z = _finite(z)
    if z == 0 or _q_power(z, q.q) is not None:
        raise DomainError("log theta undefined at a zero of theta")
    zu, lower = _upper(z)
    out, n, _ = _log_theta(zu, q)
    if n % 2:
        out += 1j * math.pi
    return out.conjugate() if lower else out


def theta_logderiv(z: complex, q: QParam) -> complex:
    """L(z) = theta_q'(z) / theta_q(z), with argument reduction z = q^n w:
    L(z) = q^-n (L(w) - n / w), and L(w) is the divided difference rho(w, w)
    of theta(a)/theta(b)."""
    z = _finite(z)
    if z == 0 or _q_power(z, q.q) is not None:
        raise DomainError("theta log-derivative undefined on q^Z and at 0")
    w, n = _reduce_to_annulus(z, q.q)
    if n == 0:
        w = z  # z * 1.0 can flip the sign of a zero part
    L = theta_ratio_dd_raw(w, w, q.q)[0]
    return L if n == 0 else q.q ** -n * (L - n / w)


def theta_deriv(z: complex, q: QParam) -> EvalResult:
    """theta_q'(z).

    Generic z: theta_q(z) times the log-derivative series.  At the simple
    zeros q^n the exact closed value is returned; theta'(1) = -(q; q)_inf^2.
    """
    z = _finite(z)
    if z == 0:
        raise DomainError("theta_q' undefined at z = 0")
    n = _q_power(z, q.q)
    if n is not None:
        # simple zero at q^n: theta'(q^n) = (-1)^n q^{-n(n+1)/2} theta'(1)
        r = qpoch_inf(q.q, q)
        fac = (-1) ** n * q.q ** (-0.5 * n * (n + 1))
        val = -fac * r.value * r.value
        return EvalResult(val, 2.0 * abs(fac * r.value) * r.abs_error_bound)
    th = theta(z, q)
    ld = theta_logderiv(z, q)
    val = th.value * ld
    return EvalResult(val, abs(ld) * th.abs_error_bound)


def theta3(z: complex, q: QParam) -> EvalResult:
    """Jacobi theta_3 with the q^{1/2}-nome convention; entire on C*."""
    z = _finite(z)
    if z == 0:
        raise DomainError("theta3 undefined at z = 0")
    val, err = theta3_raw(z, q.q)
    return EvalResult(val, err)


def jacobi_imaginary_rhs(z: complex, q: QParam) -> EvalResult:
    """Right-hand side of the imaginary transformation for theta3.

    Equals theta3(z; q); evaluated through the dual nome exp(-4 pi^2 / r),
    which converges fastest when q is close to 1.
    """
    z = _finite(z)
    if z == 0 or (z.imag == 0.0 and z.real < 0.0):
        raise DomainError("principal logarithm undefined on the cut R_{<=0}")
    r = q.r
    u = cmath.log(z) / TWO_PI_I
    qdual = math.exp(-4.0 * PI2 / r)
    zdual = cmath.exp(4.0 * PI2 * u / r)
    pref = math.sqrt(2.0 * math.pi / r) * cmath.exp(-2.0 * PI2 * u * u / r)
    val, err = theta3_raw(zdual, qdual)
    return EvalResult(pref * val, abs(pref) * err)
