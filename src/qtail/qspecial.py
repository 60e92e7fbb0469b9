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
bit.  theta_logderiv, the divided differences rho and [F] of theta
(``_theta_ratio_dd``, ``_zlogderiv_dd``) and log (q; q)_inf (``_log_qq``,
kept on QParam) are read from the same sum, so only qpoch_inf remains a product here.
Functions that return an EvalResult carry a truncation-tail bound in it;
log_theta and theta_logderiv return a plain complex.  The precision
target ``REL_TOL`` and the cut-off ``CUT`` are re-exported from
``_core``, whose loops apply them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

from ._core import CUT, REL_TOL, cexpm1, qpoch_raw, theta3_raw

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
    log_theta, which never overflows, serves the q -> 1 limit scans.
    theta_logderiv and the theta kernel's divided differences take a fixed
    handful of terms too.  The product loops that remain (qpoch_inf, the
    four-parameter kernel, the contour diagonals) take about
    2 ln(CUT) / ln q factors and refuse q this close to 1 beyond
    ``_core``'s factor cap.  log (q; q)_inf, which every theta reads, is
    kept with r as ``lqq`` = (value, truncation bound) from ``_log_qq``.
    """

    q: float
    r: float = field(init=False)
    lqq: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        object.__setattr__(self, "r", -math.log(self.q))
        object.__setattr__(self, "lqq", _log_qq(self.r))


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


def _log_qq(r: float) -> tuple[float, float]:
    """(log (q; q)_inf, a bound on its truncation error) for q = e^{-r}, from
    Dedekind's eta: log (q; q)_inf = r/24 - pi^2/(6r) + log(2 pi/r)/2 +
    log (q'; q')_inf with q' = e^{-4 pi^2/r}, whose product drops below CUT
    after at most four factors for q in [0.02, 1)."""
    qd = math.exp(-4.0 * PI2 / r)
    out, p = r / 24.0 - PI2 / (6.0 * r) + 0.5 * math.log(2.0 * math.pi / r), qd
    while p > CUT:
        out += math.log1p(-p)
        p *= qd
    return out, p / (1.0 - qd)


def _dual_sum(b: complex, c: float) -> tuple[complex, complex, float]:
    """(1 + T(b), T'(b), bound on the first dropped term) for the dual sum's
    correction T(b) = sum_{k>=1} (-1)^k e^{-c k(k+1)} sinh((2k+1) b)/sinh(b),
    even in b, with sinh((2k+1) b)/sinh(b) = sum_{|j|<=k} e^{2jb}.  A term of
    T, T' or the divided differences of ``_dual_dd`` is at most
    (2k+1) k^2 e^{k(2R - c(k+1))}, R = |Re b|; for q above about 0.56 none
    reaches CUT."""
    R = abs(b.real)
    t, t1 = complex(1.0), 0j
    k, bound = 1, 3.0 * math.exp(2.0 * (R - c))
    if bound > CUT:
        E = cmath.exp(2.0 * b)
        Ei = 1.0 / E
        P = N = A = complex(1.0)
        B = 0j  # A, B: the inner sums of T and T' over |j| <= k
        while bound > CUT:
            P, N = P * E, N * Ei
            A += P + N
            B += 2 * k * (P - N)
            e = math.exp(-c * k * (k + 1))
            if k % 2:
                e = -e
            t, t1 = t + e * A, t1 + e * B
            k += 1
            bound = (2 * k + 1) * k * k * math.exp(k * (2.0 * R - c * (k + 1)))
    return t, t1, bound


def _dual_dd(ba: complex, bb: complex, c: float) -> tuple[complex, complex]:
    """([T](ba, bb), [T'](ba, bb)) for T of ``_dual_sum``, [f](a, b) =
    (f(a) - f(b))/(a - b), and T'(bb), T''(bb) at ba = bb.  With S = ba + bb
    and D = ba - bb their j-th terms are 4 sinh(jS) sinh(jD)/D and
    8j cosh(jS) sinh(jD)/D; sinh(jD)/D = U_j sinh(D)/D with U_{j+1} =
    2 cosh(D) U_j - U_{j-1}, which is j at D = 0, so nothing cancels as
    D -> 0."""
    R = max(abs(ba.real), abs(bb.real))
    dt, dt1 = 0j, 0j
    k, bound = 1, 3.0 * math.exp(2.0 * (R - c))
    if bound <= CUT:
        return dt, dt1
    ES = cmath.exp(ba + bb)
    ESi = 1.0 / ES
    if ba == bb:
        ch, shc = 1.0, 1.0
    else:
        D = ba - bb
        ch, shc = cmath.cosh(D), cmath.sinh(D) / D
    PS = NS = complex(1.0)
    C = G = 0j  # the inner sums over |j| <= k
    U, Um = 0.0, -1.0
    while bound > CUT:
        PS, NS = PS * ES, NS * ESi
        U, Um = 2.0 * ch * U - Um, U
        C += 2.0 * (PS - NS) * U
        G += 4 * k * (PS + NS) * U
        e = math.exp(-c * k * (k + 1))
        if k % 2:
            e = -e
        dt, dt1 = dt + e * C, dt1 + e * G
        k += 1
        bound = (2 * k + 1) * k * k * math.exp(k * (2.0 * R - c * (k + 1)))
    return dt * shc, dt1 * shc


def _log_theta_smooth(lw: complex, q: QParam) -> tuple[complex, complex, float]:
    """(S, a2, rel) with log theta_q(w) = S + log(-expm1(-a2)) for lw = log w,
    w on the annulus with Im w >= 0, and rel a bound on the relative
    truncation error.

    Let u = lw / (2 pi i), so Re u is in [0, 1/2], c = 2 pi^2 / r and b = c u.
    Poisson summation of the triple-product series (DLMF 20.7(viii)) and
    Dedekind's eta for (q; q)_inf give

        log theta_q(w) = -i pi/2 + r/8 + log(2 pi/r)/2 - log (q; q)_inf
                         + lw/2 - c (u - 1/2)^2 + log(-expm1(-2b)) + log(1 + T(b))

    with T from ``_dual_sum``, |T(b)| <= 3 e^{-c}.  The factor expm1(-2b)
    carries the zero of theta at w = 1, so the relative accuracy holds as
    w -> 1; S is smooth and free of zeros on the annulus."""
    r = q.r
    c = 2.0 * PI2 / r
    u = lw / TWO_PI_I
    lqq, tail = q.lqq
    total, _, bound = _dual_sum(c * u, c)
    out = (complex(r / 8.0 + 0.5 * math.log(2.0 * math.pi / r) - lqq, -0.5 * math.pi)
           + 0.5 * lw + cmath.log(total) - c * (u - 0.5) ** 2)
    return out, 2.0 * c * u, bound + tail


def _log_theta(z: complex, q: QParam) -> tuple[complex, int, float]:
    """(L, n, rel) with theta_q(z) = (-1)^n e^L and rel a bound on the
    relative truncation error, for z off 0 with Im z >= 0 (a +0.0 imaginary
    part on the real axis); L has real part -inf where the reduced w is
    exactly 1.  With z = q^n w, theta_q(z) = (-1)^n q^{-n(n-1)/2} w^{-n}
    theta_q(w), and log theta_q(w) is ``_log_theta_smooth``."""
    w, n = _reduce_to_annulus(z, q.q)
    lw = cmath.log(w)
    out, a2, rel = _log_theta_smooth(lw, q)
    x = cexpm1(-a2)
    out = out + cmath.log(-x) if x else complex(-math.inf, 0.0)
    if n != 0:
        out += 0.5 * n * (n - 1) * q.r - n * lw
    return out, n, rel


def _log_theta_any(z: complex, q: QParam) -> complex:
    """log theta_q(z) modulo 2 pi i for z off 0, with real part -inf only at
    an exact zero: no relative QPOW_EPS test, unlike ``log_theta``."""
    zu, lower = _upper(z)
    out, n, _ = _log_theta(zu, q)
    if n % 2:
        out += 1j * math.pi
    return out.conjugate() if lower else out


def _log_qpoch_pair(z: complex, q: QParam) -> complex:
    """log (qz, q/z; q)_inf = log theta_q(z) - log(1 - z), modulo 2 pi i;
    at z = 1 it is 2 log (q; q)_inf.  On the annulus the zero factor of
    ``_log_theta_smooth`` and 1 - w are both divided differences at 0:
    expm1(-a2)/expm1(lw) = (2 pi i/r) (e^{-a2} - 1)/(-a2) / ((e^lw - 1)/lw),
    so nothing cancels as z -> 1.  Elsewhere 1 - z is far from 0."""
    zu, lower = _upper(complex(z))
    w, n = _reduce_to_annulus(zu, q.q)
    if n != 0:
        out = _log_theta_any(zu, q) - cmath.log(1.0 - zu)
    else:
        lw = cmath.log(zu)
        out, a2, _ = _log_theta_smooth(lw, q)
        out += (cmath.log(_exprel(-a2) / _exprel(lw))
                + complex(math.log(2.0 * math.pi / q.r), 0.5 * math.pi))
    return out.conjugate() if lower else out


def _exprel(z: complex) -> complex:
    """(e^z - 1)/z, and 1 at z = 0."""
    return cexpm1(z) / z if z else complex(1.0)


def _log1p(z: complex) -> complex:
    """log(1 + z), principal branch, without cancellation at small |z|."""
    x, y = z.real, z.imag
    return complex(0.5 * math.log1p(x * (2.0 + x) + y * y), math.atan2(y, 1.0 + x))


def _near(a: complex, b: complex, q: QParam):
    """The shared set-up of the divided differences at (a, b), or None when
    the pair is far apart: (h, h/(a - b), n, xb, ba, bb, D), with b = q^n w
    reduced to the annulus, xb = log w, h = log(a/b) by log1p, so a sits at
    xa = xb + h with the same n, and ba, bb = -/+ i pi x/r at xa, xb, the
    pair's sign chosen so that Re(ba + bb) >= 0.  D = ba - bb is formed from
    h, not as the difference, which would lose its digits as b -> a.  Near
    means |h| <= 1 and |D| <= 256, which keeps every exponential below in
    double range."""
    w, n = _reduce_to_annulus(b, q.q)
    if n == 0:
        w = b  # b * 1.0 can flip the sign of a zero part
    v = (a - b) / b
    h = _log1p(v)
    k = math.pi / q.r
    D = complex(k * h.imag, -k * h.real)
    if abs(h) > 1.0 or abs(D) > 256.0:
        return None
    xb = cmath.log(w)
    bb = complex(k * xb.imag, -k * xb.real)
    ba = bb + D
    if ba.real + bb.real < 0.0:
        ba, bb, D = -ba, -bb, -D
    return h, (h / v if v else 1.0) / b, n, xb, ba, bb, D


def _log_theta_ratio(a: complex, b: complex, q: QParam) -> complex:
    """log(theta_q(a)/theta_q(b)) modulo 2 pi i, for a, b off 0; real part
    -inf where theta(a) is exactly 0 and +inf where theta(b) is.

    Near each other it is the difference of the dual form of log theta
    (``_log_theta_smooth``) written in x = log z: with b = -i pi x/r,

        log theta(e^x) = x^2/(2r) + x/2 + log sinh(b) + log(1 + T(b)) + const,

    so with D = ba - bb and m = (ba + bb)/2 the ratio is h ((xa + xb)/(2r) +
    1/2 - n) + log1p(d) + log1p(D [T]/(1 + T(bb))), where d = sinh(ba)/sinh(bb)
    - 1 = expm1(D) (1 + e^{-2m}) / -expm1(-2bb) is formed without
    cancellation; where |d| > 1/2 the quotient e^D expm1(-2ba)/expm1(-2bb)
    is taken instead.  Apart, it is the difference of the two logs."""
    near = _near(a, b, q)
    if near is None:
        return _log_theta_any(a, q) - _log_theta_any(b, q)
    h, _, n, xb, ba, bb, D = near
    eb = cexpm1(-2.0 * bb)
    if not eb:
        return complex(math.inf, 0.0)
    d = cexpm1(D) * (1.0 + cmath.exp(-2.0 * bb - D)) / -eb
    if abs(d) <= 0.5:
        ls = _log1p(d)
    else:
        ea = cexpm1(-2.0 * ba)
        if not ea:
            return complex(-math.inf, 0.0)
        ls = D + cmath.log(ea / eb)
    c = 2.0 * PI2 / q.r
    t = _dual_sum(bb, c)[0]
    return h * ((xb + 0.5 * h) / q.r + 0.5 - n) + ls + _log1p(D * _dual_dd(ba, bb, c)[0] / t)


def _zlogderiv(z: complex, q: QParam) -> complex:
    """F(z) = z theta_q'(z)/theta_q(z) for z off q^Z and 0: with z = q^n w,
    F(z) = F(w) - n, and F(w) is the derivative in x = log w of the form in
    ``_log_theta_ratio``, x/r + 1/2 - (i pi/r) (coth(b) + T'(b)/(1 + T(b))),
    b = -i pi x/r; coth and T' are odd in b, which is taken with Re b >= 0."""
    w, n = _reduce_to_annulus(z, q.q)
    if n == 0:
        w = z
    x = cmath.log(w)
    k = math.pi / q.r
    b, s = complex(k * x.imag, -k * x.real), 1.0
    if b.real < 0.0:
        b, s = -b, -1.0
    eb = cexpm1(-2.0 * b)
    t, t1, _ = _dual_sum(b, 2.0 * PI2 / q.r)
    return x / q.r + 0.5 - n + 1j * s * k * ((2.0 + eb) / eb - t1 / t)


def _csch(b: complex) -> complex:
    """1/sinh(b) without overflow."""
    if b.real >= 0.0:
        return -2.0 * cmath.exp(-b) / cexpm1(-2.0 * b)
    return 2.0 * cmath.exp(b) / cexpm1(2.0 * b)


def _theta_ratio_dd(a: complex, b: complex, q: QParam) -> complex:
    """rho(a, b) = (theta(a)/theta(b) - 1)/(a - b) for b off q^Z: expm1 of
    ``_log_theta_ratio`` over a - b, nothing cancelling as b -> a, and
    rho(a, a) = theta'(a)/theta(a) = F(a)/a exactly.  It is -1/(a - b) where
    theta(a) is exactly 0."""
    if a == b:
        return _zlogderiv(a, q) / a
    return cexpm1(_log_theta_ratio(a, b, q)) / (a - b)


def _zlogderiv_dd(a: complex, b: complex, q: QParam) -> complex:
    """[F](a, b) = (F(a) - F(b))/(a - b), F(z) = z theta'(z)/theta(z), and
    F'(a) at a = b; a and b off q^Z.  Near each other it is h/(a - b) times
    the divided difference in x = log z of ``_zlogderiv``'s form: 1/r -
    (pi/r)^2 ([coth](ba, bb) + [T'/(1 + T)](ba, bb)), with [coth](ba, bb) =
    -sinh(D)/(D sinh(ba) sinh(bb)), D = ba - bb; apart, the quotient of
    the two values of F."""
    near = _near(a, b, q)
    if near is None:
        return (_zlogderiv(a, q) - _zlogderiv(b, q)) / (a - b)
    _, hb, _, _, ba, bb, D = near
    c = 2.0 * PI2 / q.r
    t, t1, _ = _dual_sum(bb, c)
    dt, dt1 = _dual_dd(ba, bb, c)
    tdd = (dt1 * t - t1 * dt) / ((t + D * dt) * t)
    coth_dd = -(cmath.sinh(D) / D if D else 1.0) * _csch(ba) * _csch(bb)
    k = math.pi / q.r
    return (1.0 / q.r - k * k * (coth_dd + tdd)) * hb


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
    return _log_theta_any(z, q)


def theta_logderiv(z: complex, q: QParam) -> complex:
    """L(z) = theta_q'(z) / theta_q(z), the divided difference rho(z, z) of
    theta(a)/theta(b): F(z)/z from the derivative of the dual sum
    (``_zlogderiv``), a fixed handful of terms at any q."""
    z = _finite(z)
    if z == 0 or _q_power(z, q.q) is not None:
        raise DomainError("theta log-derivative undefined on q^Z and at 0")
    return _theta_ratio_dd(z, z, q)


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
        lqq, tail = q.lqq
        val = complex((-1) ** (n + 1) * math.exp(2.0 * lqq + 0.5 * n * (n + 1) * q.r))
        return EvalResult(val, 2.0 * abs(val) * tail)
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
