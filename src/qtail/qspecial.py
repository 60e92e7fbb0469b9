"""q-Pochhammer symbols and theta functions.

Conventions (fixed throughout the package):

    (z; q)_inf   = prod_{i>=1} (1 - z q^{i-1})
    theta_q(z)   = (z, q/z; q)_inf,  zeros exactly on q^Z
    theta3(z; q) = sum_{n in Z} z^n q^{n^2/2}

Note theta3 uses nome parameter q^{1/2} relative to the textbook convention.
theta, log_theta and theta_logderiv first write z = q^n w with w on the
annulus sqrt(q) <= |w| < 1/sqrt(q); ``_q_power`` is the package's one test
for v in q^Z.  Functions that return an EvalResult carry a truncation-tail
bound in it; log_theta and theta_logderiv return a plain complex.  The
precision target ``REL_TOL`` and the cut-off ``CUT`` are re-exported from
``_core``, whose loops apply them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from ._core import CUT, REL_TOL, logqpoch_raw, qpoch_raw, theta3_raw, theta_ratio_dd_raw

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


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class QParam:
    """The base q in (0, 1) together with the cached rate r = -ln q.

    The safe working range for direct (non log-scale) evaluation is roughly
    q in [0.02, 0.995]; the q -> 1 limit scans route extreme magnitudes
    through log_theta.
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


def qpoch_inf(z: complex, q: QParam) -> EvalResult:
    """(z; q)_inf, entire in z."""
    val, err = qpoch_raw(complex(z), q.q)
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


def theta(z: complex, q: QParam) -> EvalResult:
    """theta_q(z) = (z, q/z; q)_inf with argument reduction via
    theta_q(q^n w) = (-1)^n q^{-n(n-1)/2} w^{-n} theta_q(w).

    Points of q^Z return exactly 0 (the zeros are simple and known).
    """
    z = complex(z)
    if z == 0:
        raise DomainError("theta_q is undefined at z = 0")
    if _q_power(z, q.q) is not None:
        return EvalResult(0.0, 0.0)
    w, n = _reduce_to_annulus(z, q.q)
    v1, e1 = qpoch_raw(w, q.q)
    v2, e2 = qpoch_raw(q.q / w, q.q)
    base = v1 * v2
    rel = _rel(v1, e1) + _rel(v2, e2)
    if n == 0:
        return EvalResult(base, abs(base) * rel)
    log_fac = -0.5 * n * (n - 1) * math.log(q.q) - n * cmath.log(w)
    if abs(log_fac.real) > 700.0:
        raise OverflowError("theta prefactor exceeds double range; use log_theta")
    fac = (-1) ** n * cmath.exp(log_fac)
    val = fac * base
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
    exponentials of these logs are meaningful.
    """
    z = complex(z)
    if z == 0 or _q_power(z, q.q) is not None:
        raise DomainError("log theta undefined at a zero of theta")
    w, n = _reduce_to_annulus(z, q.q)
    l1, _ = logqpoch_raw(w, q.q)
    l2, _ = logqpoch_raw(q.q / w, q.q)
    out = l1 + l2
    if n != 0:
        out += 1j * math.pi * n - 0.5 * n * (n - 1) * math.log(q.q) - n * cmath.log(w)
    return out


def theta_logderiv(z: complex, q: QParam) -> complex:
    """L(z) = theta_q'(z) / theta_q(z), with argument reduction z = q^n w:
    L(z) = q^-n (L(w) - n / w), and L(w) is the divided difference rho(w, w)
    of theta(a)/theta(b)."""
    z = complex(z)
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
    z = complex(z)
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
    z = complex(z)
    if z == 0:
        raise DomainError("theta3 undefined at z = 0")
    val, err = theta3_raw(z, q.q)
    return EvalResult(val, err)


def jacobi_imaginary_rhs(z: complex, q: QParam) -> EvalResult:
    """Right-hand side of the imaginary transformation for theta3.

    Equals theta3(z; q); evaluated through the dual nome exp(-4 pi^2 / r),
    which converges fastest when q is close to 1.
    """
    z = complex(z)
    if z == 0 or (z.imag == 0.0 and z.real < 0.0):
        raise DomainError("principal logarithm undefined on the cut R_{<=0}")
    r = q.r
    u = cmath.log(z) / TWO_PI_I
    qdual = math.exp(-4.0 * PI2 / r)
    zdual = cmath.exp(4.0 * PI2 * u / r)
    pref = math.sqrt(2.0 * math.pi / r) * cmath.exp(-2.0 * PI2 * u * u / r)
    val, err = theta3_raw(zdual, qdual)
    return EvalResult(pref * val, abs(pref) * err)
