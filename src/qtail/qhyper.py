"""The basic hypergeometric function 2phi1.

Series evaluation on the unit disk, analytic continuation through the
three-term q-difference equation

    (b - a1 a2 q z) F(q^2 z) + (-b - q + (a1 + a2) q z) F(q z) + q (1 - z) F(z) = 0,

and the Heine / Watson transformation right-hand sides used by the kernel
module.  The continuation has simple poles at z = q^{-k}, k >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._core import phi21_b_zero_raw, phi21_raw
from .qspecial import DomainError, EvalResult, QParam, _quotient, qpoch_multi

__all__ = [
    "Phi21Params",
    "PoleError",
    "DegeneracyError",
    "phi21_series",
    "phi21",
    "heine_rhs",
    "watson_rhs",
    "qdiff_residual",
]

CONT_RADIUS = 0.75
POLE_EXCLUSION = 1e-6
QPOW_EPS = 1e-12  # relative distance within which v counts as a power of q


class PoleError(ArithmeticError):
    """Evaluation requested at (or too close to) a continuation pole."""


class DegeneracyError(ArithmeticError):
    """A transformation formula degenerates for these parameters."""


def _q_power(v: complex, q: float) -> int | None:
    """The n with v within relative QPOW_EPS of q^n, or None; v = 0 and
    every v off the positive axis give None."""
    v = complex(v)
    if v.real <= 0.0 or abs(v.imag) > QPOW_EPS * abs(v):
        return None
    t = math.log(v.real) / math.log(q)
    n = round(t)
    return n if abs(t - n) < QPOW_EPS else None


@dataclass(frozen=True)
class Phi21Params:
    a1: complex
    a2: complex
    b: complex
    q: QParam

    def __post_init__(self):
        n = _q_power(self.b, self.q.q)
        if n is not None and n <= 0:
            raise DomainError("b in q^{Z<=0} is a pole of the 2phi1 series")


def phi21_series(p: Phi21Params, z: complex) -> EvalResult:
    """Direct partial sums; requires |z| < 1."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"2phi1 series requires |z| < 1, got |z| = {abs(z):.3g}")
    val, tail, _ = phi21_raw(p.a1, p.a2, p.b, z, p.q.q)
    return EvalResult(val, tail)


def phi21(p: Phi21Params, z: complex) -> EvalResult:
    """2phi1 continued to the plane minus the poles q^{-k}, k >= 0.

    For |z| < 0.75 the series is used directly; otherwise the q-difference
    equation is iterated upward from series values at q^K z, q^{K+1} z.
    """
    z = complex(z)
    q = p.q.q
    if abs(z) < CONT_RADIUS:
        return phi21_series(p, z)
    # pole exclusion around q^{-k}
    if z.real > 0 and abs(z.imag) < POLE_EXCLUSION * abs(z):
        t = math.log(abs(z)) / math.log(q)
        k = round(-t)
        if k >= 0 and abs(z - q ** (-k)) < POLE_EXCLUSION * q ** (-k):
            raise PoleError(f"z within pole-exclusion radius of q^-{k}")
    K = 0
    w = z
    while abs(w) >= CONT_RADIUS:
        w *= q
        K += 1
    f1 = phi21_series(p, w)      # F(q^K z)
    f2 = phi21_series(p, w * q)  # F(q^{K+1} z)
    err = f1.abs_error_bound + f2.abs_error_bound
    fk, fk1 = f1.value, f2.value          # F at q^k z, q^{k+1} z
    a1, a2, b = p.a1, p.a2, p.b
    for k in range(K - 1, -1, -1):
        zk = z * q ** k
        coeff = q * (1.0 - zk)
        if abs(coeff) < 1e-10:
            raise PoleError("q-difference recursion ill-conditioned near z = q^-k")
        fnew = -((b - a1 * a2 * q * zk) * fk1 + (-b - q + (a1 + a2) * q * zk) * fk) / coeff
        scale = max(abs(b - a1 * a2 * q * zk), abs(b + q - (a1 + a2) * q * zk)) / abs(coeff)
        err = err * max(scale, 1.0)
        fk1, fk = fk, fnew
    return EvalResult(fk, err)


def heine_rhs(p: Phi21Params, z: complex) -> EvalResult:
    """Heine-transformed representation of 2phi1(a1, a2; b | z).

    Equals (a2, a1 z; q)_inf / (b, z; q)_inf * 2phi1(b/a2, z; a1 z | a2).
    The degenerate a2 = 0 case is taken as the termwise limit.
    """
    z = complex(z)
    A, B, C = p.a1, p.a2, p.b
    q = p.q
    num = qpoch_multi([B, A * z], q)
    den = qpoch_multi([C, z], q)
    if den.value == 0:
        raise PoleError("Heine prefactor denominator vanishes")
    if abs(B) < 1e-14:
        inner = EvalResult(*phi21_b_zero_raw(C, z, A * z, q.q))
    else:
        inner = phi21(Phi21Params(C / B, z, A * z, q), B)
    return _quotient(num, den, inner)



def watson_rhs(p: Phi21Params, z: complex) -> EvalResult:
    """Watson's two-term transformation of 2phi1(a1, a2; b | z).

    Degenerates (vanishing (a1/a2; q)_inf-type denominators) when a1/a2 is
    in q^Z; that case raises instead of taking a limit.
    """
    z = complex(z)
    A, B, C = p.a1, p.a2, p.b
    q = p.q
    if z == 0:
        raise DomainError("Watson's formula requires z != 0 (q/z factors)")
    if B != 0 and (_q_power(A / B, q.q) is not None or _q_power(B / A, q.q) is not None):
        raise DegeneracyError("Watson split degenerates for a1/a2 in q^Z")

    def one_term(A, B):
        num = qpoch_multi([B, C / A, A * z, q.q / (A * z)], q)
        den = qpoch_multi([C, B / A, z, q.q / z], q)
        if den.value == 0:
            raise PoleError("Watson prefactor denominator vanishes")
        inner = phi21(Phi21Params(A, A * q.q / C, A * q.q / B, q), C * q.q / (A * B * z))
        return _quotient(num, den, inner)

    t1, t2 = one_term(A, B), one_term(B, A)
    return EvalResult(t1.value + t2.value, t1.abs_error_bound + t2.abs_error_bound)


def qdiff_residual(p: Phi21Params, z: complex) -> tuple[float, float]:
    """Residual of the q-difference equation at z, and the term scale.

    Returns (|LHS|, max term magnitude); |LHS| / scale should vanish for a
    correct continuation.
    """
    z = complex(z)
    a1, a2, b, q = p.a1, p.a2, p.b, p.q.q
    t1 = (b - a1 * a2 * q * z) * phi21(p, q * q * z).value
    t2 = (-b - q + (a1 + a2) * q * z) * phi21(p, q * z).value
    t3 = q * (1.0 - z) * phi21(p, z).value
    scale = max(abs(t1), abs(t2), abs(t3))
    return abs(t1 + t2 + t3), scale
