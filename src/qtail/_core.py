"""The raw product and series loops under the special functions.

Three product loops: q-Pochhammer, its log, and the divided difference
[theta] that the contour diagonal of the theta kernel runs over its node
arrays.  Beside them the 2phi1 partial sums, their a2 -> 0 limit, theta3
and the complex expm1 that the dual theta sum and the kernels' sinh
quotients share.  The functions take scalars and return plain tuples,
except that ``theta_dd_raw`` also takes arrays of ``a`` and ``b`` and then
returns arrays.  Argument reduction lives in the callers (``qspecial``,
``qhyper``, ``kernels``).  The truncation rule lives here: each loop drops
the terms below ``CUT`` and raises ``ArithmeticError`` rather than exceed
its cap, which a product loop checks before it starts.  The one sum outside
this module, the dual theta sum in ``qspecial``, drops its terms below the
same ``CUT``; it has at most a few terms for q in (0.02, 1), so it needs no
cap.  theta, its log-derivative, the divided differences rho and [F] and
log (q; q)_inf are read from that sum.
"""

import cmath
import math

import numpy as np

REL_TOL = 1e-12  # the one relative precision target
CUT = REL_TOL * 1e-3  # truncation threshold for series and product terms
_MAX_ITER = 2_000_000  # factors a product loop may take
_MAX_TERMS = 100_000  # terms a series loop may take


def _check_iterations(scale, q):
    """Raise if a product loop over q^i * scale, which runs until that
    drops to CUT, would take more than _MAX_ITER factors."""
    if scale > CUT and math.log(scale / CUT) / -math.log(q) > _MAX_ITER:
        raise ArithmeticError(f"q-product needs over {_MAX_ITER} factors at q = {q}")


def _reach(z) -> float:
    """max(|z|, 1/|z|), over every element when z is an array.  A scalar
    stays on plain floats, so the loop it sizes runs on Python numbers."""
    r = abs(z)
    if isinstance(r, float):
        return max(r, 1.0 / r)
    return float(np.max(np.maximum(r, 1.0 / r)))


def cexpm1(z):
    """e^z - 1 without cancellation at small |z| (cmath has no expm1)."""
    h = math.sin(0.5 * z.imag)
    return complex(math.expm1(z.real) * math.cos(z.imag) - 2.0 * h * h,
                   math.exp(z.real) * math.sin(z.imag))


def qpoch_raw(z, q):
    """Infinite q-Pochhammer (z; q)_inf.

    Multiplies factors (1 - z q^i) until |z q^i| drops below ``CUT``.
    Returns (value, tail_bound) where tail_bound is a first-order bound on
    the absolute error from the dropped factors: |prod| * |w| / (1 - q).
    """
    prod = complex(1.0)
    w = complex(z)
    _check_iterations(abs(w), q)
    while abs(w) > CUT:
        prod *= 1.0 - w
        w *= q
    return prod, abs(prod) * abs(w) / (1.0 - q)


def logqpoch_raw(z, q):
    """Principal-branch log of (z; q)_inf as a sum of factor logs.

    Overflow-safe replacement for qpoch_raw when the product magnitude
    leaves double range.  Raises on a vanishing factor.
    """
    total = complex(0.0)
    w = complex(z)
    _check_iterations(abs(w), q)
    while abs(w) > CUT:
        f = 1.0 - w
        if f == 0.0:
            raise ZeroDivisionError("q-Pochhammer factor vanishes: log undefined")
        total += cmath.log(f)
        w *= q
    # first-order tail of the log: sum of remaining -w q^j
    return total - w / (1.0 - q), abs(w) / (1.0 - q)


def theta_dd_raw(a, b, c, q):
    """T = [theta](a, b)/theta(c), P = theta(b)/theta(c) and A =
    theta(a)/theta(c), [theta](a, b) = (theta(a) - theta(b))/(a - b), in one
    pass over the factors f_i of theta divided by f_i(c): T <- (f_i(a) T +
    P [f_i]) / f_i(c), with [f_i] = -q^i for 1 - z q^i and q^i/(a b) for
    1 - q^i/z.  Nothing cancels as b -> a, T stays finite where theta(b) =
    0, and A does not cancel where theta(a) is far below theta(b).  c must
    lie off q^Z.  ``a`` and ``b`` may be NumPy arrays (c and q scalar): the
    same loop then runs elementwise, for as many factors as the element
    of largest |z| or 1/|z| needs, and T, P and A are arrays.
    """
    T, P, A = -1.0 / (1.0 - c), (1.0 - b) / (1.0 - c), (1.0 - a) / (1.0 - c)
    scale = max(_reach(a), _reach(b), abs(c), 1.0 / abs(c))
    _check_iterations(scale, q)
    p = q
    while p * scale > CUT:  # as the product loops stop
        g, f = 1.0 / (1.0 - c * p), 1.0 - a * p
        T = (f * T - p * P) * g
        P *= (1.0 - b * p) * g
        A *= f * g
        g, f = 1.0 / (1.0 - p / c), 1.0 - p / a
        T = (f * T + p / (a * b) * P) * g
        P *= (1.0 - p / b) * g
        A *= f * g
        p *= q
    return T, P, A


def phi21_raw(a1, a2, b, z, q):
    """Partial sums of the 2phi1 basic hypergeometric series, |z| < 1.

    Terms follow the ratio recurrence
    t_{n+1}/t_n = z (1 - a1 q^n)(1 - a2 q^n) / ((1 - b q^n)(1 - q^{n+1})).
    Returns (sum, tail_bound, n_terms).
    """
    total = complex(1.0)
    term = complex(1.0)
    qa1 = complex(a1)
    qa2 = complex(a2)
    qb = complex(b)
    qn = 1.0
    az = abs(z)
    for n in range(1, _MAX_TERMS + 1):
        denom = (1.0 - qb * qn) * (1.0 - q * qn)
        if denom == 0.0:
            raise ZeroDivisionError("2phi1 series pole: b in q^{Z<=0}")
        term *= z * (1.0 - qa1 * qn) * (1.0 - qa2 * qn) / denom
        total += term
        qn *= q
        if abs(term) < CUT and n > 2:
            break
    else:
        raise ArithmeticError("2phi1 series did not converge")
    tail = abs(term) * az / max(1.0 - az, 1e-16)
    return total, tail, n


def phi21_b_zero_raw(C, z, b, q):
    """(sum, last term) of lim_{B->0} 2phi1(C/B, z; b | B) =
    sum_n (-C)^n q^{n(n-1)/2} (z;q)_n / ((b;q)_n (q;q)_n)."""
    total = complex(1.0)
    term = complex(1.0)
    qn = 1.0
    for n in range(_MAX_TERMS):
        term *= (-C) * qn * (1.0 - z * qn) / ((1.0 - b * qn) * (1.0 - q * qn))
        qn *= q
        total += term
        if abs(term) < CUT and n > 2:
            break
    else:
        raise ArithmeticError("2phi1 limit series did not converge")
    return total, abs(term)


def theta3_raw(z, q):
    """Two-sided series sum_{n in Z} z^n q^{n^2/2} (paper-normalized nome)."""
    sq = q ** 0.5
    total = complex(1.0)
    # n > 0 and n < 0 accumulated together; q^{n^2/2} = sq^{n^2}
    zp = complex(1.0)
    zm = complex(1.0)
    w = 1.0  # sq^{n^2}
    for n in range(1, _MAX_TERMS + 1):
        w *= sq ** (2 * n - 1)
        zp *= z
        zm /= z
        inc = w * (zp + zm)
        total += inc
        if abs(inc) < CUT and w < 1e-4:
            break
    else:
        raise ArithmeticError("theta3 series did not converge")
    return total, abs(inc)
