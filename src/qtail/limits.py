"""Limit regimes of the lattice kernels.

Three scans quantify convergence:

* ``tail_limit_scan``: the four-parameter kernel at points pushed deep
  into the lattice tail approaches the two-parameter theta kernel,
  geometrically in the depth M.
* ``trig_limit_scan``: as q -> 1 with the pair exponents held fixed on a
  logarithmic scale, the rescaled Fourier-side kernel approaches a 2x2
  hyperbolic-trigonometric kernel on two lines.
* ``sine_limit_scan``: for a conjugate (principal) pair, the gauged
  kernel at fixed exponent differences approaches the discrete sine
  kernel as q -> 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .kernels import (
    AdmissiblePair,
    AdmissibleQuadruple,
    QContext,
    basic_kernel,
    elliptic_kernel,
    hat_kernel,
    validate_pair,
    validate_quadruple,
)
from .qspecial import DomainError, QParam

__all__ = [
    "TrigParams",
    "RegimeI",
    "RegimeII",
    "trig_kernel",
    "sine_kernel",
    "tail_limit_scan",
    "trig_limit_scan",
    "sine_limit_scan",
]


@dataclass(frozen=True)
class TrigParams:
    """Exponents (c, d) of the two-line kernel; c - d must not be an
    integer (the normalization has sin(pi(c-d)) in a denominator)."""

    c: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.d)) or abs(
                math.sin(math.pi * (self.c - self.d))) < 1e-12:
            raise DomainError("two-line kernel requires finite c, d with c - d not an integer")


def trig_kernel(x: tuple[int, float], y: tuple[int, float], tp: TrigParams) -> float:
    """2x2 hyperbolic-trigonometric kernel on two copies of the line.

    Points are (line index in {1, 2}, real coordinate).
    """
    i, u = x
    j, v = y
    if i not in (1, 2) or j not in (1, 2):
        raise DomainError("line index must be 1 or 2")
    c, d = tp.c, tp.d
    sc, sd = math.sin(math.pi * c), math.sin(math.pi * d)
    scd = math.sin(math.pi * (c - d))
    t = 0.5 * (u - v)
    if i == j:
        pref = sc * sd / (math.pi * scd)
        if u == v:
            return pref * (c - d)
        return pref * math.sinh((c - d) * t) / math.sinh(t)
    root = math.sqrt(sc * sd)
    den = math.exp(t) + math.exp(-t)
    if i == 1:
        num = sc * math.exp((c - d) * t) - sd * math.exp(-(c - d) * t)
    else:
        num = sd * math.exp((c - d) * t) - sc * math.exp(-(c - d) * t)
    return root / (math.pi * scd) * num / den


def sine_kernel(m: int, n: int, phi: float) -> float:
    """Discrete sine kernel with density phi/pi."""
    if m == n:
        return phi / math.pi
    return math.sin(phi * (m - n)) / (math.pi * (m - n))


def tail_limit_scan(x, y, quad: AdmissibleQuadruple, ctx: QContext,
                    M_max: int) -> list[tuple[int, float]]:
    """|(sgn x sgn y)^M K4(q^M x, q^M y) - K2(x, y)| for M = 0..M_max.

    K4 is the four-parameter kernel, K2 the two-parameter theta kernel
    with the same (gamma, delta).
    """
    if M_max < 0:
        raise DomainError("M_max must be a non-negative integer")
    target = elliptic_kernel(x, y, quad.pair, ctx).value
    sgn = x.sign * y.sign
    out = []
    for M in range(M_max + 1):
        k = basic_kernel(x.shift(M), y.shift(M), quad, ctx).value
        out.append((M, abs(sgn ** M * k - target)))
    return out


@dataclass(frozen=True)
class RegimeII:
    """q -> 1 scaling data for the two-line limit.

    The pair exponents c, d are held fixed while q -> 1; the anchors are
    zeta_+ = 1, zeta_- = -1 and the pair is gamma = q^c, delta = q^d.
    With ``mirrored`` the pair is -q^c, -q^d, anchored near the negative
    branch instead; scans in that regime are reported without a verdict.
    """

    c: float
    d: float
    mirrored: bool = False
    q_sweep: tuple[float, ...] = (0.8, 0.9, 0.95, 0.99)

    def __post_init__(self):
        if abs(math.sin(math.pi * (self.c - self.d))) < 1e-12:
            raise DomainError("two-line limit requires c - d not an integer")
        for t in (self.c, self.d):
            if not 0.0 < t < 1.0 or abs(t - round(t)) < 1e-9:
                raise DomainError("exponents must lie strictly inside (0, 1)")

    def context(self, q: float) -> QContext:
        return QContext(QParam(q), 1.0, -1.0)

    def pair(self, q: float, ctx: QContext) -> AdmissiblePair:
        sign = -1.0 if self.mirrored else 1.0
        return validate_pair(sign * q ** self.c, sign * q ** self.d, ctx)


_LINE_TO_SIGN = {1: 1, 2: -1}


def trig_limit_scan(u: float, v: float, i: int, j: int, regime: RegimeII, *,
                    snap_target: bool = False) -> list[tuple[float, float]]:
    """|r^{-1} hat K(zeta_i q^m, zeta_j q^n) - Ktrig_{ij}(u, v)| over the
    q-sweep, with r = -ln q, m = floor(u/r), n = floor(v/r).

    Line 1 is the positive branch, line 2 the negative one.  The floor
    makes the evaluated lattice point sit at coordinates (m r, n r) rather
    than (u, v); that offset jumps with q and can dominate the error.
    With ``snap_target`` the trigonometric target is evaluated at
    (m r, n r) instead, isolating the kernel convergence from the
    coordinate discretization.
    """
    tp = TrigParams(regime.c, regime.d)
    target = trig_kernel((i, u), (j, v), tp)
    out = []
    for q in regime.q_sweep:
        ctx = regime.context(q)
        pair = regime.pair(q, ctx)
        r = -math.log(q)
        m = math.floor(u / r)
        n = math.floor(v / r)
        x = ctx.point(_LINE_TO_SIGN[i], m)
        y = ctx.point(_LINE_TO_SIGN[j], n)
        val = hat_kernel(x, y, pair, ctx).value / r
        if snap_target:
            target = trig_kernel((i, m * r), (j, n * r), tp)
        out.append((q, abs(val - target)))
    return out


@dataclass(frozen=True)
class RegimeI:
    """q -> 1 scaling data for the discrete sine limit.

    The pair is the conjugate pair gamma = e^{i phi}, delta = conj(gamma).
    """

    phi: float
    q_sweep: tuple[float, ...] = (0.9, 0.95, 0.99, 0.995)

    def __post_init__(self):
        if not 0.0 < self.phi < math.pi:
            raise DomainError("phi must lie in (0, pi)")


def sine_limit_scan(m: int, n: int, sign: int, regime: RegimeI) -> list[tuple[float, float]]:
    """|K(zeta q^m, zeta q^n) - Ksine(m, n)| over the q-sweep; the limit
    phase is pi - phi on the positive branch and phi on the negative one.

    On one branch the kernel is q-translation invariant, a function of
    m - n alone, so the window may sit at any exponent and no gauge is
    needed (the alternating gauge would flip odd differences on the
    negative branch)."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    phase = math.pi - regime.phi if sign > 0 else regime.phi
    target = sine_kernel(m, n, phase)
    out = []
    for q in regime.q_sweep:
        ctx = QContext(QParam(q), 1.0, -1.0)
        g = cmath.exp(1j * regime.phi)
        pair = validate_pair(g, g.conjugate(), ctx)
        val = elliptic_kernel(ctx.point(sign, m), ctx.point(sign, n), pair, ctx).value
        out.append((q, abs(val - target)))
    return out
