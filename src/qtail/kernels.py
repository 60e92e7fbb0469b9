"""Correlation kernels on the two-sided q-lattice.

The lattice is zeta_- q^Z  U  zeta_+ q^Z with zeta_+ > 0 > zeta_-.  Two
kernel families live here:

* the four-parameter kernel ``basic_kernel`` built from 2phi1 functions,
  with (alpha, beta, gamma, delta) an admissible quadruple, and
* the two-parameter theta kernel ``elliptic_kernel`` built from theta
  quotients, with (gamma, delta) an admissible pair.

Lattice evaluations of the theta kernel go through closed forms (theta-power
ratios off the diagonal, log-derivative forms on it); all large-magnitude
combinations are assembled in log space so nothing overflows on the way to
an O(1) kernel value.  Diagonal values of the four-parameter kernel use the
contour-integral representation.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._core import logqpoch_raw
from .qhyper import DegeneracyError, Phi21Params, PoleError, phi21
from .qspecial import (
    DEFAULT_TOL,
    DomainError,
    EvalResult,
    QParam,
    Tolerance,
    log_theta,
    qpoch_inf,
    qpoch_multi,
    theta,
    theta_logderiv,
    theta_multi,
)

__all__ = [
    "QContext",
    "LatticePoint",
    "AdmissiblePair",
    "AdmissibleQuadruple",
    "validate_pair",
    "validate_quadruple",
    "C_elliptic",
    "log_C_elliptic",
    "elliptic_kernel",
    "elliptic_kernel_equal",
    "elliptic_diag_contour",
    "closed_pp",
    "closed_mm",
    "closed_pm",
    "closed_diag",
    "gauge_eps",
    "gauge_nu",
    "tilde_kernel",
    "hat_kernel",
    "frak_C",
    "frak_F",
    "frak_F_transformed",
    "basic_kernel",
]

# |k| clamp on lattice exponents.  At |k| = 400, q^k is a normal double
# only for q >= 0.17: below that q^400 goes subnormal (and flushes to 0
# below q ~ 0.155), and q^-400 overflows; LatticePoint.value raises
# DomainError there.
MAX_EXPONENT = 400

# Pairs whose plan (and lattice-sum coefficients per truncation order) are
# kept; fourier.py bounds its route constants with the same number.  Every
# caller works through one pair at a time, so a few entries suffice.
_CACHE_SIZE = 8


@dataclass(frozen=True)
class QContext:
    """The lattice data: base q and the two anchors zeta_+ > 0 > zeta_-."""

    q: QParam
    zeta_plus: float
    zeta_minus: float

    def __post_init__(self):
        if not (self.zeta_plus > 0.0 > self.zeta_minus):
            raise DomainError("need zeta_plus > 0 > zeta_minus")

    def point(self, sign: int, k: int) -> "LatticePoint":
        return LatticePoint(sign, k)


@dataclass(frozen=True)
class LatticePoint:
    """The lattice point zeta_{sign} q^k."""

    sign: int  # +1 or -1
    k: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise DomainError("sign must be +1 or -1")
        if abs(self.k) > MAX_EXPONENT:
            raise DomainError(f"lattice exponent clamped to |k| <= {MAX_EXPONENT}")

    def value(self, ctx: QContext) -> float:
        anchor = ctx.zeta_plus if self.sign > 0 else ctx.zeta_minus
        try:
            scale = ctx.q.q ** self.k
        except OverflowError:
            scale = math.inf
        if not sys.float_info.min <= scale <= sys.float_info.max:
            raise DomainError(f"q^k leaves the normal double range at q = {ctx.q.q}, k = {self.k}")
        return anchor * scale

    def shift(self, dm: int) -> "LatticePoint":
        return LatticePoint(self.sign, self.k + dm)


def _canonical(z) -> complex:
    """complex(z) with each signed zero made +0.0.  Pairs that compare and
    hash equal then also compute equal, which the plan cache relies on
    (a -0.0 imaginary part moves logarithms across the branch cut)."""
    z = complex(z)
    return complex(z.real + 0.0, z.imag + 0.0)


def _canonical_pair(a, b, series: str) -> tuple[complex, complex]:
    """The pair (a, b) as stored: b = conj(a) exactly for a principal pair,
    both real for a complementary one (``_classify`` admits either up to
    rounding).  The Fourier routes rely on the exact symmetry to take half
    their thetas as conjugates of the other half."""
    a = _canonical(a)
    if series == "principal":
        return a, _canonical(a.conjugate())
    return _canonical(a.real), _canonical(complex(b).real)


@dataclass(frozen=True)
class AdmissiblePair:
    gamma: complex
    delta: complex
    series: str  # "principal" | "complementary"

    def __post_init__(self):
        g, d = _canonical_pair(self.gamma, self.delta, self.series)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "delta", d)

    @property
    def equal(self) -> bool:
        return abs(self.gamma - self.delta) < 1e-12 * abs(self.gamma)


@dataclass(frozen=True)
class AdmissibleQuadruple:
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    ab_series: str
    gd_series: str

    def __post_init__(self):
        a, b = _canonical_pair(self.alpha, self.beta, self.ab_series)
        g, d = _canonical_pair(self.gamma, self.delta, self.gd_series)
        for name, v in (("alpha", a), ("beta", b), ("gamma", g), ("delta", d)):
            object.__setattr__(self, name, v)

    @property
    def pair(self) -> AdmissiblePair:
        return AdmissiblePair(self.gamma, self.delta, self.gd_series)


def _classify(gamma: complex, delta: complex, ctx: QContext) -> str:
    gamma, delta = complex(gamma), complex(delta)
    if gamma == 0 or delta == 0:
        raise DomainError("gamma, delta must be nonzero")
    if abs(gamma.imag) > 1e-14 * abs(gamma):
        if abs(delta - gamma.conjugate()) <= 1e-12 * abs(gamma):
            return "principal"
        raise DomainError("non-real pair must satisfy delta = conj(gamma)")
    if abs(delta.imag) > 1e-14 * abs(delta):
        raise DomainError("real gamma requires real delta")
    g, d = gamma.real, delta.real
    if g * d <= 0:
        raise DomainError("real pair must have equal signs")
    # both reciprocals must sit strictly inside one q-interval of a branch
    anchor = ctx.zeta_plus if g > 0 else ctx.zeta_minus
    lq = math.log(ctx.q.q)
    tg = math.log(g * anchor) / lq
    td = math.log(d * anchor) / lq
    eps = 1e-9
    if abs(tg - round(tg)) < eps or abs(td - round(td)) < eps:
        raise DomainError("pair sits on the reciprocal lattice")
    if math.floor(tg) != math.floor(td):
        raise DomainError("real pair must share one q-interval")
    return "complementary"


def validate_pair(gamma: complex, delta: complex, ctx: QContext) -> AdmissiblePair:
    """Tag (gamma, delta) as principal/complementary or raise with a diagnostic."""
    return AdmissiblePair(gamma, delta, _classify(gamma, delta, ctx))


def validate_quadruple(alpha, beta, gamma, delta, ctx: QContext) -> AdmissibleQuadruple:
    ab = _classify(alpha, beta, ctx)
    gd = _classify(gamma, delta, ctx)
    prod_ab = (complex(alpha) * complex(beta)).real
    prod_gd = (complex(gamma) * complex(delta)).real
    if not prod_ab < ctx.q.q ** 2 * prod_gd:
        raise DomainError("need alpha*beta < q^2 * gamma*delta")
    return AdmissibleQuadruple(alpha, beta, gamma, delta, ab, gd)


# ---------------------------------------------------------------------------
# theta kernel: constant, direct quotient form, closed forms
# ---------------------------------------------------------------------------


def _log_qpoch(z: complex, q: QParam, tol: Tolerance) -> complex:
    val, _ = logqpoch_raw(complex(z), q.q, tol.cut)
    return val


def _wrap(value: complex, tol: Tolerance) -> EvalResult:
    return EvalResult(value, abs(value) * 10.0 * tol.rel_tol)


_LOG2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y) for two floats, in the branch order of np.logaddexp
    (so the two agree bit for bit) without its per-call overhead."""
    if x == y:
        return x + _LOG2
    return max(x, y) + math.log1p(math.exp(-abs(x - y)))


@dataclass(frozen=True)
class _PairPlan:
    """Everything the theta-kernel closed forms need from one pair.

    Built once per (pair, ctx, tol) and kept in a bounded cache: the four
    values log theta(zeta_+- gamma), log theta(zeta_+- delta), the constant
    C and the other m-independent constants.  Each closed form lives in one
    method; ``lattice`` keeps the arrays of them that the lattice-sum
    Fourier route needs.
    """

    pair: AdmissiblePair
    ctx: QContext
    tol: Tolerance
    lt_gm: complex  # log theta(zeta_- gamma)
    lt_gp: complex  # log theta(zeta_+ gamma)
    lt_dm: complex  # log theta(zeta_- delta)
    lt_dp: complex  # log theta(zeta_+ delta)
    logC: complex
    C: complex
    w: complex  # log(gamma / sqrt(gamma delta))
    lq: float  # log q
    lg: complex  # log gamma
    ld: complex  # log delta
    half_theta4: float  # log of the positive root of the four-theta product
    half_lr: float
    lgd: float  # log(gamma delta)

    @classmethod
    @functools.lru_cache(maxsize=_CACHE_SIZE)
    def build(cls, pair: AdmissiblePair, ctx: QContext, tol: Tolerance) -> "_PairPlan":
        if pair.equal:
            raise DomainError("constant degenerates at gamma = delta; use elliptic_kernel_equal")
        g, d = pair.gamma, pair.delta
        q, zp, zm = ctx.q, ctx.zeta_plus, ctx.zeta_minus
        lt_gm = log_theta(g * zm, q, tol)
        lt_gp = log_theta(g * zp, q, tol)
        lt_dm = log_theta(d * zm, q, tol)
        lt_dp = log_theta(d * zp, q, tol)
        logC = (
            lt_gm + lt_gp + lt_dm + lt_dp
            - math.log(zp)
            - log_theta(zm / zp, q, tol)
            - log_theta(g * d * zm * zp, q, tol)
        )
        logC += cmath.log(d - g) - cmath.log(g * d)
        logC -= _log_qpoch(d / g, q, tol) + _log_qpoch(g / d, q, tol) + 2.0 * _log_qpoch(q.q, q, tol)
        return cls(
            pair, ctx, tol, lt_gm, lt_gp, lt_dm, lt_dp,
            logC=logC,
            C=cmath.exp(logC),
            # positive root s of gamma*delta > 0
            w=cmath.log(g / math.sqrt((g * d).real)),
            lq=math.log(q.q),
            lg=cmath.log(g),
            ld=cmath.log(d),
            half_theta4=0.5 * (lt_gm + lt_dm + lt_gp + lt_dp).real,
            half_lr=0.5 * math.log(abs(zp / zm)),
            lgd=math.log((g * d).real),
        )

    def same(self, x: int) -> complex:
        """C times the theta-power ratio at exponent difference x != 0; the
        same-branch closed forms are this up to a sign."""
        return self.C * _sinh_ratio(x * self.w, 0.5 * x * self.lq)

    def cross(self, m: int, n: int) -> complex:
        """K(zeta_+ q^m, zeta_- q^n), assembled in log space."""
        t1 = m * self.lg + n * self.ld + self.lt_gm + self.lt_dp
        t2 = n * self.lg + m * self.ld + self.lt_dm + self.lt_gp
        flip = 1.0
        if t1.real < t2.real:
            t1, t2, flip = t2, t1, -1.0
        log_denom = _logaddexp(self.half_lr + 0.5 * (m - n) * self.lq,
                               -self.half_lr + 0.5 * (n - m) * self.lq)
        L = (
            self.logC
            + 1j * math.pi * m                   # (-1)^m
            - 0.5 * (m + n) * self.lgd
            - self.half_theta4
            + t1
            - log_denom
        )
        return flip * cmath.exp(L) * (1.0 - cmath.exp(t2 - t1))

    def diag(self, sign: int) -> complex:
        """K(zeta_s q^m, zeta_s q^m) via theta log-derivatives."""
        g, d = self.pair.gamma, self.pair.delta
        q, tol = self.ctx.q, self.tol
        zeta = self.ctx.zeta_plus if sign > 0 else self.ctx.zeta_minus
        td = d * theta_logderiv(d * zeta, q, tol)
        tg = g * theta_logderiv(g * zeta, q, tol)
        return self.C * zeta * (td - tg) if sign > 0 else self.C * zeta * (tg - td)

    @functools.lru_cache(maxsize=_CACHE_SIZE)
    def lattice(self, M: int) -> tuple:
        """The eta-independent coefficients of the lattice sum truncated at
        |m| <= M, computed once per (plan, M) from the methods above:

        (diag(+1), diag(-1), a, pm, mp) with a[m-1] = (-1)^m same(m) for
        m = 1..M, pm[m+M] = cross(m, 0) and mp[m+M] = (-1)^m cross(0, m)
        for m = -M..M.  The arrays are read-only.
        """
        ms = range(-M, M + 1)
        a = np.array([(-1) ** m * self.same(m) for m in range(1, M + 1)], dtype=complex)
        pm = np.array([self.cross(m, 0) for m in ms], dtype=complex)
        mp = np.array([(-1) ** m * self.cross(0, m) for m in ms], dtype=complex)
        for arr in (a, pm, mp):
            if not np.all(np.isfinite(arr)):
                raise OverflowError("lattice-sum coefficient leaves double range")
            arr.setflags(write=False)
        return self.diag(1), self.diag(-1), a, pm, mp


def log_C_elliptic(pair: AdmissiblePair, ctx: QContext, tol: Tolerance = DEFAULT_TOL) -> complex:
    """log of the theta-kernel normalizing constant (gamma != delta only)."""
    return _PairPlan.build(pair, ctx, tol).logC


def C_elliptic(pair: AdmissiblePair, ctx: QContext, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    return _wrap(_PairPlan.build(pair, ctx, tol).C, tol)


def _elliptic_PQ(x: float, pair: AdmissiblePair, ctx: QContext,
                 tol: Tolerance) -> tuple[complex, complex]:
    """(P(x), Q(x)) = sqrt(|x|) (theta(x delta), theta(x gamma)) /
    sqrt(theta(x gamma) theta(x delta)) from one theta pair, real x."""
    x = float(x)
    tg = theta(x * pair.gamma, ctx.q, tol).value
    td = theta(x * pair.delta, ctx.q, tol).value
    # the product as theta_multi forms it, signed zeros included: when it
    # is negative real they choose the branch of the square root
    den = cmath.sqrt(complex(1.0) * tg * td)
    r = math.sqrt(abs(x))
    return r * td / den, r * tg / den


def _elliptic_direct(xv: float, yv: float, pair: AdmissiblePair, ctx: QContext,
                     tol: Tolerance) -> complex:
    """Quotient form C (P(x)Q(y) - Q(x)P(y))/(x - y); x != y, moderate q."""
    C = C_elliptic(pair, ctx, tol).value
    px, qx = _elliptic_PQ(xv, pair, ctx, tol)
    py, qy = _elliptic_PQ(yv, pair, ctx, tol)
    return C * (px * qy - qx * py) / (xv - yv)


def _sinh_ratio(A: complex, B: float) -> complex:
    """(e^A - e^-A) / (e^B - e^-B) without overflow; real B != 0."""
    sign = 1.0
    if A.real < 0 or (A.real == 0 and A.imag < 0):
        A, sign = -A, -sign
    if B < 0:
        B, sign = -B, -sign
    return sign * cmath.exp(A - B) * (1.0 - cmath.exp(-2.0 * A)) / (1.0 - math.exp(-2.0 * B))


def closed_pp(m: int, n: int, pair: AdmissiblePair, ctx: QContext,
              tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """K(zeta_+ q^m, zeta_+ q^n) in closed form, m != n."""
    if m == n:
        raise DomainError("m = n handled by closed_diag")
    return _wrap((-1) ** (m + n) * _PairPlan.build(pair, ctx, tol).same(m - n), tol)


def closed_mm(m: int, n: int, pair: AdmissiblePair, ctx: QContext,
              tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """K(zeta_- q^m, zeta_- q^n) in closed form, m != n."""
    if m == n:
        raise DomainError("m = n handled by closed_diag")
    return _wrap(-_PairPlan.build(pair, ctx, tol).same(m - n), tol)


def closed_pm(m: int, n: int, pair: AdmissiblePair, ctx: QContext,
              tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """K(zeta_+ q^m, zeta_- q^n) = K(zeta_- q^n, zeta_+ q^m), log-space assembly."""
    return _wrap(_PairPlan.build(pair, ctx, tol).cross(m, n), tol)


def closed_diag(sign: int, pair: AdmissiblePair, ctx: QContext,
                tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """K(zeta_s q^m, zeta_s q^m): independent of m, via theta log-derivatives."""
    return _wrap(_PairPlan.build(pair, ctx, tol).diag(sign), tol)


def _theta_dd(z: complex, q: QParam, tol: Tolerance) -> complex:
    """d/dz of theta'(z)/theta(z) (term-by-term differentiated series)."""
    z = complex(z)
    out = -1.0 / (1.0 - z) ** 2
    p = q.q
    while p > tol.cut:
        out += -(p * p) / (1.0 - z * p) ** 2 - p * (2.0 * z - p) / (z * z - p * z) ** 2
        p *= q.q
    return out


def _log_A_equal(gamma: complex, ctx: QContext, tol: Tolerance) -> complex:
    g = complex(gamma)
    q, zp, zm = ctx.q, ctx.zeta_plus, ctx.zeta_minus
    return (
        2.0 * (log_theta(g * zm, q, tol) + log_theta(g * zp, q, tol))
        - math.log(zp)
        - 4.0 * _log_qpoch(q.q, q, tol)
        - log_theta(zm / zp, q, tol)
        - log_theta(g * g * zm * zp, q, tol)
    )


def elliptic_kernel_equal(x, y, gamma: complex, ctx: QContext,
                          tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """The theta kernel at equal parameters gamma = delta (real pair).

    Off the diagonal this is the log-derivative closed form; on the
    diagonal its derivative (the L'Hopital continuation).
    """
    g = complex(gamma)
    q = ctx.q
    xv = x.value(ctx) if isinstance(x, LatticePoint) else float(x)
    yv = y.value(ctx) if isinstance(y, LatticePoint) else float(y)
    A = cmath.exp(_log_A_equal(g, ctx, tol))
    if xv == yv:
        t = xv * g
        S = theta_logderiv(t, q, tol)
        val = -A * abs(xv) * (S + t * _theta_dd(t, q, tol))
        return _wrap(val, tol)
    Lx = theta_logderiv(xv * g, q, tol)
    Ly = theta_logderiv(yv * g, q, tol)
    # the positive root of theta(x gamma)^2 is |theta|, so the sign of
    # theta at each argument survives as a factor
    sx = math.copysign(1.0, theta(xv * g, q, tol).value.real)
    sy = math.copysign(1.0, theta(yv * g, q, tol).value.real)
    val = A * sx * sy * math.sqrt(abs(xv * yv)) / (xv - yv) * (yv * Ly - xv * Lx)
    return _wrap(val, tol)


def elliptic_kernel(x, y, pair: AdmissiblePair, ctx: QContext,
                    tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """The theta kernel; lattice points dispatch to the closed forms.

    Non-lattice (real or complex, off the singular set) arguments use the
    direct quotient form, which is safe at moderate q.
    """
    if pair.equal:
        return elliptic_kernel_equal(x, y, pair.gamma, ctx, tol)
    if isinstance(x, LatticePoint) and isinstance(y, LatticePoint):
        if x.sign == y.sign:
            if x.k == y.k:
                return closed_diag(x.sign, pair, ctx, tol)
            if x.sign > 0:
                return closed_pp(x.k, y.k, pair, ctx, tol)
            return closed_mm(x.k, y.k, pair, ctx, tol)
        if x.sign > 0:
            return closed_pm(x.k, y.k, pair, ctx, tol)
        return closed_pm(y.k, x.k, pair, ctx, tol)
    xv = x.value(ctx) if isinstance(x, LatticePoint) else float(x)
    yv = y.value(ctx) if isinstance(y, LatticePoint) else float(y)
    if xv == yv:
        raise DomainError("diagonal off the lattice: use elliptic_diag_contour")
    return _wrap(_elliptic_direct(xv, yv, pair, ctx, tol), tol)


def _sing_distance(x: float, params, ctx: QContext) -> float:
    """Distance from x to the nearest zero of theta(z gamma) theta(z delta)
    or to 0; ``params`` is an admissible pair or quadruple."""
    q = ctx.q.q
    dist = abs(x)
    for par in (params.gamma, params.delta):
        n = round(math.log(abs(x * par)) / math.log(q))
        for k in (n - 1, n, n + 1):
            dist = min(dist, abs(x - q ** k / par))
    return dist


def _diag_contour(x: float, eps: float, integrand, pref: complex,
                  tol: Tolerance, max_nodes: int) -> EvalResult:
    """Trapezoid rule for a kernel diagonal on the circle |z - x| = eps.

    ``integrand(z)`` returns (log(w(z)/w(x)), numerator(z)) for the
    caller's weight w, and the integrand is pref * sqrt(w(z)/w(x)) *
    numerator(z) / (z - x)^2.  The weight is analytic and nonzero in the
    disk, so the ratio has zero winding and is 1 at the real starting node;
    the imaginary part of its log is unwrapped node to node around the
    circle so the square root never jumps branches.  The node count doubles
    from 64 until two rings agree to 1e-10; past ``max_nodes`` the last
    ring is returned.  Ring 2n holds ring n's nodes at its even indices
    (the phases are bitwise equal), so each ring evaluates ``integrand``
    only at its new odd nodes.
    """

    def node(j: int, n: int) -> tuple:
        ph = cmath.exp(2j * math.pi * j / n)
        z = x + eps * ph
        return ph, z, integrand(z)

    def ring(nodes: list) -> complex:
        acc = 0.0 + 0.0j
        prev_im = 0.0
        for ph, z, (lr, num) in nodes:
            im = lr.imag + 2.0 * math.pi * round((prev_im - lr.imag) / (2.0 * math.pi))
            prev_im = im
            rat = cmath.exp(0.5 * complex(lr.real, im))
            acc += pref * rat * num / (z - x) ** 2 * ph
        return acc * eps / len(nodes)

    nodes = []
    prev = None
    n = 64
    while n <= max_nodes:
        if nodes:
            odd = [node(j, n) for j in range(1, n, 2)]
            nodes = [nd for both in zip(nodes, odd) for nd in both]
        else:
            nodes = [node(j, n) for j in range(n)]
        val = ring(nodes)
        if prev is not None and abs(val - prev) <= 1e-10 * max(1.0, abs(val)):
            return _wrap(val, tol)
        prev = val
        n *= 2
    return _wrap(prev, tol)


def elliptic_diag_contour(x, pair: AdmissiblePair, ctx: QContext,
                          tol: Tolerance = DEFAULT_TOL, max_nodes: int = 512) -> EvalResult:
    """Diagonal of the theta kernel by the contour integral around x.

    Independent of the closed_diag route; used as a cross-check.  The
    weight is u(z) = sign * z / (theta(z gamma) theta(z delta)).
    """
    xv = x.value(ctx) if isinstance(x, LatticePoint) else float(x)
    sign = 1.0 if xv > 0 else -1.0
    eps = 0.5 * _sing_distance(xv, pair, ctx)
    g, d = pair.gamma, pair.delta
    q = ctx.q
    C = C_elliptic(pair, ctx, tol).value
    thxg = theta(xv * g, q, tol).value
    thxd = theta(xv * d, q, tol).value
    ux = sign * xv / (thxg * thxd)

    def integrand(z: complex) -> tuple[complex, complex]:
        thg = theta(z * g, q, tol).value
        thd = theta(z * d, q, tol).value
        return cmath.log(sign * z / (thg * thd) / ux), thd * thxg - thg * thxd

    return _diag_contour(xv, eps, integrand, C * ux, tol, max_nodes)


def gauge_eps(x: LatticePoint) -> int:
    """+1 on the positive branch, (-1)^k at zeta_- q^k."""
    return 1 if x.sign > 0 else (-1) ** x.k


def gauge_nu(x: LatticePoint) -> int:
    """(-1)^k on the positive branch, trivial on the negative one (the
    combination of the alternating gauge with gauge_eps)."""
    return (-1) ** x.k if x.sign > 0 else 1


def tilde_kernel(x: LatticePoint, y: LatticePoint, pair: AdmissiblePair, ctx: QContext,
                 tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """eps-gauged theta kernel; q-translation-invariant."""
    r = elliptic_kernel(x, y, pair, ctx, tol)
    s = gauge_eps(x) * gauge_eps(y)
    return EvalResult(s * r.value, r.abs_error_bound)


def hat_kernel(x: LatticePoint, y: LatticePoint, pair: AdmissiblePair, ctx: QContext,
               tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Particle-hole involution of the gauged theta kernel on the positive
    branch.

    With bK = nu(x) nu(y) K: delta_{xy} - bK on (+,+), -bK on (-,+), and
    +bK whenever y lies on the negative branch.
    """
    r = elliptic_kernel(x, y, pair, ctx, tol)
    bold = gauge_nu(x) * gauge_nu(y) * r.value
    if y.sign < 0:
        return EvalResult(bold, r.abs_error_bound)
    if x.sign > 0:
        return EvalResult((1.0 if x == y else 0.0) - bold, r.abs_error_bound)
    return EvalResult(-bold, r.abs_error_bound)


# ---------------------------------------------------------------------------
# four-parameter kernel
# ---------------------------------------------------------------------------


def frak_C(quad: AdmissibleQuadruple, ctx: QContext, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Normalizing constant of the four-parameter kernel."""
    a, b, g, d = quad.alpha, quad.beta, quad.gamma, quad.delta
    q, zp, zm = ctx.q, ctx.zeta_plus, ctx.zeta_minus
    num_theta = theta_multi([g * zm, g * zp, d * zm, d * zp], q, tol).value
    den_theta = zp * theta_multi([zm / zp, g * d * zm * zp], q, tol).value
    num_p = qpoch_multi([a * b / (g * d), a * b / (q.q * g * d)], q, tol).value
    den_p = qpoch_multi([a / g, a / d, b / g, b / d, q.q, q.q], q, tol).value
    return _wrap(num_theta / den_theta * num_p / den_p, tol)


def _log_weight(z: complex, quad: AdmissibleQuadruple, ctx: QContext, sign: float,
                tol: Tolerance) -> complex:
    """log of (sign*z)(z alpha, z beta; q)_inf / theta(z gamma, z delta).

    Meaningful modulo 2 pi i; the weight itself is positive on the lattice,
    so Re of this log determines its positive square root.
    """
    q = ctx.q
    out = cmath.log(sign * z)
    out += _log_qpoch(z * quad.alpha, q, tol) + _log_qpoch(z * quad.beta, q, tol)
    out -= log_theta(z * quad.gamma, q, tol) + log_theta(z * quad.delta, q, tol)
    return out


def _h_direct(z: complex, r: int, quad: AdmissibleQuadruple, ctx: QContext,
              tol: Tolerance) -> complex:
    """Meromorphic part of the building function (common sqrt weight removed)."""
    a, b, g, d = quad.alpha, quad.beta, quad.gamma, quad.delta
    q = ctx.q
    qr = q.q ** r
    num = qpoch_multi([b * qr / (q.q * g), qr / (d * z)], q, tol).value
    den = qpoch_inf(a * b * qr * qr / (q.q ** 2 * g * d), q, tol).value
    p = Phi21Params(a * qr / (q.q * d), q.q / (b * z), qr / (d * z), q)
    return (-z) ** (1 - r) * num / den * phi21(p, b * qr / (q.q * g), tol).value


def _h_transformed(z: complex, r: int, quad: AdmissibleQuadruple, ctx: QContext,
                   tol: Tolerance) -> complex:
    """Two-term representation of the meromorphic part; stable for small |z|."""
    a, b, g, d = quad.alpha, quad.beta, quad.gamma, quad.delta
    q = ctx.q
    qr = q.q ** r

    def term(g1, d1):
        num = qpoch_multi([b * qr / (q.q * g1), a * qr / (q.q * g1)], q, tol).value
        den = qpoch_inf(d1 / g1, q, tol).value
        if abs(den) < 1e-13:
            raise DegeneracyError("two-term split degenerates for delta/gamma in q^Z")
        th = theta(z * d1 * q.q ** (1 - r), q, tol).value
        p = Phi21Params(b * qr / (q.q * d1), g1 * q.q ** (2 - r) / a, g1 * q.q / d1, q)
        return num / den * th * phi21(p, a * z, tol).value

    pref = (-z) ** (1 - r) / (
        qpoch_multi([b * z, a * b * qr * qr / (q.q ** 2 * g * d)], q, tol).value
    )
    return pref * (term(g, d) + term(d, g))


def _h(z: complex, r: int, quad: AdmissibleQuadruple, ctx: QContext, tol: Tolerance) -> complex:
    small = abs(z) < ctx.q.q ** 3 * min(ctx.zeta_plus, -ctx.zeta_minus)
    first, second = (_h_transformed, _h_direct) if small else (_h_direct, _h_transformed)
    try:
        return first(z, r, quad, ctx, tol)
    except (PoleError, DegeneracyError, ZeroDivisionError):
        return second(z, r, quad, ctx, tol)


def _sqrt_weight_real(x: float, quad: AdmissibleQuadruple, ctx: QContext,
                      tol: Tolerance) -> float:
    """Positive square root of the weight at a real lattice point."""
    sign = 1.0 if x > 0 else -1.0
    return math.exp(0.5 * _log_weight(x, quad, ctx, sign, tol).real)


def frak_F(x: float, r_index: int, quad: AdmissibleQuadruple, ctx: QContext,
           tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Building function of the four-parameter kernel at real lattice x
    (direct representation)."""
    x = float(x)
    val = _sqrt_weight_real(x, quad, ctx, tol) * _h_direct(x, r_index, quad, ctx, tol)
    return _wrap(val, tol)


def frak_F_transformed(x: float, r_index: int, quad: AdmissibleQuadruple, ctx: QContext,
                       tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Same function through the two-term split; preferred for small |x|."""
    x = float(x)
    val = _sqrt_weight_real(x, quad, ctx, tol) * _h_transformed(x, r_index, quad, ctx, tol)
    return _wrap(val, tol)


def basic_kernel(x, y, quad: AdmissibleQuadruple, ctx: QContext,
                 tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """The four-parameter kernel at real points of the lattice."""
    xv = x.value(ctx) if isinstance(x, LatticePoint) else float(x)
    yv = y.value(ctx) if isinstance(y, LatticePoint) else float(y)
    if xv == yv:
        return _basic_diag(xv, quad, ctx, tol)
    # rescale the meromorphic parts before forming cross products: the
    # individual h values reach ~1e250 at deep lattice exponents while the
    # kernel itself is O(1), so the sqrt-weight logs and the h magnitudes
    # are recombined in log space.
    lwx = 0.5 * _log_weight(xv, quad, ctx, math.copysign(1.0, xv), tol).real
    lwy = 0.5 * _log_weight(yv, quad, ctx, math.copysign(1.0, yv), tol).real
    h1x, h0x = _h(xv, 1, quad, ctx, tol), _h(xv, 0, quad, ctx, tol)
    h1y, h0y = _h(yv, 1, quad, ctx, tol), _h(yv, 0, quad, ctx, tol)
    sx = max(abs(h1x), abs(h0x))
    sy = max(abs(h1y), abs(h0y))
    if sx == 0.0 or sy == 0.0:
        return _wrap(0.0 + 0.0j, tol)
    num = (h1x / sx) * (h0y / sy) - (h1y / sy) * (h0x / sx)
    c = frak_C(quad, ctx, tol).value
    val = c * math.exp(lwx + lwy + math.log(sx) + math.log(sy)) * num / (xv - yv)
    return _wrap(val, tol)


def _basic_diag(x: float, quad: AdmissibleQuadruple, ctx: QContext,
                tol: Tolerance, max_nodes: int = 512) -> EvalResult:
    """Diagonal value by the contour integral around x.

    The integrand is analytic in the punctured disk around x, so the
    trapezoid rule on |z - x| = eps converges geometrically.  With w the
    weight, sqrt(w(z)) sqrt(w(x)) = w(x) * sqrt(w(z)/w(x)).
    """
    sign = 1.0 if x > 0 else -1.0
    eps = 0.5 * _sing_distance(x, quad, ctx)
    lw_x = _log_weight(x, quad, ctx, sign, tol)
    h1x, h0x = _h(x, 1, quad, ctx, tol), _h(x, 0, quad, ctx, tol)
    s = max(abs(h1x), abs(h0x))
    # weight * h^2 is O(1); recombine the huge magnitudes in log space
    amp = math.exp(lw_x.real + 2.0 * math.log(s))
    c = frak_C(quad, ctx, tol).value

    def integrand(z: complex) -> tuple[complex, complex]:
        h1z, h0z = _h(z, 1, quad, ctx, tol), _h(z, 0, quad, ctx, tol)
        return (_log_weight(z, quad, ctx, sign, tol) - lw_x,
                (h1z / s) * (h0x / s) - (h1x / s) * (h0z / s))

    return _diag_contour(x, eps, integrand, c * amp, tol, max_nodes)
