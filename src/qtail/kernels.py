"""Correlation kernels on the two-sided q-lattice.

The lattice is zeta_- q^Z  U  zeta_+ q^Z with zeta_+ > 0 > zeta_-.  Two
kernel families live here:

* the four-parameter kernel ``basic_kernel`` built from 2phi1 functions,
  with (alpha, beta, gamma, delta) an admissible quadruple, and
* the two-parameter theta kernel ``elliptic_kernel`` built from theta
  quotients, with (gamma, delta) an admissible pair.

Lattice values of the theta kernel are read from the gauged kernel
``tilde`` of one pair plan, ``_PairPlan``: a function of the two branches
and the exponent difference alone (theta-power ratios off the diagonal,
log-derivative forms on it), written with B = C (delta - gamma) so that
gamma = delta takes the same path; large-magnitude combinations are
assembled in log space so nothing overflows on the way to an O(1) kernel
value.  Four-parameter kernel values are read from one quadruple plan,
``_QuadPlan``, and its diagonals use the contour-integral representation.

No error bound has been derived for any value here, so every EvalResult
this module returns has abs_error_bound None.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from ._core import cexpm1, logqpoch_raw, theta_dd_raw
from .qhyper import DegeneracyError, Phi21Params, phi21
from .qspecial import (REL_TOL, DomainError, EvalResult, QParam, _log_qpoch_pair, _theta_ratio_dd,
                       _zlogderiv_dd, log_theta, qpoch_inf, qpoch_multi, theta)

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
    "elliptic_diag_contour",
    "ConvergenceError",
    "closed_diag",
    "truncation_order",
    "gauge_eps",
    "tilde_kernel",
    "hat_kernel",
    "frak_C",
    "basic_kernel",
]

# |k| clamp on lattice exponents.  At |k| = 400, q^k is a normal double
# only for q >= 0.17: below that q^400 goes subnormal (and flushes to 0
# below q ~ 0.155), and q^-400 overflows; LatticePoint.value raises
# DomainError there.
MAX_EXPONENT = 400

# Pairs (and quadruples) whose plan, with everything derived from it, is
# kept.  Every caller works through one at a time, so a few entries suffice.
_CACHE_SIZE = 8

# Node count of the last ring the contour diagonals try.
_NODE_LIMIT = 512


class ConvergenceError(ArithmeticError):
    """An iterative value that did not converge within its limit, such as a
    contour diagonal whose rings still disagree at ``_NODE_LIMIT`` nodes."""


@dataclass(frozen=True)
class QContext:
    """The lattice data: base q and the two anchors zeta_+ > 0 > zeta_-."""

    q: QParam
    zeta_plus: float
    zeta_minus: float

    def __post_init__(self):
        if not (math.isfinite(self.zeta_plus) and math.isfinite(self.zeta_minus)
                and self.zeta_plus > 0.0 > self.zeta_minus):
            raise DomainError("need finite zeta_plus > 0 > zeta_minus")


@dataclass(frozen=True)
class LatticePoint:
    """The lattice point zeta_{sign} q^k; k is stored as an int."""

    sign: int  # +1 or -1
    k: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise DomainError("sign must be +1 or -1")
        if not isinstance(self.k, numbers.Integral):
            raise DomainError(f"lattice exponent must be an integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
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
    if not (cmath.isfinite(gamma) and cmath.isfinite(delta)):
        raise DomainError("gamma, delta must be finite")
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


def _sinh_quotient(x: int, s: complex, b: float) -> complex:
    """e^-b sinh(x s) / sinh(s), integer x, and its limit x e^-b at s = 0;
    no overflow while b >= |Re(x s)| - O(1), no cancellation as s -> 0."""
    if s == 0:
        return x * math.exp(-b)
    A, sign = x * s, -0.5
    if A.real < 0:
        A, sign = -A, 0.5
    return sign * cmath.exp(A - b) * cexpm1(-2.0 * A) / cmath.sinh(s)


@dataclass(frozen=True, eq=False)
class _PairPlan:
    """Everything the theta-kernel routes need from one pair, built once per
    (pair, ctx) and kept in the one bounded cache of per-pair work.

    Each closed form is C times a difference that vanishes at gamma = delta,
    where C has its pole.  The plan holds B = C (delta - gamma), smooth
    there, and writes each product as B times a divided difference, so
    every admissible pair takes one path.  ``build`` evaluates the six log
    thetas, log (q; q)_inf and log (q gamma/delta, q delta/gamma; q)_inf
    behind B, each from the dual-nome sum of ``qspecial``, so no step takes
    a product and the cost does not grow as q -> 1.  Every other per-pair
    value (rho for the cross entries and D from it, the two diagonal
    values, the table of ``tilde``, from which every lattice value is
    read) is derived on first use and kept on the plan, so it leaves the
    cache with it.  The plan holds values, not route algebra: each Fourier
    route forms its own eta-independent factors from them in ``fourier``.
    """

    pair: AdmissiblePair
    ctx: QContext
    lt_gm: complex  # log theta(gamma zeta_-); lt_gp, lt_dm, lt_dp alike
    lt_gp: complex
    lt_dm: complex
    lt_dp: complex
    lt_zz: complex  # log theta(zeta_- / zeta_+)
    lt_gdzz: complex  # log theta(gamma delta zeta_- zeta_+)
    B: complex
    R: float  # sqrt(gamma delta), positive root
    s: complex  # log(gamma / R) = s + i pi kappa, with s -> 0 as delta -> gamma
    flip: int  # (-1)^kappa
    lq: float  # log q
    half_lr: float
    half_theta4: float  # log sqrt(Theta), Theta = theta(gamma zeta_-+, delta zeta_-+) > 0
    v: complex  # theta(zeta_- delta) theta(zeta_+ gamma) / sqrt(Theta)
    _diags: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    @functools.lru_cache(maxsize=_CACHE_SIZE)
    def build(cls, pair: AdmissiblePair, ctx: QContext) -> "_PairPlan":
        g, d = pair.gamma, pair.delta
        q, zp, zm = ctx.q, ctx.zeta_plus, ctx.zeta_minus
        lt_gm, lt_gp, lt_dm, lt_dp, lt_zz, lt_gdzz = (
            log_theta(z, q) for z in (g * zm, g * zp, d * zm, d * zp, zm / zp, g * d * zm * zp))
        # B = -theta(g zm, g zp, d zm, d zp)
        #     / (zp theta(zm/zp, g d zm zp) (q g/d, q d/g, q, q; q)_inf),
        # (q g/d, q d/g; q)_inf = theta(g/d)/(1 - g/d), (q; q)_inf^2 at g = d
        logB = lt_gm + lt_gp + lt_dm + lt_dp + 1j * math.pi - math.log(zp) - lt_zz - lt_gdzz
        logB -= _log_qpoch_pair(g / d, q) + 2.0 * q.lqq[0]
        half_theta4 = 0.5 * (lt_gm + lt_dm + lt_gp + lt_dp).real
        R = math.sqrt((g * d).real)
        # gamma = R e^w and delta = R e^-w; w tends to i pi, not 0, for a
        # negative pair, and to i pi for a principal pair with phi -> pi
        w = cmath.log(g / R)
        kappa = round(w.imag / math.pi)
        return cls(
            pair, ctx, lt_gm, lt_gp, lt_dm, lt_dp, lt_zz, lt_gdzz,
            B=cmath.exp(logB),
            R=R,
            s=w - 1j * math.pi * kappa,
            flip=(-1) ** kappa,
            lq=math.log(q.q),
            half_lr=0.5 * math.log(abs(zp / zm)),
            half_theta4=half_theta4,
            v=cmath.exp(lt_dm + lt_gp - half_theta4),
        )

    @functools.cached_property
    def rho(self) -> tuple[complex, complex]:
        """rho(delta zeta, gamma zeta) at zeta_+ and at zeta_-."""
        g, d, q = self.pair.gamma, self.pair.delta, self.ctx.q
        return tuple(_theta_ratio_dd(d * zeta, g * zeta, q)
                     for zeta in (self.ctx.zeta_plus, self.ctx.zeta_minus))

    @functools.cached_property
    def D(self) -> complex:
        """(u - v) / (delta - gamma), u = v with gamma <-> delta, by
        theta(d z)/theta(g z) = 1 + (d - g) z rho(d z, g z)."""
        rho_p, rho_m = self.rho
        return (cmath.exp(self.lt_gm + self.lt_gp - self.half_theta4)
                * (self.ctx.zeta_plus * rho_p - self.ctx.zeta_minus * rho_m))

    def tilde(self, s1: int, s2: int, d: int) -> complex:
        """eps(x) eps(y) K(x, y) for x on branch s1, y on branch s2: by
        q-translation invariance a function of d = k_x - k_y alone, diag(s1)
        at d = 0 on one branch.  Elsewhere it is (-1)^d C sinh(d w) / sinh(d
        log(q) / 2) on the plus branch, minus that on the minus branch, and
        (-1)^d C (e^{kw} u - e^{-kw} v) / e^l across, k = s1 d, e^l = (x_+ -
        x_-) / sqrt(|x_+ x_-|).  As delta - gamma = -2 R sinh(w) and the
        difference is e^{kw} (u - v) + 2 v sinh(k w), they are -(-flip)^d flip
        (B / 2R) sinh(d s) / (sinh(s) sinh(d log(q) / 2)) and (-flip)^d B
        (e^{ks} D - flip v sinh(k s) / (R sinh(s))) / e^l."""
        sign = (-self.flip) ** abs(d)
        if s1 == s2:
            if d == 0:
                return self.diag(s1)
            b = -0.5 * abs(d) * self.lq
            val = (-self.B / self.R * (sign * self.flip)
                   * _sinh_quotient(abs(d), self.s, b) / math.expm1(-2.0 * b))
            return val if s1 > 0 else -val
        k = s1 * d
        beta = abs(self.half_lr + 0.5 * k * self.lq)
        ell = beta + math.log1p(math.exp(-2.0 * beta))  # log(2 cosh(beta))
        val = (cmath.exp(k * self.s - ell) * self.D
               - self.flip * self.v * _sinh_quotient(k, self.s, ell) / self.R)
        return sign * self.B * val

    def diag(self, sign: int) -> complex:
        """K(zeta q^m, zeta q^m) = sign C (F(delta zeta) - F(gamma zeta))
        = sign B zeta [F](delta zeta, gamma zeta), F(z) = z theta'(z)/theta(z);
        computed once per sign and kept on the plan."""
        if sign not in self._diags:
            g, d = self.pair.gamma, self.pair.delta
            zeta = self.ctx.zeta_plus if sign > 0 else self.ctx.zeta_minus
            dd = _zlogderiv_dd(d * zeta, g * zeta, self.ctx.q)
            self._diags[sign] = sign * self.B * zeta * dd
        return self._diags[sign]

    def entry(self, x: LatticePoint, y: LatticePoint) -> complex:
        """K(x, y) at two lattice points: ``tilde`` undone by the eps gauge."""
        return gauge_eps(x) * gauge_eps(y) * self.tilde(x.sign, y.sign, x.k - y.k)

    @functools.cached_property
    def lattice(self) -> np.ndarray:
        """The read-only table T[i, j, M + d] = tilde(s_i, s_j, d), |d| <= M =
        truncation_order(pair, ctx), s_0 = +1, s_1 = -1.  T[0, 0] is even in
        d, T[1, 1] is -T[0, 0] off the centre and T[1, 0] is T[0, 1]
        reversed (K is symmetric), so 3M + 1 values and the diagonals fill it."""
        M = truncation_order(self.pair, self.ctx)
        T = np.empty((2, 2, 2 * M + 1), dtype=complex)
        T[0, 1] = [self.tilde(1, -1, d) for d in range(-M, M + 1)]
        T[1, 0] = T[0, 1, ::-1]
        T[0, 0, M + 1:] = [self.tilde(1, 1, d) for d in range(1, M + 1)]
        T[0, 0, :M] = T[0, 0, :M:-1]
        T[1, 1] = -T[0, 0]
        T[0, 0, M], T[1, 1, M] = self.diag(1), self.diag(-1)
        if not np.all(np.isfinite(T)):
            raise OverflowError("lattice-sum coefficient leaves double range")
        T.setflags(write=False)
        return T


def truncation_order(pair: AdmissiblePair, ctx: QContext) -> int:
    """Lattice terms needed down to REL_TOL / 10: the summand decays like
    rho^|m| with rho = max(sqrt(q), |sqrt(q gamma/delta)|, |sqrt(q delta/gamma)|)."""
    q = ctx.q.q
    r = abs(pair.gamma / pair.delta)
    rho = max(math.sqrt(q), math.sqrt(q * r), math.sqrt(q / r))
    if rho >= 1.0:
        raise ValueError("summand does not decay; pair outside admissible range")
    return int(math.ceil(math.log(REL_TOL / 10) / math.log(rho))) + 10


def log_C_elliptic(pair: AdmissiblePair, ctx: QContext) -> complex:
    """log of the theta-kernel normalizing constant C = B / (delta - gamma),
    which has its pole at gamma = delta."""
    if pair.delta == pair.gamma:
        raise DomainError("the constant C has its pole at gamma = delta")
    return cmath.log(_PairPlan.build(pair, ctx).B) - cmath.log(pair.delta - pair.gamma)


def C_elliptic(pair: AdmissiblePair, ctx: QContext) -> EvalResult:
    return EvalResult(cmath.exp(log_C_elliptic(pair, ctx)), None)


def _elliptic_direct(xv: float, yv: float, pair: AdmissiblePair, ctx: QContext) -> complex:
    """Quotient form C (P(x)Q(y) - Q(x)P(y))/(x - y); x != y, moderate q.
    With (P, Q)(x) = sqrt(|x|) (theta(x delta), theta(x gamma)) / sqrt(theta(x
    gamma) theta(x delta)), the numerator is (delta - gamma) Q(x) Q(y)
    (x rho(x delta, x gamma) - y rho(y delta, y gamma))."""
    g, d = pair.gamma, pair.delta
    q = ctx.q

    def side(x: float) -> tuple[complex, complex]:
        tg = theta(x * g, q).value
        td = theta(x * d, q).value
        # the product as theta_multi forms it, signed zeros included: when it
        # is negative real they choose the branch of the square root
        den = cmath.sqrt(complex(1.0) * tg * td)
        return math.sqrt(abs(x)) * tg / den, x * _theta_ratio_dd(x * d, x * g, q)

    (qx, rx), (qy, ry) = side(float(xv)), side(float(yv))
    return _PairPlan.build(pair, ctx).B * qx * qy * (rx - ry) / (xv - yv)


def closed_diag(sign: int, pair: AdmissiblePair, ctx: QContext) -> EvalResult:
    """K(zeta_s q^m, zeta_s q^m): independent of m, via theta log-derivatives."""
    return EvalResult(_PairPlan.build(pair, ctx).diag(sign), None)


def elliptic_kernel(x, y, pair: AdmissiblePair, ctx: QContext) -> EvalResult:
    """The theta kernel; two lattice points take the pair plan's closed forms.

    Non-lattice (real or complex, off the singular set) arguments use the
    direct quotient form, which is safe at moderate q.
    """
    if isinstance(x, LatticePoint) and isinstance(y, LatticePoint):
        return EvalResult(_PairPlan.build(pair, ctx).entry(x, y), None)
    xv = x.value(ctx) if isinstance(x, LatticePoint) else float(x)
    yv = y.value(ctx) if isinstance(y, LatticePoint) else float(y)
    if xv == yv:
        raise DomainError("diagonal off the lattice: use elliptic_diag_contour")
    return EvalResult(_elliptic_direct(xv, yv, pair, ctx), None)


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


def _ring_sum(x: float, eps: float, pref: complex, ph: np.ndarray, z: np.ndarray,
              lr: np.ndarray, num: np.ndarray) -> complex:
    """Trapezoid sum of pref * sqrt(w(z)/w(x)) * num / (z - x)^2 over one
    ring, its nodes z = x + eps * ph in index order around the circle and
    lr = log(w(z)/w(x)).  The imaginary part of lr is unwrapped node to node,
    starting from 0 (the ratio is 1 at the real node 0), so the square root
    never jumps branches."""
    turns = np.cumsum(np.round(-np.diff(lr.imag, prepend=0.0) / (2.0 * math.pi)))
    rat = np.exp(0.5 * (lr.real + 1j * (lr.imag + 2.0 * math.pi * turns)))
    return complex(np.sum(pref * rat * num / (z - x) ** 2 * ph)) * eps / len(ph)


def _diag_contour(x: float, eps: float, integrand, pref: complex) -> tuple[complex, bool]:
    """Trapezoid rule for a kernel diagonal on the circle |z - x| = eps.

    ``integrand(z)`` takes an array of nodes and returns the arrays
    (log(w(z)/w(x)), numerator(z)) for the caller's weight w; the integrand
    is pref * sqrt(w(z)/w(x)) * numerator(z) / (z - x)^2 (see
    ``_ring_sum``).  The weight is analytic and nonzero in the disk, so the
    ratio has zero winding.  The node count doubles from 64 until two rings
    agree to 1e-10.  Ring 2n holds ring n's nodes at its even indices (the
    phases are bitwise equal), so each ring makes one ``integrand`` call, on
    its new odd nodes.  Returns (value, converged); when the rings still
    disagree at ``_NODE_LIMIT`` nodes, the value is the last ring's and the
    caller decides what to do with it.
    """
    prev, lr, num = None, None, None
    n = 64
    while n <= _NODE_LIMIT:
        ph = np.exp(2j * math.pi * np.arange(n) / n)
        z = x + eps * ph
        if lr is None:
            lr, num = integrand(z)
        else:
            lr_odd, num_odd = integrand(z[1::2])
            lr = np.column_stack((lr, lr_odd)).ravel()
            num = np.column_stack((num, num_odd)).ravel()
        val = _ring_sum(x, eps, pref, ph, z, lr, num)
        if prev is not None and abs(val - prev) <= 1e-10 * max(1.0, abs(val)):
            return val, True
        prev = val
        n *= 2
    return prev, False


def elliptic_diag_contour(x, pair: AdmissiblePair, ctx: QContext) -> EvalResult:
    """Diagonal of the theta kernel by the contour integral around x.

    Independent of the closed_diag route; used as a cross-check.  The
    weight is u(z) = sign * z / (theta(z gamma) theta(z delta)).  The
    numerator C (theta(z delta) theta(x gamma) - theta(z gamma) theta(x
    delta)) is B (z theta(x gamma) [theta](z delta, z gamma) - x theta(z
    gamma) [theta](x delta, x gamma)), with every theta taken relative to
    theta(x gamma) by ``theta_dd_raw``, so gamma = delta takes the same path.
    Each ring's new nodes go through one array ``theta_dd_raw`` call.
    Raises ConvergenceError when no two rings up to ``_NODE_LIMIT`` nodes
    agree.
    """
    xv = x.value(ctx) if isinstance(x, LatticePoint) else float(x)
    sign = 1.0 if xv > 0 else -1.0
    eps = 0.5 * _sing_distance(xv, pair, ctx)
    g, d = pair.gamma, pair.delta
    qv, c = ctx.q.q, xv * g
    tx, _, rx = theta_dd_raw(xv * d, c, c, qv)  # rx = theta(x delta) / theta(x gamma)

    def integrand(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t, pg, pd = theta_dd_raw(z * d, z * g, c, qv)
        return np.log(z * rx / (xv * pg * pd)), z * t - xv * pg * tx

    B = _PairPlan.build(pair, ctx).B
    val, converged = _diag_contour(xv, eps, integrand, B * sign * xv / rx)
    if not converged:
        raise ConvergenceError(f"contour diagonal at x = {xv:.6g}, q = {qv}: no two rings "
                               f"up to {_NODE_LIMIT} nodes agree to 1e-10")
    return EvalResult(val, None)


def _require_points(*xs) -> None:
    """Raise DomainError unless every argument is a LatticePoint."""
    for x in xs:
        if not isinstance(x, LatticePoint):
            raise DomainError(f"a LatticePoint is required, got {x!r}")


def gauge_eps(x: LatticePoint) -> int:
    """+1 on the positive branch, (-1)^k at zeta_- q^k."""
    _require_points(x)
    return 1 if x.sign > 0 else (-1) ** x.k


def tilde_kernel(x: LatticePoint, y: LatticePoint, pair: AdmissiblePair,
                 ctx: QContext) -> EvalResult:
    """eps-gauged theta kernel; q-translation-invariant."""
    _require_points(x, y)
    return EvalResult(_PairPlan.build(pair, ctx).tilde(x.sign, y.sign, x.k - y.k), None)


def hat_kernel(x: LatticePoint, y: LatticePoint, pair: AdmissiblePair, ctx: QContext) -> EvalResult:
    """Particle-hole involution of the gauged theta kernel on the positive
    branch.

    With nu = (-1)^k on the positive branch and 1 on the negative one, bK =
    nu(x) nu(y) K = (-1)^d tilde, d = k_x - k_y (nu eps is (-1)^k on both
    branches): delta_{xy} - bK when y lies on the positive branch and +bK
    when it lies on the negative one.
    """
    _require_points(x, y)
    d = x.k - y.k
    bold = (-1) ** d * _PairPlan.build(pair, ctx).tilde(x.sign, y.sign, d)
    if y.sign < 0:
        return EvalResult(bold, None)
    return EvalResult((1.0 if x == y else 0.0) - bold, None)


# ---------------------------------------------------------------------------
# four-parameter kernel
# ---------------------------------------------------------------------------


def frak_C(quad: AdmissibleQuadruple, ctx: QContext) -> EvalResult:
    """Normalizing constant of the four-parameter kernel, -B (q gamma/delta,
    q delta/gamma, alpha beta/(gamma delta), alpha beta/(q gamma delta);
    q)_inf / (alpha/gamma, alpha/delta, beta/gamma, beta/delta; q)_inf with
    B = C (delta - gamma) of the theta kernel's pair (gamma, delta), as the
    quadruple plan computes it once."""
    return EvalResult(_QuadPlan.build(quad, ctx).c, None)


def _log_weight(z: complex, quad: AdmissibleQuadruple, ctx: QContext) -> complex:
    """log of (sz)(z alpha, z beta; q)_inf / theta(z gamma, z delta), s = sgn Re z.

    Meaningful modulo 2 pi i; the weight itself is positive on the lattice,
    so Re of this log determines its positive square root.
    """
    q = ctx.q
    out = cmath.log(z if z.real > 0 else -z)
    out += logqpoch_raw(z * quad.alpha, q.q)[0] + logqpoch_raw(z * quad.beta, q.q)[0]
    out -= log_theta(z * quad.gamma, q) + log_theta(z * quad.delta, q)
    return out


def _h_direct(z: complex, r: int, quad: AdmissibleQuadruple, ctx: QContext) -> complex:
    """Meromorphic part of the building function (common sqrt weight removed)."""
    a, b, g, d = quad.alpha, quad.beta, quad.gamma, quad.delta
    q = ctx.q
    qr = q.q ** r
    num = qpoch_multi([b * qr / (q.q * g), qr / (d * z)], q).value
    den = qpoch_inf(a * b * qr * qr / (q.q ** 2 * g * d), q).value
    p = Phi21Params(a * qr / (q.q * d), q.q / (b * z), qr / (d * z), q)
    return (-z) ** (1 - r) * num / den * phi21(p, b * qr / (q.q * g)).value


def _h_transformed(z: complex, r: int, quad: AdmissibleQuadruple, ctx: QContext) -> complex:
    """Two-term representation of the meromorphic part; stable for small |z|."""
    a, b, g, d = quad.alpha, quad.beta, quad.gamma, quad.delta
    q = ctx.q
    qr = q.q ** r

    def term(g1, d1):
        num = qpoch_multi([b * qr / (q.q * g1), a * qr / (q.q * g1)], q).value
        den = qpoch_inf(d1 / g1, q).value
        if abs(den) < 1e-13:
            raise DegeneracyError("two-term split degenerates for delta/gamma in q^Z")
        th = theta(z * d1 * q.q ** (1 - r), q).value
        p = Phi21Params(b * qr / (q.q * d1), g1 * q.q ** (2 - r) / a, g1 * q.q / d1, q)
        return num / den * th * phi21(p, a * z).value

    pref = (-z) ** (1 - r) / (
        qpoch_multi([b * z, a * b * qr * qr / (q.q ** 2 * g * d)], q).value
    )
    return pref * (term(g, d) + term(d, g))


def _h(z: complex, r: int, quad: AdmissibleQuadruple, ctx: QContext) -> complex:
    small = abs(z) < ctx.q.q ** 3 * min(ctx.zeta_plus, -ctx.zeta_minus)
    return (_h_transformed if small else _h_direct)(z, r, quad, ctx)


@dataclass(frozen=True, eq=False)
class _QuadPlan:
    """The four-parameter kernel's work for one (quad, ctx), cached like the
    pair plans: frak_C, and each lattice value's ``point``, kept on the plan."""

    quad: AdmissibleQuadruple
    ctx: QContext
    c: complex  # frak_C
    _points: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    @functools.lru_cache(maxsize=_CACHE_SIZE)
    def build(cls, quad: AdmissibleQuadruple, ctx: QContext) -> "_QuadPlan":
        a, b, g, d = quad.alpha, quad.beta, quad.gamma, quad.delta
        q = ctx.q
        B = _PairPlan.build(quad.pair, ctx).B
        num = qpoch_multi([q.q * g / d, q.q * d / g, a * b / (g * d), a * b / (q.q * g * d)], q)
        den = qpoch_multi([a / g, a / d, b / g, b / d], q)
        return cls(quad, ctx, -B * num.value / den.value)

    def point(self, x: float) -> tuple[complex, float, complex, complex]:
        """(lw, s, h1/s, h0/s) at x, lw = log w(x), s = max(|h1|, |h0|) (h1, h0
        unscaled where s = 0).  The h reach ~1e250 at deep exponents while w
        h^2 is O(1), so callers recombine s with the weight in log space."""
        if x not in self._points:
            quad, ctx = self.quad, self.ctx
            lw = _log_weight(x, quad, ctx)
            h1, h0 = _h(x, 1, quad, ctx), _h(x, 0, quad, ctx)
            s = max(abs(h1), abs(h0))
            self._points[x] = (lw, s, h1 / s, h0 / s) if s != 0.0 else (lw, s, h1, h0)
        return self._points[x]


def basic_kernel(x, y, quad: AdmissibleQuadruple, ctx: QContext) -> EvalResult:
    """The four-parameter kernel at real points of the lattice."""
    xv = x.value(ctx) if isinstance(x, LatticePoint) else float(x)
    yv = y.value(ctx) if isinstance(y, LatticePoint) else float(y)
    plan = _QuadPlan.build(quad, ctx)
    if xv == yv:
        return _basic_diag(xv, plan)
    lwx, sx, h1x, h0x = plan.point(xv)
    lwy, sy, h1y, h0y = plan.point(yv)
    if sx == 0.0 or sy == 0.0:
        return EvalResult(0.0 + 0.0j, None)
    num = h1x * h0y - h1y * h0x
    amp = math.exp(0.5 * lwx.real + 0.5 * lwy.real + math.log(sx) + math.log(sy))
    return EvalResult(plan.c * amp * num / (xv - yv), None)


def _basic_diag(x: float, plan: _QuadPlan) -> EvalResult:
    """Diagonal value by the contour integral around x.

    The integrand is analytic in the punctured disk around x, so the
    trapezoid rule on |z - x| = eps converges geometrically.  With w the
    weight, sqrt(w(z)) sqrt(w(x)) = w(x) * sqrt(w(z)/w(x)).  Unlike
    ``elliptic_diag_contour`` this returns the last ring when no two rings
    agree to 1e-10: at the test quadruple with k = 30 to 40 they differ by
    up to 2.4e-9, against a tail gap to ``closed_diag`` of 1.9e-7 at k = 40
    that the deep-diagonal checks read.
    """
    quad, ctx = plan.quad, plan.ctx
    eps = 0.5 * _sing_distance(x, quad, ctx)
    lw_x, s, h1x, h0x = plan.point(x)
    amp = math.exp(lw_x.real + 2.0 * math.log(s))

    def node(z: complex) -> tuple[complex, complex]:
        h1z, h0z = _h(z, 1, quad, ctx), _h(z, 0, quad, ctx)
        return _log_weight(z, quad, ctx) - lw_x, (h1z / s) * h0x - h1x * (h0z / s)

    def integrand(z: np.ndarray) -> np.ndarray:
        # _h and phi21 are scalar: one node at a time, on Python complex
        return np.array([node(zj) for zj in z.tolist()]).T

    return EvalResult(_diag_contour(x, eps, integrand, plan.c * amp)[0], None)
