"""Identity checks with independent left/right evaluations.

Every operation evaluates both sides of an identity by unrelated routes
(series vs. product, sum vs. theta quotient) and reports the relative
residual

    |lhs - rhs| / max(|lhs|, |rhs|, 1e-30).

The module also hosts the seeded random parameter draws and the one
registry of randomized identity suites (``SUITES``) and their thresholds
(``THRESHOLDS``) that both the command-line ``verify`` command and the
acceptance gate run, so that every randomized check is reproducible from
its seed and is written once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import fourier_closed, fourier_lemma_form, fourier_series, projection_report
from .kernels import (
    AdmissiblePair,
    AdmissibleQuadruple,
    QContext,
    validate_pair,
    validate_quadruple,
)
from .qhyper import (DegeneracyError, Phi21Params, PoleError, heine_rhs, phi21,
                     qdiff_residual, watson_rhs)
from .qspecial import (
    CUT,
    DomainError,
    QParam,
    jacobi_imaginary_rhs,
    log_theta,
    qpoch_inf,
    theta,
    theta3,
    theta_deriv,
    theta_logderiv,
)

__all__ = [
    "IdentityReport",
    "weierstrass_residual",
    "ramanujan_sum_residual",
    "logderiv_sum_residual",
    "trace_identity_residual",
    "fourier_equality_residual",
    "diagonal_identity_residual",
    "draw_context",
    "draw_pair",
    "draw_quadruple",
    "SUITES",
    "THRESHOLDS",
    "apply_thresholds",
]

RESIDUAL_FLOOR = 1e-30


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    lhs: complex
    rhs: complex
    rel_residual: float
    params: dict = field(default_factory=dict)


def _report(name: str, lhs: complex, rhs: complex, params: dict,
            scale: float = 0.0) -> IdentityReport:
    """The residual is normalized by the natural scale of the identity
    (largest constituent term) when given, so that cancellation between
    large terms is not mistaken for disagreement."""
    res = abs(lhs - rhs) / max(abs(lhs), abs(rhs), scale, RESIDUAL_FLOOR)
    return IdentityReport(name, lhs, rhs, res, params)


def weierstrass_residual(X: complex, Y: complex, Z: complex, W: complex,
                         q: QParam) -> IdentityReport:
    """Three-term theta relation in four free variables:

        th(qYZ, Z/Y, qXW, W/X) - th(qYW, W/Y, qXZ, Z/X)
            = -(Z/Y) th(qXY, Y/X, qZW, W/Z).

    One product is kept on each side (the third moves to the right), so
    the relative residual is conditioned on the size of the products
    rather than on their possibly tiny difference.
    """
    qq = q.q

    def th(*zs):
        return math.prod(theta(z, q).value for z in zs)

    t1 = th(qq * Y * Z, Z / Y, qq * X * W, W / X)
    t2 = th(qq * Y * W, W / Y, qq * X * Z, Z / X)
    t3 = -(Z / Y) * th(qq * X * Y, Y / X, qq * Z * W, W / Z)
    return _report("weierstrass_three_term", t1, t2 + t3,
                   {"X": X, "Y": Y, "Z": Z, "W": W, "q": qq},
                   scale=max(abs(t1), abs(t2), abs(t3)))


def ramanujan_sum_residual(a: complex, z: complex, p: float) -> IdentityReport:
    """Bilateral sum sum_m a^m / (z p^m + z^{-1} p^{-m}) against its theta
    quotient; converges for p < |a| < 1/p."""
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie in (0, 1)")
    if not p < abs(a) < 1.0 / p:
        raise DomainError("need p < |a| < 1/p for convergence")
    q2 = QParam(p * p)
    lhs = 0.0 + 0.0j
    for m in _bilateral_range(max(abs(a) * p, p / abs(a))):
        lhs += a ** m / (z * p ** m + p ** (-m) / z)
    tp1 = -(qpoch_inf(p * p, q2).value ** 2)  # theta'_{p^2}(1)
    rhs = (
        -z * theta(-a * p * z * z, q2).value * tp1
        / (theta(-z * z, q2).value * theta(a * p, q2).value)
    )
    return _report("bilateral_secant_sum", lhs, rhs, {"a": a, "z": z, "p": p})


def logderiv_sum_residual(z: complex, p: float) -> IdentityReport:
    """sum_{m != 0} z^m / (p^{-m} - p^m) against -p z theta'(pz)/theta(pz)
    in base p^2; converges for p < |z| < 1/p."""
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie in (0, 1)")
    if not p < abs(z) < 1.0 / p:
        raise DomainError("need p < |z| < 1/p for convergence")
    q2 = QParam(p * p)
    lhs = 0.0 + 0.0j
    for m in _bilateral_range(max(abs(z) * p, p / abs(z))):
        if m != 0:
            lhs += z ** m / (p ** (-m) - p ** m)
    rhs = -p * z * theta_logderiv(p * z, q2)
    return _report("bilateral_logderiv_sum", lhs, rhs, {"z": z, "p": p})


def _bilateral_range(rho: float):
    M = int(math.ceil(math.log(CUT) / math.log(rho))) + 5
    return range(-M, M + 1)


def trace_identity_residual(eta: float, pair: AdmissiblePair, ctx: QContext) -> IdentityReport:
    """Trace of the closed-form Fourier matrix against 1 (a disguised
    instance of the three-term theta relation)."""
    M = fourier_closed(eta, pair, ctx)
    lhs = complex(M[0, 0] + M[1, 1])
    return _report("fourier_trace_one", lhs, 1.0 + 0.0j,
                   {"eta": eta, "gamma": pair.gamma, "delta": pair.delta})


def fourier_equality_residual(eta: float, pair: AdmissiblePair, ctx: QContext) -> IdentityReport:
    """Worst entrywise disagreement among the three evaluation routes of
    the Fourier matrix (lattice sum, product form, log-derivative form)."""
    S = fourier_series(eta, pair, ctx)
    C = fourier_closed(eta, pair, ctx)
    L = fourier_lemma_form(eta, pair, ctx)
    scale = float(max(np.max(np.abs(S)), np.max(np.abs(C)), np.max(np.abs(L))))
    worst = (-1.0, complex(S[0, 0]), complex(C[0, 0]))
    for A, B in ((S, C), (S, L)):
        for i in range(2):
            for j in range(2):
                d = abs(A[i, j] - B[i, j])
                if d > worst[0]:
                    worst = (d, complex(A[i, j]), complex(B[i, j]))
    _, lhs, rhs = worst
    return _report("fourier_three_route_equality", lhs, rhs,
                   {"eta": eta, "gamma": pair.gamma, "delta": pair.delta},
                   scale=scale)


def diagonal_identity_residual(c: float, d: float, ctx: QContext) -> IdentityReport:
    """Log-derivative combination against the closed theta-product ratio:

        l(c,d) = d^2 zp th'(d^2 zp)/th(d^2 zp) - c^2 zp th'(c^2 zp)/th(c^2 zp)
                 + (sq c/d) th'(sq c/d)/th(sq c/d) - (sq d/c) th'(sq d/c)/th(sq d/c)
        r(c,d) = q (q;q)^2 / (zp d^2)
                 * th(d/c, -d/c, -sq d/c) th(zp c d / sq)^2
                 / th(c^2 zp, d^2 zp, sq d/c)

    with sq = sqrt(q), zp = zeta_plus.  The ratio is one sum of logs,
    exponentiated once: its theta products leave double range as q -> 1.
    """
    q = ctx.q
    zp = ctx.zeta_plus
    sq = math.sqrt(q.q)

    def LD(z: complex) -> complex:
        return z * theta_logderiv(z, q)

    lhs = LD(d * d * zp) - LD(c * c * zp) + LD(sq * c / d) - LD(sq * d / c)

    def lt(*zs):
        return sum(log_theta(z, q) for z in zs)

    pq = qpoch_inf(q.q, q).value.real
    lr = (lt(d / c, -d / c, -sq * d / c) + 2.0 * lt(zp * c * d / sq)
          - lt(c * c * zp, d * d * zp, sq * d / c))
    rhs = cmath.exp(math.log(q.q / (zp * d * d)) + 2.0 * math.log(pq) + lr)
    return _report("diagonal_logderiv_product", lhs, rhs, {"c": c, "d": d, "q": q.q})


# ---------------------------------------------------------------------------
# seeded parameter draws
# ---------------------------------------------------------------------------


def draw_context(rng: np.random.Generator, q: float | None = None,
                 q_range: tuple[float, float] = (0.3, 0.9)) -> QContext:
    if q is None:
        q = float(rng.uniform(*q_range))
    zp = float(rng.uniform(0.5, 2.0))
    zm = -float(rng.uniform(0.5, 2.0))
    return QContext(QParam(q), zp, zm)


def draw_pair(rng: np.random.Generator, ctx: QContext,
              series: str | None = None) -> AdmissiblePair:
    """A random admissible pair: conjugate off the real axis, or two reals
    strictly inside one q-interval of a reciprocal-branch lattice."""
    if series is None:
        series = "principal" if rng.random() < 0.5 else "complementary"
    q = ctx.q.q
    if series == "principal":
        rho = float(rng.uniform(0.3, 1.5))
        phi = float(rng.uniform(0.15, math.pi - 0.15))
        g = rho * cmath.exp(1j * phi)
        return validate_pair(g, g.conjugate(), ctx)
    sign = 1 if rng.random() < 0.5 else -1
    anchor = ctx.zeta_plus if sign > 0 else ctx.zeta_minus
    m = int(rng.integers(-2, 3))
    t1, t2 = sorted(rng.uniform(0.05, 0.95, size=2))
    if t2 - t1 < 0.02:
        t2 = min(0.97, t1 + 0.02)
    g = q ** (m + t1) / anchor
    d = q ** (m + t2) / anchor
    return validate_pair(g, d, ctx)


def draw_quadruple(rng: np.random.Generator, ctx: QContext) -> AdmissibleQuadruple:
    """A random admissible quadruple: two real same-interval pairs with
    alpha beta < q^2 gamma delta."""
    pair = draw_pair(rng, ctx, "complementary")
    g, d = pair.gamma.real, pair.delta.real
    q = ctx.q.q
    # push alpha, beta at least three q-steps deeper so the product
    # constraint holds with margin
    shift = int(rng.integers(3, 6))
    a = g * q ** shift
    b = d * q ** shift
    return validate_quadruple(a, b, g, d, ctx)


# ---------------------------------------------------------------------------
# the registry: each suite maps (rng, draws) to (check, worst residual)
# rows.  The acceptance gate runs theta, hyper, weierstrass, sums and
# projection on fixed seeds, so their draw order is part of its record.
# ---------------------------------------------------------------------------


def _rc(rng: np.random.Generator, lo: float, hi: float) -> complex:
    """Modulus uniform in [lo, hi), argument uniform in [0, 2 pi)."""
    return float(rng.uniform(lo, hi)) * cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))


def _suite_theta(rng, draws):
    worst = 0.0
    for _ in range(draws):
        q = QParam(float(rng.uniform(0.3, 0.9)))
        z = _rc(rng, 0.3, 2.0)
        th = theta(z, q).value
        # quasi-periodicity th(qz) = -th(z)/z and inversion th(q/z) = th(z)
        worst = max(worst, abs(theta(q.q * z, q).value + th / z)
                    / max(abs(th / z), RESIDUAL_FLOOR))
        worst = max(worst, abs(theta(q.q / z, q).value - th) / max(abs(th), RESIDUAL_FLOOR))
        # triple product theta3(w; q) = (q; q)_inf theta_q(-sqrt(q) w), scaled
        # by the all-positive terms: the sum itself can be far smaller
        lhs = theta3(z, q).value
        rhs = qpoch_inf(q.q, q).value * theta(-math.sqrt(q.q) * z, q).value
        scale = abs(theta3(abs(z), q).value)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), scale, RESIDUAL_FLOOR))
        # imaginary transformation at moderate q, where the series is well
        # conditioned, and away from the zeros of theta3 on the negative axis
        qm = QParam(float(rng.uniform(0.3, 0.55)))
        zi = float(rng.uniform(0.5, 1.5)) * cmath.exp(1j * float(rng.uniform(-2.2, 2.2)))
        li = theta3(zi, qm).value
        ri = jacobi_imaginary_rhs(zi, qm).value
        worst = max(worst, abs(li - ri) / max(abs(li), abs(ri), RESIDUAL_FLOOR))
    return [("theta_identities", worst)]


def _suite_theta_derivative(rng, draws):
    """theta' at a point of q^Z against a centered difference."""
    worst = 0.0
    for _ in range(draws):
        q = QParam(float(rng.uniform(0.3, 0.9)))
        zn = q.q ** int(rng.integers(-2, 3))
        h = 1e-6 * zn
        num = (theta(zn + h, q).value - theta(zn - h, q).value) / (2 * h)
        dv = theta_deriv(zn, q).value
        worst = max(worst, abs(num - dv) / max(abs(dv), RESIDUAL_FLOOR))
    return [("theta_derivative_fd", worst)]


def _suite_hyper(rng, draws):
    """The 2phi1 q-difference equation past |z| = 1 and the Heine and
    Watson transformations; ``draws`` counts successful draws of each."""
    worst_q = worst_h = worst_w = 0.0
    n_q = n_hw = 0
    while n_q < draws or n_hw < draws:
        q = QParam(float(rng.uniform(0.3, 0.8)))
        try:
            p = Phi21Params(_rc(rng, 0.2, 1.5), _rc(rng, 0.2, 1.5), _rc(rng, 0.3, 1.2), q)
        except DomainError:
            continue
        if n_q < draws:
            z = float(rng.uniform(1.2, 3.0)) * cmath.exp(
                1j * float(rng.uniform(0.05, 2 * math.pi - 0.05)))
            try:
                res, scale = qdiff_residual(p, z)
                worst_q = max(worst_q, res / max(scale, RESIDUAL_FLOOR))
                n_q += 1
            except ArithmeticError:
                pass
        if n_hw < draws:
            zs = _rc(rng, 0.1, 0.6)
            f = phi21(p, zs).value
            h = heine_rhs(p, zs).value
            worst_h = max(worst_h, abs(f - h) / max(abs(f), abs(h), RESIDUAL_FLOOR))
            zw = float(rng.uniform(1.2, 3.0)) * cmath.exp(
                1j * float(rng.uniform(0.05, 2 * math.pi - 0.05)))
            try:
                w = watson_rhs(p, zw).value
                fw = phi21(p, zw).value
                worst_w = max(worst_w, abs(fw - w) / max(abs(fw), abs(w), RESIDUAL_FLOOR))
            except (PoleError, DegeneracyError):
                pass
            n_hw += 1
    return [("qdiff_equation", worst_q),
            ("heine_transform", worst_h),
            ("watson_transform", worst_w)]


def _suite_weierstrass(rng, draws):
    worst = 0.0
    for i in range(draws):
        q = QParam(float(rng.uniform(0.3, 0.9)))
        X, Y, Z, W = (_rc(rng, 0.3, 2.0) for _ in range(4))
        if i % 10 == 0:
            Y = X  # specialization collapsing the right-hand side
        worst = max(worst, weierstrass_residual(X, Y, Z, W, q).rel_residual)
    return [("weierstrass_three_term", worst)]


def _suite_sums(rng, draws):
    worst_s = worst_l = 0.0
    for _ in range(draws):
        p = float(rng.uniform(0.3, 0.8))
        a = _rc(rng, p * 1.1, 0.9 / p)
        z = _rc(rng, 0.5, 1.5)
        worst_s = max(worst_s, ramanujan_sum_residual(a, z, p).rel_residual)
        z2 = _rc(rng, 1.05 * p, 0.95 / p)
        worst_l = max(worst_l, logderiv_sum_residual(z2, p).rel_residual)
    return [("bilateral_secant_sum", worst_s),
            ("bilateral_logderiv_sum", worst_l)]


def _suite_diagonal(rng, draws):
    worst = 0.0
    for _ in range(draws):
        ctx = draw_context(rng, q_range=(0.3, 0.8))
        c, d = sorted(rng.uniform(0.3, 1.2, size=2))
        if d - c > 0.03:
            rep = diagonal_identity_residual(float(c), float(d), ctx)
            worst = max(worst, rep.rel_residual)
    return [("diagonal_logderiv_product", worst)]


def _suite_fourier(rng, draws):
    """One frequency per pair; ``draws`` counts pairs."""
    worst_e = worst_t = 0.0
    for _ in range(draws):
        ctx = draw_context(rng, q_range=(0.3, 0.85))
        pair = draw_pair(rng, ctx)
        eta = float(rng.uniform(-math.pi, math.pi))
        worst_e = max(worst_e, fourier_equality_residual(eta, pair, ctx).rel_residual)
        worst_t = max(worst_t, trace_identity_residual(eta, pair, ctx).rel_residual)
    return [("fourier_three_route_equality", worst_e),
            ("fourier_trace_one", worst_t)]


def _suite_projection(rng, draws):
    """Ten frequencies per pair; ``draws`` counts pairs."""
    worst = dict.fromkeys(("hermitian_residual", "det_residual",
                           "trace_residual", "idempotent_residual"), 0.0)
    for _ in range(draws):
        ctx = draw_context(rng, q_range=(0.3, 0.85))
        pair = draw_pair(rng, ctx)
        for eta in rng.uniform(-math.pi, math.pi, size=10):
            rep = projection_report(float(eta), pair, ctx)
            for k in worst:
                worst[k] = max(worst[k], rep[k])
    return list(worst.items())


SUITES = {
    "theta": _suite_theta,
    "theta_derivative": _suite_theta_derivative,
    "hyper": _suite_hyper,
    "weierstrass": _suite_weierstrass,
    "sums": _suite_sums,
    "diagonal": _suite_diagonal,
    "fourier": _suite_fourier,
    "projection": _suite_projection,
}

THRESHOLDS = {
    "theta_identities": 1e-10,
    "theta_derivative_fd": 1e-8,
    "qdiff_equation": 1e-9,
    "heine_transform": 1e-8,
    "watson_transform": 1e-8,
    "weierstrass_three_term": 1e-10,
    "bilateral_secant_sum": 1e-8,
    "bilateral_logderiv_sum": 1e-8,
    "diagonal_logderiv_product": 1e-8,
    "fourier_three_route_equality": 1e-8,
    "fourier_trace_one": 1e-8,
    "hermitian_residual": 1e-10,
    "det_residual": 1e-10,
    "trace_residual": 1e-10,
    "idempotent_residual": 1e-9,
}


def apply_thresholds(rows) -> list[tuple[str, float, float, bool]]:
    """(check, worst residual) rows to (check, worst, threshold, passed)
    rows; a check passes when its worst residual is below its threshold."""
    return [(check, worst, THRESHOLDS[check], worst < THRESHOLDS[check])
            for check, worst in rows]
