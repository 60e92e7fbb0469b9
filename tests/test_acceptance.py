"""Acceptance gate: eleven end-to-end criteria, each printing a single
PASS/FAIL line with its worst observed residual and time."""

import cmath
import math
import time
from collections import Counter

import numpy as np
from scipy import stats

from qtail import (
    LatticePoint,
    QContext,
    QParam,
    RegimeI,
    RegimeII,
    SampleConfig,
    Window,
    basic_kernel,
    closed_diag,
    correlation,
    elliptic_diag_contour,
    elliptic_kernel,
    exact_outcome_probabilities,
    sample_window,
    sine_limit_scan,
    tail_limit_scan,
    trig_limit_scan,
    validate_pair,
    validate_quadruple,
)
from qtail.kernels import _elliptic_direct
from qtail.verify import (
    SUITES,
    THRESHOLDS,
    apply_thresholds,
    draw_context,
    draw_pair,
    fourier_equality_residual,
)

import theta_reference
from conftest import DELTA_REF, GAMMA_REF, Q_REF, ZM_REF, ZP_REF


def _line(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({name}): {detail} [{time.time() - t0:.1f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _run(suite, seed, draws):
    """A registry suite on the gate's seed: the worst residual of each check,
    and whether every check is below its registry threshold."""
    rows = apply_thresholds(SUITES[suite](np.random.default_rng(seed), draws))
    return {check: worst for check, worst, _, _ in rows}, all(passed for *_, passed in rows)


def _t(check):
    """The registry threshold of ``check`` as the gate prints it (1e-9)."""
    return f"{THRESHOLDS[check]:.0e}".replace("e-0", "e-")


def test_criterion_01_theta_identities():
    t0 = time.time()
    worst, ok = _run("theta", 101, 100)
    elapsed_ok = time.time() - t0 < 5.0
    _line(1, "theta identities", ok and elapsed_ok,
          f"max residual {worst['theta_identities']:.3e} "
          f"(threshold {_t('theta_identities')}), 100 draws", t0)


def test_criterion_02_hypergeometric():
    t0 = time.time()
    worst, ok = _run("hyper", 102, 100)
    worst_hw = max(worst["heine_transform"], worst["watson_transform"])
    elapsed_ok = time.time() - t0 < 10.0
    _line(2, "2phi1 continuation and transforms", ok and elapsed_ok,
          f"q-difference {worst['qdiff_equation']:.3e} (<{_t('qdiff_equation')}), "
          f"Heine/Watson {worst_hw:.3e} (<{_t('heine_transform')})", t0)


def test_criterion_03_weierstrass():
    t0 = time.time()
    worst, ok = _run("weierstrass", 103, 100)
    elapsed_ok = time.time() - t0 < 5.0
    _line(3, "three-term theta relation", ok and elapsed_ok,
          f"max residual {worst['weierstrass_three_term']:.3e} "
          f"(threshold {_t('weierstrass_three_term')}), 100 draws", t0)


def test_criterion_04_summation_identities():
    t0 = time.time()
    worst, ok = _run("sums", 104, 100)
    elapsed_ok = time.time() - t0 < 10.0
    _line(4, "bilateral summation identities", ok and elapsed_ok,
          f"max residual {max(worst.values()):.3e} "
          f"(threshold {_t('bilateral_secant_sum')}), 100 draws", t0)


def test_criterion_05_fourier_three_routes():
    t0 = time.time()
    rng = np.random.default_rng(105)
    grid = np.linspace(-math.pi, math.pi, 257)
    worst = 0.0
    for _ in range(20):
        ctx = draw_context(rng, q_range=(0.3, 0.85))
        pair = draw_pair(rng, ctx)
        etas = list(grid) + list(rng.uniform(-math.pi, math.pi, size=50))
        for eta in etas:
            worst = max(worst, fourier_equality_residual(float(eta), pair, ctx).rel_residual)
    elapsed_ok = time.time() - t0 < 60.0
    ok = worst < THRESHOLDS["fourier_three_route_equality"]
    _line(5, "Fourier matrix route agreement", ok and elapsed_ok,
          f"max entrywise residual {worst:.3e} (threshold {_t('fourier_three_route_equality')}), "
          f"20 pairs x 307 frequencies", t0)


def test_criterion_06_projection_structure():
    t0 = time.time()
    worst, ok = _run("projection", 106, 20)
    elapsed_ok = time.time() - t0 < 30.0
    _line(6, "rank-one projection structure", ok and elapsed_ok,
          "herm {hermitian_residual:.1e} det {det_residual:.1e} "
          "trace {trace_residual:.1e} idem {idempotent_residual:.1e}".format(**worst), t0)


def test_criterion_07_tail_limit():
    t0 = time.time()
    rng = np.random.default_rng(107)
    worst_err = 0.0
    worst_ratio = 1.0
    for _ in range(20):
        ctx = draw_context(rng, q=0.5)
        # quadruple in the base q-interval so theta magnitudes stay inside
        # the double range at depth M + k
        anchor = ctx.zeta_plus if rng.random() < 0.5 else ctx.zeta_minus
        t1 = float(rng.uniform(0.1, 0.45))
        # gap capped at 0.5: the decay rate is q^(1 + gap/2) and the
        # 40-step budget needs it comfortably below 2^(-1/2)
        t2 = t1 + float(rng.uniform(0.05, 0.5))
        g = 0.5 ** t1 / anchor
        d = 0.5 ** t2 / anchor
        quad = validate_quadruple(g * 0.5 ** 3, d * 0.5 ** 3, g, d, ctx)
        sx = 1 if rng.random() < 0.7 else -1
        sy = 1 if rng.random() < 0.7 else -1
        kx = int(rng.integers(0, 3))
        ky = int(rng.integers(0, 3))
        if (sx, kx) == (sy, ky):
            ky += 1
        scan = dict(tail_limit_scan(LatticePoint(sx, kx), LatticePoint(sy, ky),
                                    quad, ctx, 40))
        worst_err = max(worst_err, scan[40])
        g, d = abs(quad.gamma), abs(quad.delta)
        theo = max(math.sqrt(0.25 * g / d), math.sqrt(0.25 * d / g))
        if scan[35] > 0 and scan[20] > 0:
            obs = (scan[35] / scan[20]) ** (1.0 / 15.0)
            ratio = obs / theo
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
    ok = worst_err < 1e-6 and worst_ratio < 2.0
    elapsed_ok = time.time() - t0 < 120.0
    _line(7, "tail depth limit", ok and elapsed_ok,
          f"terminal error {worst_err:.3e} (<1e-6), "
          f"rate off by factor {worst_ratio:.2f} (<2)", t0)


def test_criterion_08_q_to_one_scans():
    t0 = time.time()
    rng = np.random.default_rng(108)
    decreasing = 0
    total = 0
    worst_trig = worst_sine = 0.0
    for _ in range(20):
        c, d = sorted(rng.uniform(0.1, 0.9, size=2))
        if d - c < 0.05 or abs((d - c) - round(d - c)) < 1e-3:
            d = min(0.92, c + 0.3)
        reg = RegimeII(c=float(c), d=float(d))
        i = int(rng.integers(1, 3))
        j = int(rng.integers(1, 3))
        u = float(rng.uniform(-0.6, 0.6))
        v = float(rng.uniform(-0.6, 0.6))
        # the monotonicity count uses the target snapped to the lattice
        # coordinates (floor effects allowed); the terminal threshold is
        # checked on the fixed-coordinate error
        errs = [e for _, e in trig_limit_scan(u, v, i, j, reg, snap_target=True)]
        total += 1
        if all(a > b for a, b in zip(errs, errs[1:])) or max(errs) < 1e-9:
            decreasing += 1
        worst_trig = max(worst_trig, trig_limit_scan(u, v, i, j, reg)[-1][1])
    for _ in range(20):
        reg = RegimeI(phi=float(rng.uniform(0.3, math.pi - 0.3)))
        m = int(rng.integers(0, 4))
        n = int(rng.integers(0, 4))
        sign = 1 if rng.random() < 0.5 else -1
        errs = [e for _, e in sine_limit_scan(m, n, sign, reg)]
        total += 1
        if all(a > b for a, b in zip(errs, errs[1:])) or max(errs) < 1e-9:
            decreasing += 1
        worst_sine = max(worst_sine, errs[-1])
    ok = (decreasing >= math.ceil(0.95 * total)
          and worst_trig < 0.05 and worst_sine < 0.02)
    elapsed_ok = time.time() - t0 < 300.0
    _line(8, "q->1 limit scans", ok and elapsed_ok,
          f"{decreasing}/{total} strictly decreasing (need >=95%), "
          f"terminal trig {worst_trig:.3e} (<0.05), sine {worst_sine:.3e} (<0.02)", t0)


def test_criterion_09_diffuseness():
    t0 = time.time()
    rng = np.random.default_rng(109)
    diag_ok = True
    min_period_sum = math.inf
    for _ in range(100):
        ctx = draw_context(rng, q_range=(0.5, 0.9))
        # generic admissible pairs away from the degenerate edges, where
        # the branch diagonals legitimately approach 0 or 1
        if rng.random() < 0.5:
            rho = float(rng.uniform(0.6, 1.1))
            phi = float(rng.uniform(0.5, math.pi - 0.5))
            pair = validate_pair(rho * cmath.exp(1j * phi),
                                 rho * cmath.exp(-1j * phi), ctx)
        else:
            anchor = ctx.zeta_plus if rng.random() < 0.5 else ctx.zeta_minus
            t1 = float(rng.uniform(0.2, 0.5))
            t2 = t1 + float(rng.uniform(0.1, 0.25))
            pair = validate_pair(ctx.q.q ** t1 / anchor, ctx.q.q ** t2 / anchor, ctx)
        dp = closed_diag(1, pair, ctx).value.real
        dm = closed_diag(-1, pair, ctx).value.real
        diag_ok = diag_ok and 0.0 < dp < 1.0 and 0.0 < dm < 1.0
        period_sum = min(dp, 1.0 - dp) + min(dm, 1.0 - dm)
        min_period_sum = min(min_period_sum, period_sum)
    ctx = QContext(QParam(Q_REF), ZP_REF, ZM_REF)
    shift = Q_REF ** 3
    quad = validate_quadruple(GAMMA_REF * shift, DELTA_REF * shift,
                              GAMMA_REF, DELTA_REF, ctx)
    basic_ok = True
    for k in (20, 30, 40):
        v = basic_kernel(LatticePoint(1, k), LatticePoint(1, k), quad, ctx).value.real
        basic_ok = basic_ok and 0.01 < v < 0.99
    ok = diag_ok and min_period_sum > 0.01 and basic_ok
    elapsed_ok = time.time() - t0 < 60.0
    _line(9, "diffuseness", ok and elapsed_ok,
          f"diagonals in (0,1) for 100 pairs, per-period mass >= {min_period_sum:.3e} "
          f"(>0.01), deep diagonals in [0.01, 0.99]", t0)


def test_criterion_10_sampler_statistics():
    t0 = time.time()
    ctx = QContext(QParam(Q_REF), ZP_REF, ZM_REF)
    pair = validate_pair(GAMMA_REF, DELTA_REF, ctx)

    def kern(x, y):
        return elliptic_kernel(x, y, pair, ctx).value

    pts = (LatticePoint(1, 0), LatticePoint(1, 1), LatticePoint(-1, 0), LatticePoint(-1, 1))
    window = Window(pts)
    n = 100_000
    samples = sample_window(window, kern, SampleConfig(n, seed=2026))
    counts = Counter(samples)
    moments_ok = True
    for i in range(4):
        p = correlation([pts[i]], kern)
        freq = sum(1 for s in samples if i in s) / n
        sigma = math.sqrt(p * (1 - p) / n)
        moments_ok = moments_ok and abs(freq - p) < 3.0 * sigma
        for j in range(i + 1, 4):
            p2 = correlation([pts[i], pts[j]], kern)
            freq2 = sum(1 for s in samples if i in s and j in s) / n
            sigma2 = math.sqrt(max(p2 * (1 - p2), 1e-12) / n)
            moments_ok = moments_ok and abs(freq2 - p2) < 3.0 * sigma2
    probs = exact_outcome_probabilities(pts, kern)
    obs, exp = [], []
    pool_o = pool_e = 0.0
    for S, p in sorted(probs.items()):
        e = n * max(p, 0.0)
        o = counts.get(S, 0)
        if e < 5.0:
            pool_o += o
            pool_e += e
        else:
            obs.append(o)
            exp.append(e)
    if pool_e > 0:
        obs.append(pool_o)
        exp.append(pool_e)
    exp = np.array(exp) * (n / sum(exp))
    chi2 = float(np.sum((np.array(obs) - exp) ** 2 / exp))
    pval = float(stats.chi2.sf(chi2, df=len(exp) - 1))
    ok = moments_ok and pval > 0.001
    elapsed_ok = time.time() - t0 < 60.0
    _line(10, "determinantal sampler", ok and elapsed_ok,
          f"first/second moments within 3 sigma, chi-squared p = {pval:.3f} (>0.001), "
          f"{n} samples", t0)


def test_criterion_11_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(111)
    worst_cd = 0.0
    for _ in range(50):
        ctx = draw_context(rng, q_range=(0.35, 0.8))
        pair = draw_pair(rng, ctx)
        sx = 1 if rng.random() < 0.5 else -1
        sy = 1 if rng.random() < 0.5 else -1
        kx = int(rng.integers(-3, 4))
        ky = int(rng.integers(-3, 4))
        if (sx, kx) == (sy, ky):
            ky += 1
        x, y = LatticePoint(sx, kx), LatticePoint(sy, ky)
        closed = elliptic_kernel(x, y, pair, ctx).value
        direct = _elliptic_direct(x.value(ctx), y.value(ctx), pair, ctx)
        worst_cd = max(worst_cd, abs(closed - direct) / max(1.0, abs(closed)))
    worst_diag = 0.0
    for _ in range(10):
        ctx = draw_context(rng, q_range=(0.35, 0.8))
        pair = draw_pair(rng, ctx, "complementary")
        for sign in (1, -1):
            cont = elliptic_diag_contour(LatticePoint(sign, 0), pair, ctx).value
            cd = closed_diag(sign, pair, ctx).value
            worst_diag = max(worst_diag, abs(cont - cd) / max(1.0, abs(cd)))
    worst_eq = 0.0
    ctx = QContext(QParam(Q_REF), ZP_REF, ZM_REF)
    eps = 1e-6
    pts = [(1, 0), (1, 2), (-1, 0), (-1, 1)]
    xs = [LatticePoint(*a).value(ctx) for a in pts]
    equal = theta_reference.kernel_matrix(xs, GAMMA_REF, GAMMA_REF, Q_REF, ZP_REF, ZM_REF)
    for i, a in enumerate(pts):
        for j in range(i, len(pts)):
            x, y = LatticePoint(*a), LatticePoint(*pts[j])
            pert = elliptic_kernel(
                x, y, validate_pair(GAMMA_REF, GAMMA_REF * (1 + eps), ctx), ctx).value
            worst_eq = max(worst_eq, abs(equal[i][j] - pert) / max(1.0, abs(equal[i][j])))
    ok = worst_cd < 1e-9 and worst_diag < 1e-9 and worst_eq < 1e-4
    elapsed_ok = time.time() - t0 < 30.0
    _line(11, "closed-form cross-checks", ok and elapsed_ok,
          f"closed vs direct {worst_cd:.3e} (<1e-9), contour diag {worst_diag:.3e} "
          f"(<1e-9), equal-parameter limit {worst_eq:.3e} (<1e-4)", t0)
