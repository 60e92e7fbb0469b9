"""Determinantal sampling: window validation, correlation functions, the
exact outcome oracle, statistical agreement of the sampler, and draw-for-draw
agreement of its Schur-update projection step with an orthonormal-basis one."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from qtail import (
    DomainError,
    LatticePoint,
    QContext,
    QParam,
    SampleConfig,
    Window,
    correlation,
    elliptic_kernel,
    exact_outcome_probabilities,
    kernel_matrix,
    sample_window,
    validate_pair,
)
from qtail.dpp import MAX_WINDOW, _validated_eigh


@pytest.fixture
def kern(ctx, pair):
    def k(x, y):
        return elliptic_kernel(x, y, pair, ctx).value
    return k


@pytest.fixture
def window4(ctx):
    return Window(tuple(LatticePoint(s, k) for s in (1, -1) for k in (0, 1)))


class TestWindow:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Window(())

    def test_rejects_duplicates(self, ctx):
        with pytest.raises(DomainError):
            Window((LatticePoint(1, 0), LatticePoint(1, 0)))

    def test_rejects_oversize(self, ctx):
        pts = tuple(LatticePoint(1, k) for k in range(65))
        with pytest.raises(DomainError):
            Window(pts)


class TestSampleConfig:
    def test_rejects_nonpositive_draws(self):
        with pytest.raises(DomainError):
            SampleConfig(n_samples=0, seed=1)


class TestCorrelations:
    def test_single_point_in_unit_interval(self, ctx, kern):
        for sign in (1, -1):
            r = correlation([LatticePoint(sign, 0)], kern)
            assert 0.0 < r < 1.0

    def test_matrix_hermitian_with_eigs_in_unit_interval(self, window4, kern):
        K = kernel_matrix(window4.points, kern)
        assert np.max(np.abs(K - K.conj().T)) < 1e-10
        lam = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
        assert lam.min() > -1e-10 and lam.max() < 1.0 + 1e-10

    def test_two_point_negative_association(self, ctx, kern):
        # determinantal processes are negatively associated:
        # rho_2(x, y) <= rho_1(x) rho_1(y)
        x, y = LatticePoint(1, 0), LatticePoint(1, 1)
        r2 = correlation([x, y], kern)
        assert r2 <= correlation([x], kern) * correlation([y], kern) + 1e-12

    def test_rho1_star_profile_positive(self, window4, kern):
        # min(rho_1, 1 - rho_1), the per-point term of the diffuseness series,
        # on both branch anchors and the next point on each branch
        prof = [min(r, 1.0 - r) for r in (correlation([x], kern) for x in window4.points)]
        assert len(prof) == 4
        assert all(0.0 < v <= 0.5 for v in prof)


class TestExactOracle:
    def test_probabilities_sum_to_one(self, window4, kern):
        probs = exact_outcome_probabilities(window4.points, kern)
        assert len(probs) == 16
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(p > -1e-12 for p in probs.values())

    def test_marginals_recover_correlations(self, window4, kern):
        probs = exact_outcome_probabilities(window4.points, kern)
        for i in range(4):
            marg = sum(p for S, p in probs.items() if i in S)
            assert marg == pytest.approx(correlation([window4.points[i]], kern), abs=1e-10)

    def test_two_point_outcomes_from_correlations(self, ctx, kern):
        # inclusion-exclusion written out by hand for n = 2
        pts = [LatticePoint(1, 0), LatticePoint(-1, 1)]
        K = kernel_matrix(pts, kern)
        k00, k11 = K[0, 0].real, K[1, 1].real
        det = correlation(pts, kern)
        probs = exact_outcome_probabilities(pts, kern)
        assert set(probs) == {(), (0,), (1,), (0, 1)}
        assert probs[()] == pytest.approx(1.0 - k00 - k11 + det, abs=1e-13)
        assert probs[(0,)] == pytest.approx(k00 - det, abs=1e-13)
        assert probs[(1,)] == pytest.approx(k11 - det, abs=1e-13)
        assert probs[(0, 1)] == pytest.approx(det, abs=1e-13)

    def test_kernel_above_identity_gives_negative_probability(self, ctx):
        # K = 1.5 on one point: P(empty) = 1 - 1.5, kept signed
        probs = exact_outcome_probabilities([LatticePoint(1, 0)], lambda x, y: 1.5)
        assert probs == pytest.approx({(): -0.5, (0,): 1.5}, abs=1e-15)

    def test_rejects_large_window(self, ctx, kern):
        pts = [LatticePoint(1, k) for k in range(13)]
        with pytest.raises(DomainError):
            exact_outcome_probabilities(pts, kern)


class TestSampler:
    def test_reproducible_per_seed(self, window4, kern):
        a = sample_window(window4, kern, SampleConfig(50, seed=9))
        b = sample_window(window4, kern, SampleConfig(50, seed=9))
        assert a == b
        c = sample_window(window4, kern, SampleConfig(50, seed=10))
        assert a != c

    def test_sample_prefix_stable_in_count(self, window4, kern):
        # sample s depends only on (seed, s), so growing the count keeps
        # the earlier samples
        a = sample_window(window4, kern, SampleConfig(20, seed=3))
        b = sample_window(window4, kern, SampleConfig(40, seed=3))
        assert b[:20] == a

    def test_outcome_frequencies_match_oracle(self, window4, kern):
        n = 20000
        samples = sample_window(window4, kern, SampleConfig(n, seed=12345))
        counts = Counter(samples)
        probs = exact_outcome_probabilities(window4.points, kern)
        # chi-squared over the 16 outcomes, pooling tiny cells
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
        pval = stats.chi2.sf(chi2, df=len(exp) - 1)
        assert pval > 0.001

    def test_first_moment_within_three_sigma(self, window4, kern):
        n = 20000
        samples = sample_window(window4, kern, SampleConfig(n, seed=777))
        for i, pt in enumerate(window4.points):
            p = correlation([pt], kern)
            freq = sum(1 for s in samples if i in s) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 4.0 * sigma

    def test_rejects_non_hermitian_kernel(self, window4):
        with pytest.raises(ArithmeticError):
            sample_window(window4, lambda x, y: complex(x.k - y.k), SampleConfig(1, seed=0))


class TestNonFiniteKernel:
    """A nan or inf kernel entry raises; it used to give empty samples, a nan
    correlation and nan probabilities without an error."""

    @pytest.mark.parametrize("kernel", [
        lambda x, y: math.nan,
        lambda x, y: 0.5 if x == y else complex(0.1, math.inf),
    ], ids=["nan", "inf_off_diagonal"])
    @pytest.mark.parametrize("call", [
        lambda pts, k: sample_window(Window(pts), k, SampleConfig(3, seed=0)),
        correlation,
        exact_outcome_probabilities,
    ], ids=["sample_window", "correlation", "exact_outcome_probabilities"])
    def test_raises(self, ctx, call, kernel):
        with pytest.raises(ArithmeticError, match="non-finite"):
            call((LatticePoint(1, 0), LatticePoint(1, 1)), kernel)


def _basis_reference(window, kernel, cfg):
    """The sampler with the projection step on an orthonormal basis of the
    selected eigenvectors: at each drawn point, delete the pivot column,
    project the point out of the others and re-orthonormalize by QR."""
    lam, V = _validated_eigh(kernel_matrix(window.points, kernel))
    n = len(window)
    out = []
    for s in range(cfg.n_samples):
        rng = np.random.default_rng([cfg.seed, s])
        keep = rng.random(lam.shape[0]) < lam
        B = V[:, keep]
        chosen = []
        while B.shape[1] > 0:
            probs = np.sum(np.abs(B) ** 2, axis=1).real / B.shape[1]
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            i = int(rng.choice(n, p=probs))
            chosen.append(i)
            row = B[i, :]
            j0 = int(np.argmax(np.abs(row)))
            piv = B[:, j0].copy()
            pr = row[j0]
            B = np.delete(B, j0, axis=1)
            B = B - np.outer(piv, B[i, :] / pr)
            if B.shape[1] > 0:
                B, _ = np.linalg.qr(B)
        out.append(tuple(sorted(chosen)))
    return out


def _principal_kernel(q):
    ctx = QContext(QParam(q), 1.3, -0.55)
    g = 0.8 * complex(np.cos(1.1), np.sin(1.1))
    pair = validate_pair(g, g.conjugate(), ctx)
    return ctx, lambda x, y: elliptic_kernel(x, y, pair, ctx).value


class TestSamplerMatchesBasisReference:
    def _assert_same(self, window, kernel, cfg):
        got = sample_window(window, kernel, cfg)
        assert got == _basis_reference(window, kernel, cfg)
        return got

    def test_conftest_window(self, window4, kern):
        self._assert_same(window4, kern, SampleConfig(1000, seed=2026))

    def test_principal_window(self):
        ctx, kern = _principal_kernel(0.85)
        window = Window(tuple(LatticePoint(s, k) for s in (1, -1) for k in range(6)))
        self._assert_same(window, kern, SampleConfig(300, seed=85))

    def test_full_window(self):
        ctx, kern = _principal_kernel(0.9)
        ks = range(-MAX_WINDOW // 4, MAX_WINDOW // 4)
        window = Window(tuple(LatticePoint(s, k) for s in (1, -1) for k in ks))
        got = self._assert_same(window, kern, SampleConfig(40, seed=90))
        assert np.mean([len(s) for s in got]) > 16

    @pytest.mark.parametrize("kernel, draw", [(lambda x, y: 0.0, ()),
                                              (lambda x, y: float(x == y), (0, 1, 2, 3))],
                             ids=["zero", "identity"])
    def test_degenerate_kernel(self, window4, kernel, draw):
        got = self._assert_same(window4, kernel, SampleConfig(50, seed=1))
        assert got == [draw] * 50
