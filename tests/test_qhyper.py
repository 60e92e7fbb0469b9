"""2phi1: series vs brute force, analytic continuation via the q-difference
equation, Heine and Watson transformations, pole and degeneracy handling."""

import cmath
import math

import numpy as np
import pytest

from qtail import (
    DegeneracyError,
    DomainError,
    Phi21Params,
    PoleError,
    QParam,
    heine_rhs,
    phi21,
    phi21_series,
    qdiff_residual,
    watson_rhs,
)


def brute_phi21(a1, a2, b, z, q, N=200):
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(N):
        total += term
        term *= (1 - a1 * q ** n) * (1 - a2 * q ** n) * z
        term /= (1 - b * q ** n) * (1 - q ** (n + 1))
    return total


def random_params(rng, q):
    def rc(lo=0.2, hi=1.5):
        return float(rng.uniform(lo, hi)) * cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
    return Phi21Params(rc(), rc(), rc(0.3, 1.2), q)


class TestSeries:
    def test_matches_brute_sum(self, rng):
        for _ in range(30):
            q = QParam(float(rng.uniform(0.2, 0.8)))
            p = random_params(rng, q)
            z = float(rng.uniform(0.05, 0.7)) * cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
            v = phi21_series(p, z).value
            b = brute_phi21(p.a1, p.a2, p.b, z, q.q)
            assert v == pytest.approx(b, rel=1e-11, abs=1e-13)

    def test_rejects_unit_disk_boundary(self):
        p = Phi21Params(0.3, 0.4, 0.5, QParam(0.5))
        with pytest.raises(DomainError):
            phi21_series(p, 1.0)

    def test_rejects_b_in_nonpositive_q_powers(self):
        q = QParam(0.5)
        with pytest.raises(DomainError):
            Phi21Params(0.3, 0.4, q.q ** -2, q)


class TestContinuation:
    def test_agrees_with_series_inside_disk(self):
        p = Phi21Params(0.3 + 0.1j, 0.5, 0.7, QParam(0.5))
        z = 0.4 - 0.2j
        assert phi21(p, z).value == pytest.approx(phi21_series(p, z).value, rel=1e-12)

    def test_qdiff_equation_beyond_disk(self, rng):
        for _ in range(30):
            q = QParam(float(rng.uniform(0.3, 0.8)))
            p = random_params(rng, q)
            z = float(rng.uniform(1.2, 3.0)) * cmath.exp(
                1j * float(rng.uniform(0.05, 2 * math.pi - 0.05)))
            res, scale = qdiff_residual(p, z)
            assert res <= 1e-9 * max(scale, 1e-30)

    def test_pole_exclusion(self):
        q = QParam(0.5)
        p = Phi21Params(0.3, 0.4, 0.6, q)
        with pytest.raises(PoleError):
            phi21(p, q.q ** -2 * (1.0 + 1e-9))


class TestHeine:
    def test_matches_direct(self, rng):
        for _ in range(30):
            q = QParam(float(rng.uniform(0.3, 0.8)))
            p = random_params(rng, q)
            z = float(rng.uniform(0.1, 0.6)) * cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
            f = phi21(p, z).value
            h = heine_rhs(p, z).value
            assert abs(f - h) <= 1e-9 * max(abs(f), abs(h), 1e-30)

    def test_a2_zero_limit(self):
        q = QParam(0.5)
        p = Phi21Params(0.4, 0.0, 0.7, q)
        z = 0.3
        f = phi21(p, z).value
        h = heine_rhs(p, z).value
        assert f == pytest.approx(h, rel=1e-10)


class TestWatson:
    def test_matches_direct_outside_disk(self, rng):
        checked = 0
        for _ in range(40):
            q = QParam(float(rng.uniform(0.3, 0.8)))
            p = random_params(rng, q)
            z = float(rng.uniform(1.2, 3.0)) * cmath.exp(
                1j * float(rng.uniform(0.05, 2 * math.pi - 0.05)))
            try:
                w = watson_rhs(p, z).value
            except (PoleError, DegeneracyError):
                continue
            f = phi21(p, z).value
            assert abs(f - w) <= 1e-9 * max(abs(f), abs(w), 1e-30)
            checked += 1
        assert checked >= 20

    def test_degenerate_ratio_raises(self):
        q = QParam(0.5)
        p = Phi21Params(0.3, 0.3 * q.q ** 2, 0.7, q)
        with pytest.raises(DegeneracyError):
            watson_rhs(p, 1.5)

    def test_rejects_z_zero(self):
        p = Phi21Params(0.3, 0.4, 0.7, QParam(0.5))
        with pytest.raises(DomainError):
            watson_rhs(p, 0.0)
