"""Determinantal point processes driven by the lattice kernels.

A kernel restricted to a finite window of lattice points gives a Hermitian
matrix with eigenvalues in [0, 1]; ``correlation`` evaluates determinantal
correlation functions, ``sample_window`` draws exact samples by the
eigendecomposition method (select eigenvectors by independent Bernoulli
trials, then sample the resulting projection process point by point,
conditioning its kernel on each drawn point by a rank-one Schur update), and
``exact_outcome_probabilities`` gives the probability of every outcome of
a small window, one determinant per outcome, as an independent oracle.

Randomness: each sample uses ``np.random.default_rng([seed, index])`` so
any single sample can be reproduced in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .kernels import LatticePoint
from .qspecial import DomainError

__all__ = [
    "Window",
    "SampleConfig",
    "kernel_matrix",
    "correlation",
    "sample_window",
    "exact_outcome_probabilities",
]

MAX_WINDOW = 64
MAX_EXACT_WINDOW = 12
IMAG_RESIDUE = 1e-9
EIG_HARD_BAND = 1e-8

Kernel = Callable[[LatticePoint, LatticePoint], complex]


@dataclass(frozen=True)
class Window:
    points: tuple[LatticePoint, ...]

    def __post_init__(self):
        if not self.points:
            raise DomainError("window must be nonempty")
        if len(self.points) > MAX_WINDOW:
            raise DomainError(f"window limited to {MAX_WINDOW} points")
        if len(set(self.points)) != len(self.points):
            raise DomainError("window points must be distinct")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SampleConfig:
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples <= 0:
            raise DomainError("n_samples must be positive")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")


def kernel_matrix(points: Sequence[LatticePoint], kernel: Kernel) -> np.ndarray:
    n = len(points)
    K = np.empty((n, n), dtype=complex)
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            K[i, j] = kernel(x, y)
    if not np.isfinite(K).all():
        raise ArithmeticError("kernel matrix has a non-finite entry")
    return K


def correlation(points: Sequence[LatticePoint], kernel: Kernel) -> float:
    """rho(x_1..x_n) = det[K(x_i, x_j)]; must come out real."""
    det = complex(np.linalg.det(kernel_matrix(points, kernel)))
    if abs(det.imag) > IMAG_RESIDUE * max(1.0, abs(det)):
        raise ArithmeticError(f"correlation has imaginary residue {det.imag:.3e}")
    return float(det.real)


def _validated_eigh(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    herm = float(np.max(np.abs(K - K.conj().T)))
    if herm > 1e-8 * max(1.0, float(np.max(np.abs(K)))):
        raise ArithmeticError(f"kernel matrix not Hermitian (defect {herm:.3e})")
    lam, V = np.linalg.eigh(0.5 * (K + K.conj().T))
    if np.any(lam < -EIG_HARD_BAND) or np.any(lam > 1.0 + EIG_HARD_BAND):
        raise ArithmeticError("kernel eigenvalues leave [0, 1] beyond tolerance")
    return np.clip(lam, 0.0, 1.0), V


def sample_window(window: Window, kernel: Kernel, cfg: SampleConfig) -> list[tuple[int, ...]]:
    """Exact samples of the determinantal process on the window.

    Each draw keeps eigenvector j with probability lambda_j and forms the
    projection P onto the kept ones.  It then draws k = rank P points: point
    i with probability P_ii / (number left), after which P <- P - P[:, i]
    P[i, :] / P_ii, the kernel of the projection process conditioned on a
    point at i.  A pivot P_ii near 0 is drawn with probability near 0.

    Returns, per sample, the sorted tuple of selected point indices.
    """
    K = kernel_matrix(window.points, kernel)
    lam, V = _validated_eigh(K)
    out = []
    for s in range(cfg.n_samples):
        rng = np.random.default_rng([cfg.seed, s])
        keep = rng.random(lam.shape[0]) < lam
        P = V[:, keep] @ V[:, keep].conj().T  # projection onto the selected eigenvectors
        chosen: list[int] = []
        for _ in range(int(keep.sum())):
            probs = np.clip(P.diagonal().real, 0.0, None)
            # the draw rng.choice(len(probs), p=probs / probs.sum()) makes,
            # without its checks of p: one uniform against the cumulative sum
            cdf = np.cumsum(probs / probs.sum())
            cdf /= cdf[-1]
            i = int(cdf.searchsorted(rng.random(), side="right"))
            chosen.append(i)
            # condition on a point at i: Schur complement of the pivot P_ii
            P = P - np.outer(P[:, i], P[i, :] / P[i, i])
        out.append(tuple(sorted(chosen)))
    return out


def exact_outcome_probabilities(points: Sequence[LatticePoint],
                                kernel: Kernel) -> dict[tuple[int, ...], float]:
    """P(configuration = S) for every subset S of a small window.

    P(X = S) = (-1)^{|S^c|} det(K - I_{S^c}), where I_{S^c} is the identity
    on the points outside S: one n x n determinant per outcome.  The signed
    real part is returned, so a kernel outside 0 <= K <= I shows up as
    negative probabilities.
    """
    n = len(points)
    if n > MAX_EXACT_WINDOW:
        raise DomainError(f"exact enumeration limited to {MAX_EXACT_WINDOW} points")
    K = kernel_matrix(points, kernel)
    subsets = [S for r in range(n + 1) for S in combinations(range(n), r)]
    outside = np.ones((len(subsets), n))
    for k, S in enumerate(subsets):
        outside[k, list(S)] = 0.0
    dets = np.linalg.det(K - outside[:, :, None] * np.eye(n))
    signs = (-1.0) ** outside.sum(axis=1)
    return {S: float((sign * det).real) for S, sign, det in zip(subsets, signs, dets)}
