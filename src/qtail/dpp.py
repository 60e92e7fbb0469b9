"""Determinantal point processes driven by the lattice kernels.

A kernel restricted to a finite window of lattice points gives a Hermitian
matrix with eigenvalues in [0, 1]; ``correlation`` evaluates determinantal
correlation functions, ``sample_window`` draws exact samples by the
eigendecomposition method of Hough, Krishnapur, Peres and Virag (Probab.
Surveys 3, 2006) (select eigenvectors by independent Bernoulli
trials, then sample the resulting projection process point by point,
conditioning its kernel on each drawn point by a rank-one Schur update), and
``exact_outcome_probabilities`` gives the probability of every outcome of
a small window, one determinant per outcome, as an independent oracle.
The sampler runs that chain over blocks of draws at once, and each draw is
bitwise the one the method gives when run for that draw alone.

Randomness: each sample uses ``np.random.default_rng([seed, index])`` so
any single sample can be reproduced in isolation.
"""

from __future__ import annotations

import math
import operator
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
# draws per block of the batched chain: its (draws, n, n) arrays stay a few
# MiB at MAX_WINDOW points, whatever the number of samples
BLOCK_DRAWS = 64

Kernel = Callable[[LatticePoint, LatticePoint], complex]


@dataclass(frozen=True)
class Window:
    points: tuple[LatticePoint, ...]

    def __post_init__(self):
        if not self.points:
            raise DomainError("window must be nonempty")
        if not all(isinstance(x, LatticePoint) for x in self.points):
            raise DomainError("window points must be LatticePoints")
        if len(self.points) > MAX_WINDOW:
            raise DomainError(f"window limited to {MAX_WINDOW} points")
        if len(set(self.points)) != len(self.points):
            raise DomainError("window points must be distinct")

    def __len__(self) -> int:
        return len(self.points)


def _is_integer(value) -> bool:
    """True for an int or a NumPy integer; False for a bool or a non-integer."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


@dataclass(frozen=True)
class SampleConfig:
    n_samples: int
    seed: int

    def __post_init__(self):
        for name in ("n_samples", "seed"):
            if not _is_integer(getattr(self, name)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
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

    The chain runs for ``BLOCK_DRAWS`` draws at once, with the same
    arithmetic on each draw as one run by itself, so every draw is that of
    the per-draw method.  A draw takes no step after its rank is reached.

    Returns, per sample, the sorted tuple of selected point indices.
    """
    K = kernel_matrix(window.points, kernel)
    lam, V = _validated_eigh(K)
    n = lam.shape[0]
    out: list[tuple[int, ...]] = []
    for start in range(0, cfg.n_samples, BLOCK_DRAWS):
        draws = range(start, min(start + BLOCK_DRAWS, cfg.n_samples))
        # per draw, n uniforms choose the eigenvectors, then one per point
        U = np.array([np.random.default_rng([cfg.seed, s]).random(2 * n) for s in draws])
        keep = U[:, :n] < lam
        rank = keep.sum(1)
        # by rank, descending: the draws still running are a prefix
        order = np.argsort(-rank, kind="stable")
        masks, which = np.unique(keep[order], axis=0, return_inverse=True)
        # reshape: NumPy 2.0.0 returns the inverse as a column
        P = np.array([V[:, m] @ V[:, m].conj().T for m in masks])[which.reshape(-1)]
        drawn = np.zeros_like(keep)
        for t in range(int(rank.max())):
            a = int(np.count_nonzero(rank > t))
            Pa, r = P[:a], np.arange(a)
            probs = np.clip(np.diagonal(Pa, axis1=1, axis2=2).real, 0.0, None)
            # the draw rng.choice(n, p=probs / probs.sum()) makes, without
            # its checks of p: one uniform against the cumulative sum
            cdf = np.cumsum(probs / probs.sum(1, keepdims=True), axis=1)
            cdf /= cdf[:, -1:]
            i = (cdf <= U[order[:a], n + t, None]).sum(1)  # searchsorted(side="right")
            drawn[order[:a], i] = True
            # condition on a point at i: Schur complement of the pivot P_ii
            Pa -= Pa[r, :, i][:, :, None] * (Pa[r, i, :] / Pa[r, i, i][:, None])[:, None, :]
        # row by row, each row's drawn points in increasing order
        points = np.nonzero(drawn)[1].tolist()
        ends = np.cumsum(rank).tolist()
        out.extend(tuple(points[e - k:e]) for e, k in zip(ends, rank.tolist()))
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
