"""The raw loops of ``qtail._core``: each product loop refuses up front a
truncation that would take more than ``_MAX_ITER`` factors, each series
raises once it has taken ``_MAX_TERMS`` terms without converging, and
``theta_dd_raw`` on arrays agrees with its scalar calls."""

import cmath

import numpy as np
import pytest

from qtail import LatticePoint, QContext, QParam, elliptic_diag_contour, validate_pair
from qtail._core import (
    phi21_b_zero_raw,
    phi21_raw,
    qpoch_raw,
    theta3_raw,
    theta_dd_raw,
)
from qtail.qspecial import _log_qpoch

# about 3.45e6 factors down to CUT, past the 2e6 cap
Q_NEAR_ONE = 1.0 - 1e-5

PRODUCT_LOOPS = {
    "qpoch": lambda: qpoch_raw(0.5 + 0.1j, Q_NEAR_ONE),
    "logqpoch": lambda: _log_qpoch(0.5 + 0.1j, QParam(Q_NEAR_ONE)),
    "theta_dd": lambda: theta_dd_raw(0.5 + 0.1j, 0.7, 0.6, Q_NEAR_ONE),
    "theta_dd_array": lambda: theta_dd_raw(np.array([0.5 + 0.1j, 0.9]), np.array([0.7, 0.8j]),
                                           0.6, Q_NEAR_ONE),
}


@pytest.mark.parametrize("name", PRODUCT_LOOPS)
def test_product_loop_raises_beyond_iteration_cap(name):
    with pytest.raises(ArithmeticError):
        PRODUCT_LOOPS[name]()


SERIES_LOOPS = {
    # |z| so close to 1 that the terms stay above CUT for ~3.5e6 terms
    "phi21": lambda: phi21_raw(0.5, 0.5, 0.3, 0.99999, 0.5),
    # the terms grow like x^n / n! with x = 1e-3 / (1 - q) = 1e6
    "phi21_b_zero": lambda: phi21_b_zero_raw(1e-3, 0.0, 0.0, 1.0 - 1e-9),
    # q^{n^2/2} stays above 1e-4 up to n ~ 4e6
    "theta3": lambda: theta3_raw(1.0, 1.0 - 1e-12),
}


@pytest.mark.parametrize("name", SERIES_LOOPS)
def test_series_loop_raises_beyond_term_cap(name):
    with pytest.raises(ArithmeticError):
        SERIES_LOOPS[name]()


def test_contour_diagonal_raises_beyond_iteration_cap():
    ctx = QContext(QParam(Q_NEAR_ONE), 1.0, -1.0)
    g = 0.8 * cmath.exp(1.1j)
    pair = validate_pair(g, g.conjugate(), ctx)
    with pytest.raises(ArithmeticError):
        elliptic_diag_contour(LatticePoint(1, 2), pair, ctx)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("gamma, delta, x", [
    (0.8 * cmath.exp(1.1j), 0.8 * cmath.exp(-1.1j), 0.5 ** 0.3),
    (0.8 * cmath.exp(1.1j), 0.8 * cmath.exp(-1.1j), -1.7),
    (0.6, 0.45, 0.9),
])
def test_theta_dd_on_a_ring_matches_scalar_calls(q, gamma, delta, x):
    """One array call over a contour ring's new nodes, as the contour
    diagonal makes it, gives each node's scalar values to 1e-13 relative
    (the array loop runs as many factors as its widest node needs)."""
    z = x + 0.2 * abs(x) * np.exp(2j * np.pi * np.arange(1, 128, 2) / 128)
    got = theta_dd_raw(z * delta, z * gamma, x * gamma, q)
    for j, zj in enumerate(z.tolist()):
        want = theta_dd_raw(zj * delta, zj * gamma, x * gamma, q)
        for g, w in zip(got, want):
            assert abs(g[j] - w) <= 1e-13 * abs(w)


def test_theta_dd_scalar_call_returns_python_complex():
    assert [type(v) for v in theta_dd_raw(0.5 + 0.1j, 0.7 - 0.2j, 0.6 + 0.05j, 0.5)] == [complex] * 3
