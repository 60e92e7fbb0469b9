"""The raw loops of ``qtail._core``: each product loop refuses up front a
truncation that would take more than ``_MAX_ITER`` factors, and each series
raises once it has taken ``_MAX_TERMS`` terms without converging."""

import cmath

import pytest

from qtail import QContext, QParam, elliptic_diag_contour, validate_pair
from qtail._core import (
    logqpoch_raw,
    phi21_b_zero_raw,
    phi21_raw,
    qpoch_raw,
    theta3_raw,
    theta_dd_raw,
    theta_ratio_dd_raw,
    zlogderiv_dd_raw,
)

# about 3.45e6 factors down to CUT, past the 2e6 cap
Q_NEAR_ONE = 1.0 - 1e-5

PRODUCT_LOOPS = {
    "qpoch": lambda: qpoch_raw(0.5 + 0.1j, Q_NEAR_ONE),
    "logqpoch": lambda: logqpoch_raw(0.5 + 0.1j, Q_NEAR_ONE),
    "theta_ratio_dd": lambda: theta_ratio_dd_raw(0.5 + 0.1j, 0.7, Q_NEAR_ONE),
    "theta_dd": lambda: theta_dd_raw(0.5 + 0.1j, 0.7, 0.6, Q_NEAR_ONE),
    "zlogderiv_dd": lambda: zlogderiv_dd_raw(0.5 + 0.1j, 0.7, Q_NEAR_ONE),
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
        elliptic_diag_contour(ctx.point(1, 2), pair, ctx)
