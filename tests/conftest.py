"""Shared fixtures: a reference lattice, pair and quadruple used across
the test modules, a seeded random generator, and cold plan caches."""

import numpy as np
import pytest

from qtail import QContext, QParam, validate_pair, validate_quadruple
from qtail.kernels import _PairPlan, _QuadPlan

Q_REF = 0.5
ZP_REF = 1.3
ZM_REF = -0.55
GAMMA_REF = 0.31 / ZP_REF
DELTA_REF = 0.44 / ZP_REF


@pytest.fixture
def ctx():
    return QContext(QParam(Q_REF), ZP_REF, ZM_REF)


@pytest.fixture
def pair(ctx):
    return validate_pair(GAMMA_REF, DELTA_REF, ctx)


@pytest.fixture
def principal_pair(ctx):
    g = 0.8 * complex(np.cos(1.1), np.sin(1.1))
    return validate_pair(g, g.conjugate(), ctx)


@pytest.fixture
def quad(ctx):
    shift = Q_REF ** 3
    return validate_quadruple(GAMMA_REF * shift, DELTA_REF * shift,
                              GAMMA_REF, DELTA_REF, ctx)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def cold_caches():
    """Empty the caches of pair plans and of quadruple plans, which hold
    all per-pair and per-quadruple work (the quadruple plans' lattice
    points included); returns a function that empties them again."""
    def clear():
        _PairPlan.build.cache_clear()
        _QuadPlan.build.cache_clear()

    clear()
    return clear
