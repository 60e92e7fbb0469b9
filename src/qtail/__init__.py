"""Correlation kernels on the two-sided q-lattice.

Numerical evaluation of q-series special functions, the basic
hypergeometric kernel family and its theta-kernel limit, Fourier-side
projection matrices, q -> 1 limit regimes, and exact sampling of the
associated determinantal point processes.
"""

__version__ = "0.1.0"

from .qspecial import (
    DomainError,
    EvalResult,
    QParam,
    jacobi_imaginary_rhs,
    log_theta,
    qpoch_inf,
    qpoch_multi,
    theta,
    theta3,
    theta_deriv,
    theta_logderiv,
    theta_multi,
)
from .qhyper import (
    DegeneracyError,
    Phi21Params,
    PoleError,
    heine_rhs,
    phi21,
    phi21_series,
    qdiff_residual,
    watson_rhs,
)
from .kernels import (
    AdmissiblePair,
    AdmissibleQuadruple,
    C_elliptic,
    ConvergenceError,
    LatticePoint,
    QContext,
    basic_kernel,
    closed_diag,
    elliptic_diag_contour,
    elliptic_kernel,
    frak_C,
    gauge_eps,
    hat_kernel,
    tilde_kernel,
    validate_pair,
    validate_quadruple,
)
from .fourier import (
    fourier_closed,
    fourier_lemma_form,
    fourier_series,
    projection_report,
)
from .verify import (
    IdentityReport,
    diagonal_identity_residual,
    fourier_equality_residual,
    logderiv_sum_residual,
    ramanujan_sum_residual,
    trace_identity_residual,
    weierstrass_residual,
)
from .limits import (
    RegimeI,
    RegimeII,
    TrigParams,
    sine_kernel,
    sine_limit_scan,
    tail_limit_scan,
    trig_kernel,
    trig_limit_scan,
)
from .dpp import (
    SampleConfig,
    Window,
    correlation,
    exact_outcome_probabilities,
    kernel_matrix,
    sample_window,
)
