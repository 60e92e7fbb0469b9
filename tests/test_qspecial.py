"""q-Pochhammer, theta and theta3: identities, argument reduction, domain
errors, and finite-difference cross-checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtail import (
    DomainError,
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

import theta_reference


EPS = 2.0 ** -52
LOGDERIV_Z = [0.7, 0.05, 0.5 ** 10.3, 3.1 + 0.4j, 0.3 - 0.8j]


def brute_qpoch(z, q, n=300):
    out = 1.0 + 0.0j
    for i in range(n):
        out *= 1.0 - z * q ** i
    return out


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan)])
@pytest.mark.parametrize("f", [
    qpoch_inf, theta, theta_deriv, theta_logderiv, log_theta, theta3, jacobi_imaginary_rhs,
    pytest.param(lambda z, q: qpoch_multi([0.3, z], q), id="qpoch_multi"),
    pytest.param(lambda z, q: theta_multi([0.3, z], q), id="theta_multi"),
])
def test_non_finite_argument_is_a_domain_error(f, z):
    # a nan imaginary part must not pass as a point of q^Z, where theta is 0
    with pytest.raises(DomainError):
        f(z, QParam(0.5))


class TestQParam:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(DomainError):
            QParam(q)

    def test_rate(self):
        assert QParam(0.5).r == pytest.approx(math.log(2.0))


class TestQpoch:
    @given(st.floats(0.05, 0.9), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_product(self, q, re, im):
        z = complex(re, im)
        v = qpoch_inf(z, QParam(q)).value
        assert v == pytest.approx(brute_qpoch(z, q), rel=1e-10, abs=1e-12)

    def test_multi_is_product(self):
        q = QParam(0.4)
        zs = [0.3, -0.7 + 0.2j, 1.1j]
        prod = 1.0
        for z in zs:
            prod *= qpoch_inf(z, q).value
        assert qpoch_multi(zs, q).value == pytest.approx(prod, rel=1e-13)

    def test_error_bound_is_small(self):
        r = qpoch_inf(0.5, QParam(0.5))
        assert r.abs_error_bound < 1e-12 * abs(r.value) * 100

    def test_asymptotic_near_one(self):
        # Dedekind eta's modular transformation: (q; q)_inf =
        # sqrt(2 pi/r) exp(r/24 - pi^2/(6r)) (q'; q')_inf with q' =
        # e^{-4 pi^2/r}, and (q'; q')_inf = 1 in double precision at r = 0.01
        q = QParam(math.exp(-0.01))
        r = q.r  # the rate of the rounded q: pi^2/(6r) magnifies errors in r
        exact = qpoch_inf(q.q, q).value
        eta = math.sqrt(2.0 * math.pi / r) * math.exp(r / 24.0 - math.pi ** 2 / (6.0 * r))
        assert abs(exact / eta - 1.0) < 1e-12

    @pytest.mark.parametrize("q", [0.9, 0.99])
    @pytest.mark.parametrize("z", [0.7 * cmath.exp(0.8j), 1.3 * cmath.exp(-2j)])
    def test_theta_asymptotic_near_one(self, q, z):
        """log_theta near q = 1, where |theta| spans 1e-45 to 1e44 over
        these points, against the 40-digit product."""
        want = cmath.log(theta_reference.theta(z, q))
        got = log_theta(z, QParam(q))
        assert abs(got.real - want.real) <= 1e-13 * abs(want.real)
        phase = (got.imag - want.imag + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(phase) <= 1e-11


class TestTheta:
    def test_definition(self):
        q = QParam(0.45)
        z = 0.3 + 0.7j
        expect = brute_qpoch(z, q.q) * brute_qpoch(q.q / z, q.q)
        assert theta(z, q).value == pytest.approx(expect, rel=1e-12)

    @given(st.floats(0.1, 0.9), st.floats(0.2, 2.0), st.floats(0.1, 6.1))
    @settings(max_examples=80, deadline=None)
    def test_quasi_periodicity(self, q, rho, phi):
        qp = QParam(q)
        z = rho * cmath.exp(1j * phi)
        lhs = theta(q * z, qp).value
        rhs = -theta(z, qp).value / z
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @given(st.floats(0.1, 0.9), st.floats(0.2, 2.0), st.floats(0.1, 6.1))
    @settings(max_examples=80, deadline=None)
    def test_inversion(self, q, rho, phi):
        qp = QParam(q)
        z = rho * cmath.exp(1j * phi)
        assert theta(q / z, qp).value == pytest.approx(theta(z, qp).value,
                                                       rel=1e-10, abs=1e-12)

    def test_exact_zero_on_q_lattice(self):
        q = QParam(0.37)
        for n in (-3, -1, 0, 1, 4):
            assert theta(q.q ** n, q).value == 0.0

    def test_deep_reduction_matches_manual_prefactor(self):
        q = QParam(0.5)
        w = 0.8 + 0.1j
        n = 12
        base = theta(w, q).value
        fac = (-1) ** n * q.q ** (-0.5 * n * (n - 1)) * w ** (-n)
        assert theta(q.q ** n * w, q).value == pytest.approx(fac * base, rel=1e-10)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            theta(0.0, QParam(0.5))

    def test_overflow_guard(self):
        # prefactor exponent beyond double range must raise, not return junk
        with pytest.raises(OverflowError):
            theta(0.9 * 0.4 ** 800, QParam(0.4))

    def test_sign_alternates_between_lattice_zeros(self):
        q = QParam(0.5)
        for n in range(-3, 4):
            mid = math.sqrt(q.q) * q.q ** n  # inside (q^{n+1}, q^n)
            v = theta(mid, q).value.real
            assert (v > 0) == (n % 2 == 0)

    def test_multi_short_circuits_at_zero(self):
        q = QParam(0.5)
        assert theta_multi([0.3, q.q ** 2], q).value == 0.0


class TestLogTheta:
    def test_agrees_with_theta(self):
        q = QParam(0.5)
        z = 1.7 - 0.4j
        assert cmath.exp(log_theta(z, q)) == pytest.approx(theta(z, q).value, rel=1e-12)

    def test_safe_at_extreme_magnitude(self):
        q = QParam(0.4)
        z = 0.9 * q.q ** 350  # direct theta would overflow
        L = log_theta(z, q)
        assert math.isfinite(L.real) and L.real > 700.0

    def test_rejects_lattice_zero(self):
        with pytest.raises(DomainError):
            log_theta(0.5 ** 3, QParam(0.5))


class TestThetaDeriv:
    def test_at_one_closed_form(self):
        q = QParam(0.6)
        pq = qpoch_inf(q.q, q).value
        assert theta_deriv(1.0, q).value == pytest.approx(-pq * pq, rel=1e-12)

    @given(st.floats(0.2, 0.8), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_lattice_point_vs_finite_difference(self, q, n):
        qp = QParam(q)
        zn = q ** n
        h = 1e-6 * zn
        fd = (theta(zn + h, qp).value - theta(zn - h, qp).value) / (2 * h)
        assert theta_deriv(zn, qp).value == pytest.approx(fd, rel=1e-6)

    def test_generic_point_vs_finite_difference(self):
        q = QParam(0.5)
        z = 0.77 + 0.31j
        h = 1e-7
        fd = (theta(z + h, q).value - theta(z - h, q).value) / (2 * h)
        assert theta_deriv(z, q).value == pytest.approx(fd, rel=1e-6)

    def test_logderiv_consistent(self):
        q = QParam(0.5)
        z = 0.77 + 0.31j
        assert theta_logderiv(z, q) == pytest.approx(
            theta_deriv(z, q).value / theta(z, q).value, rel=1e-11)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.3])
    @pytest.mark.parametrize("z", LOGDERIV_Z)
    def test_logderiv_matches_reference(self, q, z):
        """The series runs until every factor is 1 to within the cut, also
        far from |z| = 1, where the argument reduction keeps the loop on
        the annulus."""
        want = theta_reference.logderiv(z, q)
        assert abs(theta_logderiv(z, QParam(q)) - want) <= 1e-14 * abs(want)

    def test_logderiv_reduced_near_one(self):
        """At q = 0.99, z = 0.05 is q^298 w: unreduced, the products z q^i
        carry up to 298 more ulps (8.0e-13 off the reference)."""
        want = theta_reference.logderiv(0.05, 0.99)
        assert abs(theta_logderiv(0.05, QParam(0.99)) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("z", LOGDERIV_Z)
    def test_logderiv_near_one_within_conditioning(self, z):
        """At q = 0.99 the real points lie within 0.5% of a zero of theta,
        where |z L'(z) / L(z)| reaches 2e3 for L = theta'/theta: rounding
        the products z q^i then costs that many ulps of L.  The error stays
        within 5e-14 of |L| plus 8 ulps of |z L'(z)|."""
        q = 0.99
        want, z_dlogderiv = theta_reference.logderiv_and_z_d(z, q)
        err = abs(theta_logderiv(z, QParam(q)) - want)
        assert err <= 5e-14 * abs(want) + 8 * EPS * abs(z_dlogderiv)

    def test_logderiv_raises_beyond_iteration_cap(self):
        # about 3.5e9 factors at q = 1 - 1e-8, past the loops' 2e6 cap
        with pytest.raises(ArithmeticError):
            theta_logderiv(0.5 + 0.1j, QParam(1.0 - 1e-8))

    def test_logderiv_rejects_zero_locus(self):
        with pytest.raises(DomainError):
            theta_logderiv(0.5 ** 2, QParam(0.5))


class TestTheta3:
    def brute(self, z, q, N=80):
        return sum(z ** n * q ** (n * n / 2.0) for n in range(-N, N + 1))

    @given(st.floats(0.1, 0.8), st.floats(0.3, 1.5), st.floats(-2.2, 2.2))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_sum(self, q, rho, phi):
        z = rho * cmath.exp(1j * phi)
        v = theta3(z, QParam(q)).value
        b = self.brute(z, q)
        assert v == pytest.approx(b, rel=1e-10, abs=1e-12)

    @given(st.floats(0.1, 0.8), st.floats(0.3, 1.5), st.floats(-2.2, 2.2))
    @settings(max_examples=60, deadline=None)
    def test_triple_product(self, q, rho, phi):
        qp = QParam(q)
        z = rho * cmath.exp(1j * phi)
        lhs = theta3(z, qp).value
        rhs = qpoch_inf(q, qp).value * theta(-math.sqrt(q) * z, qp).value
        scale = abs(theta3(abs(z), qp).value)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), scale)

    def test_imaginary_transformation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            q = QParam(float(rng.uniform(0.3, 0.55)))
            z = float(rng.uniform(0.5, 1.5)) * cmath.exp(1j * float(rng.uniform(-2.2, 2.2)))
            lhs = theta3(z, q).value
            rhs = jacobi_imaginary_rhs(z, q).value
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            theta3(0.0, QParam(0.5))
