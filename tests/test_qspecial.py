"""q-Pochhammer, theta and theta3: identities, argument reduction, domain
errors, and finite-difference cross-checks."""

import cmath
import math
import struct

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
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
)
from qtail import _core, qspecial

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
    @given(st.floats(0.02, 0.9), st.floats(-0.5, 0.5), st.floats(-math.pi, math.pi))
    @settings(max_examples=80, deadline=None)
    def test_definition(self, q, t, phi):
        """The dual sum against the product (z, q/z; q)_inf on the annulus
        |z| = q^t, where neither reduces its argument; theta is exactly 0
        within relative 1e-12 of its zero at 1."""
        qp = QParam(q)
        z = q ** t * cmath.exp(1j * phi)
        assume(abs(z - 1.0) > 1e-9)
        want = qpoch_inf(z, qp).value * qpoch_inf(q / z, qp).value
        assert abs(theta(z, qp).value - want) <= 1e-13 * abs(want)

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

    @pytest.mark.parametrize("z, q", [
        (-0.995 ** 448, 0.995),  # |theta| = e^829: a prefactor of e^501 times e^328
        (1.0002, 0.999),         # |theta| = e^-3298, next to the zero at 1
    ])
    def test_raises_where_the_value_leaves_the_normal_range(self, z, q):
        L = log_theta(z, QParam(q))
        assert not qspecial.LOG_TINY <= L.real <= qspecial.LOG_HUGE
        with pytest.raises(OverflowError):
            theta(z, QParam(q))

    @pytest.mark.parametrize("q", [0.3, 0.85, 0.995])
    def test_conjugate_symmetry_is_bitwise(self, q):
        """theta(conj z) is conj theta(z) bit for bit, signed zeros included,
        and a real z gives an imaginary part of exactly 0."""
        qp = QParam(q)

        def bits(v):
            return struct.pack("dd", v.real, v.imag)

        for x in (0.37, 0.93, 1.9, -0.37, -1.04, -1.9, 0.2 * q ** 5, -3.0 / q ** 4):
            for y in (0.0, 1e-9, 0.4, 2.2):
                z = complex(x, y)
                a, b = theta(z, qp).value, theta(z.conjugate(), qp).value
                assert bits(b) == bits(a.conjugate())
                assert bits(log_theta(z.conjugate(), qp)) == bits(log_theta(z, qp).conjugate())
                if y == 0.0:
                    assert a.imag == 0.0 and math.copysign(1.0, b.imag) == -1.0

    def test_takes_no_product(self, monkeypatch):
        """At q = 0.995, where the product takes 13,800 factors, theta and
        log_theta run on the dual sum alone."""
        def refuse(*args):
            raise AssertionError("product loop called")

        for mod in (qspecial, _core):
            monkeypatch.setattr(mod, "qpoch_raw", refuse)
        q = QParam(0.995)
        for z in (0.9 + 0.3j, -1.02, 0.2, 7.0 - 1.0j):
            v, L = theta(z, q).value, log_theta(z, q)
            assert cmath.isfinite(v) and cmath.isfinite(L)

    def test_sign_alternates_between_lattice_zeros(self):
        q = QParam(0.5)
        for n in range(-3, 4):
            mid = math.sqrt(q.q) * q.q ** n  # inside (q^{n+1}, q^n)
            v = theta(mid, q).value.real
            assert (v > 0) == (n % 2 == 0)


NEAR_ZERO_Q = (0.02, 0.3, 0.5, 0.9, 0.995)


@pytest.mark.parametrize("q", NEAR_ZERO_Q)
def test_theta_near_its_zeros(q):
    """At z = q^n (1 +- t), t = 1e-14 to 1e-10, none of which reduces to
    w = 1 exactly, theta and theta_logderiv are their own small and large
    values: within max(1e-13, 8u cond) of the product reference, with u =
    2^-53 and cond = |z theta'/theta| what the rounding of the reduction
    z q^-n costs.  log_theta is finite there and exp of it is theta."""
    qp = QParam(q)
    for n in range(-3, 4):
        for z in (q ** n * (1.0 + s * t) for s in (1, -1) for t in (1e-14, 1e-12, 1e-10)):
            assert qspecial._theta_zero(z, qp) is None
            L = theta_reference.divided_differences(z, z, q)[0]
            gate = max(1e-13, 4 * EPS * abs(z * L))
            want = complex(theta_reference.theta_product(z, q))
            got = theta(z, qp).value
            assert got != 0.0 and abs(got - want) <= gate * abs(want), z
            assert abs(theta_logderiv(z, qp) - L) <= gate * abs(L), z
            lt = log_theta(z, qp)
            assert cmath.isfinite(lt) and abs(cmath.exp(lt) - got) <= 1e-14 * abs(got)


@pytest.mark.parametrize("q", NEAR_ZERO_Q)
def test_theta_is_zero_only_where_the_exact_test_says(q):
    qp = QParam(q)
    for n in range(-3, 4):
        z = q ** n
        assert (theta(z, qp).value == 0.0) == (qspecial._theta_zero(z, qp) is not None)


@pytest.mark.parametrize("z, want", [
    pytest.param(1 + 5e-13, -4.1702989022321206e-14, id="1+5e-13"),
    pytest.param(0.125 * (1 + 3e-13), 2.0014471818509857e-13, id="q^3(1+3e-13)"),
    pytest.param(1 + 1.3e-162j, -1.0841813302287308e-163j, id="1+1.3e-162i"),
])
def test_theta_within_a_rounding_of_a_zero(z, want):
    """At q = 0.5 these z lie within 5e-13 of q^0 and q^3 but are not
    them; the 40-digit product gives the values.  log_theta and
    theta_logderiv are finite there."""
    q = QParam(0.5)
    assert abs(theta(z, q).value - want) <= 1e-13 * abs(want)
    assert cmath.isfinite(log_theta(z, q)) and cmath.isfinite(theta_logderiv(z, q))


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.995])
def test_log_qpoch_matches_the_product(q):
    """log (z; q)_inf inside and outside the unit circle against the log of
    the 40-digit product: the real part within 1e-13 of max(1, |log|), the
    phase within 1e-12 modulo 2 pi, or 8 ulps of the imaginary part where
    that is larger (it reaches 8658 at z = -1e6, q = 0.995, where one ulp
    is 1.8e-12).  The points keep off the positive axis, where (z; q)_inf
    has its zeros q^-k (1e6 = 0.1^-6)."""
    qp = QParam(q)
    for radius in (0.3, 0.99, 1.01, 30.0, 1e6):
        for z in (radius * cmath.exp(0.5j), radius * cmath.exp(-2.9j), complex(-radius)):
            with mp.workdps(theta_reference.DPS):
                want = complex(mp.log(theta_reference._qpoch(theta_reference._mp(z), mp.mpf(q))))
            got = qspecial._log_qpoch(z, qp)
            assert abs(got.real - want.real) <= 1e-13 * max(1.0, abs(want)), z
            dphase = cmath.phase(cmath.exp(1j * (got.imag - want.imag)))
            assert abs(dphase) <= max(1e-12, 8 * EPS * abs(got.imag)), z


def test_log_qpoch_at_an_exact_zero():
    q = QParam(0.5)
    assert qspecial._log_qpoch(1.0, q).real == -math.inf
    assert qspecial._log_qpoch(4.0, q).real == -math.inf


# relative error gates of theta and log_theta against the product reference
ACCURACY_GATE = {0.02: 3e-14, 0.3: 3e-14, 0.85: 3e-14, 0.95: 5e-13, 0.99: 5e-13, 0.995: 5e-13}
# annulus points z = q^t e^{i phi} as (t, phi); phi = None puts z on the
# negative real axis
ANNULUS_POINTS = ((-0.45, 2.5), (-0.1, -1.2), (0.2, 0.3), (0.45, None))
NEAR_ONE = (1.0 - 1e-3, 1.0 + 1e-5, 1.0 - 1e-7, 1.0 + 1e-9, 1.0 - 1e-11)


@pytest.mark.parametrize("q", ACCURACY_GATE)
def test_theta_and_log_theta_match_the_product_reference(q):
    """Relative error on the annulus and at distances 1e-3 to 1e-11 from
    the zero at 1, against the product at 20 digits; log_theta's error is
    that of exp(log_theta)."""
    qp, gate = QParam(q), ACCURACY_GATE[q]
    zs = [-q ** t if phi is None else q ** t * cmath.exp(1j * phi) for t, phi in ANNULUS_POINTS]
    for z in zs + list(NEAR_ONE):
        want = theta_reference.theta_product(z, q)
        with mp.workdps(30):
            assert abs(mp.mpc(theta(z, qp).value) / want - 1) <= gate, z
            assert abs(mp.expm1(mp.mpc(log_theta(z, qp)) - mp.log(want))) <= gate, z


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

    @given(st.floats(0.02, 0.995), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None, derandomize=True)
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

    @given(st.floats(0.02, 0.995), st.floats(-0.5, 0.5), st.floats(-math.pi, math.pi),
           st.integers(-3, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_logderiv_and_deriv_over_the_domain(self, q, t, phi, n):
        """theta_logderiv at z = q^(n + t) e^{i phi} against the 40-digit
        reference within its conditioning, and theta_deriv as theta times it."""
        qp = QParam(q)
        z = q ** (n + t) * cmath.exp(1j * phi)
        assume(abs(t) > 1e-6 or abs(phi) > 1e-6)
        want, _, cond, _ = theta_reference.divided_differences(z, z, q)
        assert abs(theta_logderiv(z, qp) - want) <= 5e-14 * abs(want) + 8 * EPS * cond
        lt = log_theta(z, qp)
        if qspecial.LOG_TINY < lt.real < qspecial.LOG_HUGE:
            d = theta_deriv(z, qp).value
            assert abs(d - cmath.exp(lt) * theta_logderiv(z, qp)) <= 1e-13 * abs(d)

    def test_logderiv_beyond_the_product_cap(self):
        """At q = 1 - 1e-8, where the product would take 3.5e9 factors, the
        dual sum still takes a handful of terms: a value that agrees with
        the reference, or a typed error."""
        z, q = 0.5 + 0.1j, 1.0 - 1e-8
        want, _, cond, _ = theta_reference.divided_differences(z, z, q)
        try:
            got = theta_logderiv(z, QParam(q))
        except (DomainError, ArithmeticError):
            return
        assert abs(got - want) <= 5e-14 * abs(want) + 8 * EPS * cond

    def test_logderiv_rejects_zero_locus(self):
        with pytest.raises(DomainError):
            theta_logderiv(0.5 ** 2, QParam(0.5))


# the divided differences at b = a (1 + t), t = 0 giving theta'/theta and F'
DD_Q = (0.02, 0.1, 0.3, 0.5, 0.85, 0.95, 0.995)
DD_T = (0.0, 1e-15, 1e-12, 1e-8, 1e-4, 1e-1)


def _dd_pairs(q, t):
    """(a, b) = m (1 -+ t w / 2) around centres m, in directions w: a generic
    point; pairs across the reduction annulus's inner and outer circle
    (|m| = q^{+-1/2}); across the positive and the negative real axis, the
    second the cut of the logarithm; and a point reduced by several powers
    of q."""
    out = []
    for m, w in ((0.9 * cmath.exp(0.7j), cmath.exp(0.3j)), (q ** 0.5, 1.0),
                 (q ** -0.5 * cmath.exp(2j), 1.0), (0.8, 1j), (-1.3, 1j),
                 (q ** -2.3 * cmath.exp(-0.4j), cmath.exp(-1j))):
        out.append((m, m) if t == 0.0 else (m * (1.0 - 0.5 * t * w), m * (1.0 + 0.5 * t * w)))
    return out


@pytest.mark.parametrize("q", DD_Q)
def test_divided_differences_match_the_reference(q):
    """rho, [F] and theta'/theta against the 40-digit reference: within
    1e-13 relative, or within what a common relative perturbation of 8
    ulps of both arguments moves the exact value by (the conditioning
    bound of test_logderiv_near_one_within_conditioning, which it is at
    a = b).  Nothing cancels as b -> a."""
    qp = QParam(q)
    for t in DD_T:
        for a, b in _dd_pairs(q, t):
            for x, y in ((a, b), (b, a)):
                rho, fdd, c_rho, c_f = theta_reference.divided_differences(x, y, q)
                got = qspecial._theta_ratio_dd(x, y, qp)
                assert abs(got - rho) <= 1e-13 * abs(rho) + 8 * EPS * c_rho, (t, x, y)
                got = qspecial._zlogderiv_dd(x, y, qp)
                assert abs(got - fdd) <= 1e-13 * abs(fdd) + 8 * EPS * c_f, (t, x, y)
            L, _, c_l, _ = theta_reference.divided_differences(a, a, q)
            assert abs(theta_logderiv(a, qp) - L) <= 1e-13 * abs(L) + 8 * EPS * c_l


@pytest.mark.parametrize("q", [0.02, 0.5, 0.9])
def test_dual_reference_matches_the_product_reference(q):
    """The reference's dual route against its product route: theta'/theta
    and F' at a point, rho and [F] at a pair far enough apart that the
    product route's double-precision thetas do not cancel."""
    for a, b in ((0.7, 1.9 - 0.4j), (-1.3 + 0.2j, 0.4 - 0.1j), (3.1 + 0.4j, 0.9j)):
        L, dF, _, _ = theta_reference.divided_differences(a, a, q)
        assert abs(L - theta_reference.logderiv(a, q)) <= 1e-15 * abs(L)
        assert abs(dF - theta_reference.zlogderiv_d(a, q)) <= 1e-15 * abs(dF)
        rho, fdd, _, _ = theta_reference.divided_differences(a, b, q)
        ta, tb = theta_reference.theta(a, q), theta_reference.theta(b, q)
        assert abs(rho - (ta / tb - 1) / (a - b)) <= 1e-14 * abs(rho)
        fa, fb = a * theta_reference.logderiv(a, q), b * theta_reference.logderiv(b, q)
        assert abs(fdd - (fa - fb) / (a - b)) <= 1e-14 * abs(fdd)


def test_log_qq_matches_the_product():
    """The dual form of log (q; q)_inf against the product it replaces."""
    for q in DD_Q:
        want = math.log(theta_reference._qpoch(mp.mpf(q), mp.mpf(q)))
        assert abs(QParam(q).lqq[0] - want) <= 1e-14 * abs(want)


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
