"""A 40-digit mpmath reference for the theta kernel at lattice points.

For gamma != delta it is the quotient form

    K(x, y) = C (P(x)Q(y) - Q(x)P(y)) / (x - y),
    (P(x), Q(x)) = sqrt(|x|) (theta(x delta), theta(x gamma))
                   / sqrt(theta(x gamma) theta(x delta)),

with its limit C |x| (delta L(x delta) - gamma L(x gamma)) on the diagonal,
L = theta'/theta.  At gamma = delta, where C has its pole, it is the
equal-pair continuation: off the diagonal

    A s_x s_y sqrt(|x y|) (y L(y gamma) - x L(x gamma)) / (x - y),

with s_x the sign of theta(x gamma), and on it -A |x| (L(t) + t L'(t)),
t = x gamma, where A = theta(gamma zeta_-)^2 theta(gamma zeta_+)^2 /
(zeta_+ (q; q)^4 theta(zeta_- / zeta_+) theta(gamma^2 zeta_- zeta_+)).

Every quantity is summed at 40 digits from the float inputs, so the
cancellation in the quotient form near gamma = delta costs nothing that
shows at double precision.  ``theta_product`` is the plain product at a
precision sized from (q, z), for q up to 0.995, where mpmath's own
q-functions give up.  ``divided_differences`` sums rho and [F] from
Jacobi's imaginary transformation of theta_1 instead, a few terms at any
q in (0, 1); at q <= 0.9 it agrees with the product to double precision.
"""

import math

import mpmath as mp

DPS = 40


def _powers(q, z=1):
    """q^i for i >= 1 until q^i max(|z|, 1/|z|) is far below the working
    precision, so that every dropped factor (1 - z q^i), (1 - q^i / z) is 1
    to that precision."""
    p, bound = q, mp.mpf(10) ** -DPS / max(abs(z), 1 / abs(z), 1)
    while p > bound:
        yield p
        p *= q


def _qpoch(z, q):
    out = mp.mpf(1) - z
    for p in _powers(q, z):
        out *= 1 - z * p
    return out


def _theta_L(z, q):
    """theta(z) and its log-derivative L(z) = theta'(z)/theta(z)."""
    th, L = 1 - z, -1 / (1 - z)
    for p in _powers(q, z):
        th *= (1 - z * p) * (1 - p / z)
        L += -p / (1 - z * p) + p / (z * (z - p))
    return th, L


def _logderiv_d(z, q):
    """d/dz of theta'(z) / theta(z), term by term."""
    out = -1 / (1 - z) ** 2
    for p in _powers(q, z):
        out += -(p * p) / (1 - z * p) ** 2 - p * (2 * z - p) / (z * z - p * z) ** 2
    return out


def _mp(z):
    z = complex(z)
    return mp.mpf(z.real) if z.imag == 0 else mp.mpc(z.real, z.imag)


def theta_product(z, q, digits=20):
    """theta(z) = (z, q/z; q)_inf as an mpmath number good to ``digits``
    significant digits, from the product of N factor pairs (1 - z p)(1 - p/z)
    = 1 + p (p - z - 1/z), p = q^i.  N is the first i with q^i max(|z|, 1/|z|)
    below 10^-digits (1 - q), so the dropped tail changes the log by at most
    2 10^-digits; each factor rounds once, so the product runs at digits +
    log10(N) + 5 digits."""
    n = max(1, math.ceil(math.log(10.0 ** -digits * (1.0 - q) / max(abs(z), 1.0 / abs(z)))
                         / math.log(q)))
    with mp.workdps(digits + math.ceil(math.log10(n)) + 5):
        q, z = mp.mpf(q), _mp(z)
        s, p, out = z + 1 / z, q, 1 - z
        for _ in range(n):
            out *= 1 + p * (p - s)
            p *= q
        return out


def theta(z, q) -> complex:
    """theta(z) = (z, q/z; q)_inf."""
    with mp.workdps(DPS):
        return complex(_theta_L(_mp(z), mp.mpf(q))[0])


def logderiv(a, q) -> complex:
    """theta'(a) / theta(a)."""
    with mp.workdps(DPS):
        return complex(_theta_L(_mp(a), mp.mpf(q))[1])


def logderiv_and_z_d(a, q) -> tuple[complex, complex]:
    """L(a) = theta'(a)/theta(a) and a L'(a); their ratio is the condition
    number of L at a."""
    with mp.workdps(DPS):
        a, q = _mp(a), mp.mpf(q)
        return complex(_theta_L(a, q)[1]), complex(a * _logderiv_d(a, q))


def zlogderiv_d(a, q) -> complex:
    """F'(a) for F(z) = z theta'(z)/theta(z), from the term-by-term
    second derivative series."""
    with mp.workdps(DPS):
        a, q = _mp(a), mp.mpf(q)
        return complex(_theta_L(a, q)[1] + a * _logderiv_d(a, q))


def frak_C(alpha, beta, gamma, delta, q: float, zeta_plus: float, zeta_minus: float) -> complex:
    """The four-parameter kernel's constant as a product of thetas and
    q-Pochhammer symbols:

        theta(gamma zeta_-+, delta zeta_-+) (ab/(gamma delta), ab/(q gamma delta); q)_inf
        / (zeta_+ theta(zeta_-/zeta_+, gamma delta zeta_- zeta_+)
           (alpha/gamma, alpha/delta, beta/gamma, beta/delta, q, q; q)_inf),

    ab = alpha beta."""
    with mp.workdps(DPS):
        q, zp, zm = mp.mpf(q), mp.mpf(zeta_plus), mp.mpf(zeta_minus)
        a, b, g, d = (_mp(v) for v in (alpha, beta, gamma, delta))

        def theta(z):
            return _theta_L(z, q)[0]

        def qpoch(*zs):
            return mp.fprod(_qpoch(z, q) for z in zs)

        num = theta(g * zm) * theta(g * zp) * theta(d * zm) * theta(d * zp)
        num *= qpoch(a * b / (g * d), a * b / (q * g * d))
        den = zp * theta(zm / zp) * theta(g * d * zm * zp)
        den *= qpoch(a / g, a / d, b / g, b / d, q, q)
        return complex(num / den)


def kernel_matrix(xs, gamma, delta, q: float, zeta_plus: float,
                  zeta_minus: float) -> list[list[complex]]:
    """The theta kernel K(x, y) for x, y in the real lattice points ``xs``."""
    with mp.workdps(DPS):
        q, zp, zm = mp.mpf(q), mp.mpf(zeta_plus), mp.mpf(zeta_minus)
        g, d = _mp(gamma), _mp(delta)
        xs = [mp.mpf(x) for x in xs]
        memo = {}

        def theta_L(z):
            # theta has real Taylor coefficients: conjugate arguments of a
            # principal pair reuse each other's sums
            if z not in memo:
                zc = mp.conj(z)
                memo[z] = tuple(map(mp.conj, memo[zc])) if zc in memo else _theta_L(z, q)
            return memo[z]

        def theta(z):
            return theta_L(z)[0]

        base = zp * theta(zm / zp)
        qq = _qpoch(q, q)
        tg, Lg = zip(*(theta_L(x * g) for x in xs))
        if g == d:
            A = (theta(g * zm) ** 2 * theta(g * zp) ** 2
                 / (base * qq ** 4 * theta(g * g * zm * zp)))
            sgn = [mp.sign(mp.re(t)) for t in tg]

            def entry(i, j):
                x, y = xs[i], xs[j]
                if i == j:
                    t = x * g
                    return -A * abs(x) * (Lg[i] + t * _logderiv_d(t, q))
                return (A * sgn[i] * sgn[j] * mp.sqrt(abs(x * y)) / (x - y)
                        * (y * Lg[j] - x * Lg[i]))
        else:
            C = (theta(g * zm) * theta(g * zp) * theta(d * zm) * theta(d * zp)
                 * (d - g) / (base * theta(g * d * zm * zp) * g * d
                              * _qpoch(d / g, q) * _qpoch(g / d, q) * qq ** 2))
            td, Ld = zip(*(theta_L(x * d) for x in xs))
            den = [mp.sqrt(a * b) for a, b in zip(tg, td)]
            P = [mp.sqrt(abs(x)) * b / r for x, b, r in zip(xs, td, den)]
            Q = [mp.sqrt(abs(x)) * a / r for x, a, r in zip(xs, tg, den)]

            def entry(i, j):
                if i == j:
                    return C * abs(xs[i]) * (d * Ld[i] - g * Lg[i])
                return C * (P[i] * Q[j] - Q[i] * P[j]) / (xs[i] - xs[j])

        n = len(xs)
        return [[complex(entry(i, j)) for j in range(n)] for i in range(n)]



def _modular(z, q):
    """(Lambda, F, F', z F'') at z for F(z) = z theta'(z)/theta(z), with
    Lambda = log theta(z) up to an additive constant that depends on q
    alone, so that differences of Lambda are logs of theta ratios.

    z = q^n w with |w| near 1, and theta(w) is proportional to e^{-iv}
    theta_1(v | tau) with w = e^{-2iv}, nome q^{1/2} = e^{i pi tau}.
    Jacobi's imaginary transformation (DLMF 20.7.30) turns theta_1(v | tau)
    into e^{i tau' v^2/pi} theta_1(v tau' | tau'), tau' = -1/tau = 2 pi i/r,
    whose sine series has the nome e^{-2 pi^2/r}: a few terms at any q in
    (0, 1), where the product needs about 92/r factors at 40 digits."""
    r = -mp.log(q)
    n = int(mp.nint(mp.log(abs(z)) / -r))
    w = z * q ** -n
    lw = mp.log(w)
    v = 1j * lw / 2
    tp = 2j * mp.pi / r
    nome = mp.exp(-2 * mp.pi ** 2 / r)
    x = v * tp
    s = [mp.mpf(0)] * 4  # theta_1 and its first three derivatives, up to a factor
    k = 0
    while True:
        m = 2 * k + 1
        a = (-1) ** k * nome ** ((k + mp.mpf(1) / 2) ** 2)
        sn, cs = a * mp.sin(m * x), a * mp.cos(m * x)
        s = [s[0] + sn, s[1] + m * cs, s[2] - m ** 2 * sn, s[3] - m ** 3 * cs]
        if k > 0 and m ** 3 * (abs(sn) + abs(cs)) < mp.mpf(10) ** -(3 * DPS) * abs(s[0]):
            break
        k += 1
    g1 = s[1] / s[0]
    g2 = s[2] / s[0] - g1 ** 2
    g3 = s[3] / s[0] - 3 * g1 * s[2] / s[0] + 2 * g1 ** 3
    lam = (1j * mp.pi * n + n * (n - 1) * r / 2 - n * lw - 1j * v + 1j * tp * v * v / mp.pi
           + mp.log(s[0]))
    F = -n + mp.mpf(1) / 2 - tp * v / mp.pi + 1j * tp / 2 * g1
    dF = 1j / 2 * (-tp / mp.pi + 1j * tp ** 2 / 2 * g2) / z
    zd2F = -dF - 1j * tp ** 3 * g3 / (8 * z)
    return lam, F, dF, zd2F


def divided_differences(a, b, q) -> tuple[complex, complex, float, float]:
    """(rho(a, b), [F](a, b), c_rho, c_F) for rho(a, b) = (theta(a)/theta(b)
    - 1)/(a - b) and [F](a, b) = (F(a) - F(b))/(a - b), F(z) = z
    theta'(z)/theta(z); theta'(a)/theta(a) and F'(a) at a = b.  c_rho and c_F
    are |d/ds| at s = 1 of each at (s a, s b): what a common relative
    perturbation of the two arguments moves them by, z L'(z) and z F''(z)
    at a = b.  Summed at 2 DPS digits from the float inputs, so that at
    b = a (1 + 1e-15) the cancellation in the differences leaves DPS digits."""
    with mp.workdps(2 * DPS):
        q, a, b = mp.mpf(q), _mp(a), _mp(b)
        la, Fa, dFa, d2a = _modular(a, q)
        if a == b:
            L = Fa / a
            return complex(L), complex(dFa), float(abs(dFa - L)), float(abs(d2a))
        lb, Fb, dFb, _ = _modular(b, q)
        ratio = mp.exp(la - lb)
        rho, fdd = (ratio - 1) / (a - b), (Fa - Fb) / (a - b)
        return (complex(rho), complex(fdd), float(abs(ratio * fdd - rho)),
                float(abs((a * dFa - b * dFb) / (a - b) - fdd)))
