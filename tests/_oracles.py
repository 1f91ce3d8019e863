"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package: log-Gamma comes from a
plain 64-step recurrence into the Stirling regime (no Lanczos, no
compensated summation), the hypergeometric reference is a brute-force
extended-precision summation of the defining series in mpmath, the
wave-equation reference is a point-by-point complex sixth-order Magnus
march that samples V at the true Gauss-Legendre nodes of each step and
takes its step exponentials from ``cmath``, and the potentials' reference
evaluates their closed forms in mpmath.
"""

import cmath
import math

import mpmath as mp

_SHIFT = 64
# B_{2n} / (2n (2n-1)) for n = 1..8
_STIRLING_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)


def lngamma_oracle(z):
    """Reference log-Gamma: reflection for Re(z) < 0.5, otherwise a 64-term
    product shift followed by the Stirling series at |z + 64| >= 64.  The
    reflection's log sin(pi z) is taken in extended precision, where
    sin(pi z) cannot overflow (it does in a double for |Im z| > ~226)."""
    z = complex(z)
    if z.real < 0.5:
        with mp.workdps(30):
            log_sin = complex(mp.log(mp.sin(mp.pi * mp.mpc(z.real, z.imag))))
        return math.log(math.pi) - log_sin - lngamma_oracle(1.0 - z)
    shifted = z + _SHIFT
    series = 0.0j
    for coeff in reversed(_STIRLING_TAIL):
        series = (series + coeff) / (shifted * shifted)
    series *= shifted
    main = (
        (shifted - 0.5) * cmath.log(shifted)
        - shifted
        + 0.5 * math.log(2.0 * math.pi)
        + series
    )
    correction = 0.0j
    for k in range(_SHIFT):
        correction += cmath.log(z + k)
    return main - correction


def gamma_oracle(z):
    return cmath.exp(lngamma_oracle(z))


def hyp2f1_oracle(a, b, c, z, dps=40):
    """Brute-force Gauss series in extended precision (|z| < 1)."""
    with mp.workdps(dps):
        a = mp.mpc(a)
        b = mp.mpc(b)
        c = mp.mpc(c)
        z = mp.mpf(z) if not isinstance(z, complex) else mp.mpc(z)
        term = mp.mpc(1)
        total = mp.mpc(1)
        stop = mp.mpf(10) ** (-dps - 5)
        for k in range(200_000):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            total += term
            if abs(term) < stop * abs(total):
                return complex(total)
        raise RuntimeError("oracle series did not converge")


def hyp2f1_derivative_oracle(a, b, c, z, dps=40):
    """d/dz 2F1 via the contiguous shift, in extended precision."""
    with mp.workdps(dps):
        value = hyp2f1_oracle(a + 1, b + 1, c + 1, z, dps=dps)
        return complex(complex(a) * complex(b) / complex(c) * value)


def _combine(*terms):
    """The 2x2 matrix sum of coefficient * matrix over (coefficient, matrix) pairs."""
    return [[sum(k * m[i][j] for k, m in terms) for j in range(2)] for i in range(2)]


def _commutator(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return [[b * g - c * f, a * f + b * h - e * b - f * d], [c * e + d * g - g * a - h * c, c * f - b * g]]


def magnus_march_oracle(v, omega, start, x_min, x_max, n):
    """Reference sixth-order Magnus march (Blanes, Casas & Ros 2000) of
    Z'' = (V - omega^2) Z from x_max down to x_min in n equal steps, one
    complex step at a time, starting from the caller's (Z, Z') = ``start`` at
    x_max.  ``v`` samples the potential on an array of x; it is called once,
    on the three Gauss-Legendre nodes of every step.  Each step, d = -h and
    A_k = [[0, 1], [q_k, 0]] with q = V - omega^2 at its nodes in march
    order, has the exponent Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 +
    C2]/240 with a1 = d A2, a2 = sqrt(15) d (A3 - A1)/3, a3 = 10 d (A3 - 2 A2
    + A1)/3, C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1]/60, formed as 2x2
    matrices; its exponential is cosh(s) I + (sinh(s)/s) Omega with s^2 =
    -det Omega, taken by ``cmath``.  Returns the n + 1 values on the grid in
    increasing x."""
    h = (x_max - x_min) / n
    nodes = (0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10)  # fractions of a step, in march order
    q = [float(vk) - omega * omega for vk in v([x_max - (i + f) * h for i in range(n) for f in nodes])]
    zc, dz = start
    values = [zc]
    d = -h
    for i in range(n):
        a_1, a_2, a_3 = ([[0.0, 1.0], [qk, 0.0]] for qk in q[3 * i:3 * i + 3])
        alpha1 = _combine((d, a_2))
        alpha2 = _combine((math.sqrt(15) * d / 3, a_3), (-math.sqrt(15) * d / 3, a_1))
        alpha3 = _combine((10 * d / 3, a_3), (-20 * d / 3, a_2), (10 * d / 3, a_1))
        c1 = _commutator(alpha1, alpha2)
        c2 = _combine((-1 / 60, _commutator(alpha1, _combine((2, alpha3), (1, c1)))))
        bracket = _commutator(_combine((-20, alpha1), (-1, alpha3), (1, c1)), _combine((1, alpha2), (1, c2)))
        (o00, o01), (o10, o11) = _combine((1, alpha1), (1 / 12, alpha3), (1 / 240, bracket))
        s = cmath.sqrt(o00 * o00 + o01 * o10)
        cosh_s, sinhc_s = cmath.cosh(s), (cmath.sinh(s) / s if s else 1.0)
        zc, dz = (cosh_s + sinhc_s * o00) * zc + sinhc_s * o01 * dz, sinhc_s * o10 * zc + (cosh_s + sinhc_s * o11) * dz
        values.append(zc)
    return values[::-1]


def step_coefficients_oracle(omega, m, dps=40):
    """(|R^S|^2, |T^S|^2, k') of the smooth step of height m^2 and unit
    width, from the plain sinh forms in mpmath at ``dps`` digits, with
    k' = sqrt(omega^2 - m^2) taken from the exact doubles omega and m."""
    with mp.workdps(dps):
        w, m = mp.mpf(omega), mp.mpf(m)
        kprime = mp.sqrt(w * w - m * m)
        r2 = (mp.sinh(mp.pi * (w - kprime)) / mp.sinh(mp.pi * (w + kprime))) ** 2
        t2 = (w / kprime) * mp.sinh(2 * mp.pi * w) * mp.sinh(2 * mp.pi * kprime) / mp.sinh(mp.pi * (w + kprime)) ** 2
        return float(r2), float(t2), float(kprime)


def potential_oracle(kind, x, m=1.0, v0=1.0, alpha=1.0, dps=50):
    """(V, V - V(+inf)) at x, each rounded once to a double, from the closed
    forms in mpmath at ``dps`` digits: V+- = m^2 e^x/(e^x + 1) -+ (m/2)
    e^(x/2)/(e^x + 1)^(3/2) for ``kind`` "plus" or "minus" (V(+inf) = m^2),
    or (v0/2)(1 + tanh(x/(2 alpha))) = v0/(1 + e^(-x/alpha)) for "step"
    (V(+inf) = v0), the second form free of 1 + tanh's cancellation at x < 0."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        if kind == "step":
            top = mp.mpf(v0)
            v = top / (1 + mp.exp(-x / mp.mpf(alpha)))
        else:
            m, ex = mp.mpf(m), mp.exp(x)
            top = m * m
            v = top * ex / (ex + 1) - (1 if kind == "plus" else -1) * m / 2 * mp.exp(x / 2) / (ex + 1) ** mp.mpf(1.5)
        return float(v), float(v - top)
