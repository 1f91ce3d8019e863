"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package: log-Gamma comes from a
plain 64-step recurrence into the Stirling regime (no Lanczos, no
compensated summation), the hypergeometric reference is a brute-force
extended-precision summation of the defining series in mpmath, and the
wave-equation reference is a point-by-point complex fourth-order Magnus
march whose step exponentials come from ``cmath``, and the potentials'
reference evaluates their closed forms in mpmath.
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


def magnus_march_oracle(v, omega, start, x_min, x_max, n):
    """Reference fourth-order Magnus march of Z'' = (V - omega^2) Z from
    x_max down to x_min in n equal steps, one complex step at a time,
    starting from the caller's (Z, Z') = ``start`` at x_max.  ``v`` samples the
    potential on an array of x; it is called once, on the 2n + 1 point
    half-step grid.  Each step with d = -h and q = V - omega^2 at its start,
    middle and end has the exponent [[-e, d], [d qs, e]], qs = (q0 + 4 qm +
    q1)/6 and e = d^2 (q1 - q0)/12, whose exponential is cosh(s) I +
    (sinh(s)/s) Omega with s = sqrt(e^2 + d^2 qs) taken by ``cmath``.
    Returns the n + 1 values on the grid in increasing x."""
    h = (x_max - x_min) / n
    xs_half = [x_min + (x_max - x_min) * k / (2 * n) for k in range(2 * n + 1)]
    xs_half[-1] = x_max
    q = [float(vk) - omega * omega for vk in v(xs_half)]
    zc, dz = start
    values = [zc]
    d = -h
    for i in range(n):
        q0, qm, q1 = q[2 * (n - i)], q[2 * (n - i) - 1], q[2 * (n - i) - 2]
        qs = (q0 + 4.0 * qm + q1) / 6.0
        e = d * d * (q1 - q0) / 12.0
        s = cmath.sqrt(e * e + d * d * qs)
        cosh_s, sinhc_s = cmath.cosh(s), (cmath.sinh(s) / s if s else 1.0)
        zc, dz = ((cosh_s - sinhc_s * e) * zc + sinhc_s * d * dz,
                  sinhc_s * d * qs * zc + (cosh_s + sinhc_s * e) * dz)
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
