"""Extended-precision references for the benchmark's accuracy gate.

Every value here is computed in mpmath at ``DPS`` significant digits from
the closed forms stated in the susystep docstrings and the source paper,
sharing no code with the package: the amplitudes from their sinh closed
forms (the step transmission from its Gamma product), the wavefunctions
from the two-term hypergeometric construction, the potentials and the
quasinormal frequencies from their defining expressions.

``Tally`` turns (computed, reference) pairs into the benchmark's counts:
an output *fails* when it misses the accuracy the library documents for
it, and is *gross* when it is off by more than ``GROSS_TOL``, which no
documented contract allows and which marks the run incorrect.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 30

# The smallest normal double: reference values below it can only be
# represented to an absolute, not relative, precision.
TINY = 2.2250738585072014e-308

# A normalized error above this is not an accuracy miss but a wrong
# value (wrong branch, wrong formula, corrupt output).
GROSS_TOL = 1e-2


class Tally:
    """Outcome of judging a workload's outputs.

    An *item* is one user-visible output unit (a CSV row, a wavefunction
    value, a verification check); it holds one or more values, each judged
    by the normalized error ``|got - ref| / max(|ref|, floor)`` against its
    documented tolerance.  An item fails if any value misses.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.gross = 0
        self.notes = []

    def item(self, values):
        """Judge one item; ``values`` holds (got, ref, floor, tol) tuples."""
        ok = True
        for got, ref, floor, tol in values:
            err = abs(got - ref) / max(abs(ref), floor)
            if math.isnan(err):
                err = math.inf
            ok &= err <= tol
            self.gross += err > GROSS_TOL
            self.max_err = max(self.max_err, err)
        self.attempted += 1
        self.failed += not ok

    def flag(self, ok, note):
        """Count one item judged by a pass/fail contract of its own."""
        self.attempted += 1
        self.failed += not ok
        if not ok:
            self.notes.append(note)

    def raised(self, count, note):
        """Count ``count`` items whose operation raised instead of returning."""
        self.attempted += count
        self.failed += count
        self.notes.append(note)


def _kprime(omega, m):
    return mp.sqrt(omega * omega - m * m)


def partner_r2_t2(omega: float, m: float):
    """|R|^2, |T|^2 of V+/V- from the sinh closed forms."""
    with mp.workdps(DPS):
        w, m = mp.mpf(omega), mp.mpf(m)
        kp = _kprime(w, m)
        r2 = mp.sinh(2 * mp.pi * (w - kp)) / mp.sinh(2 * mp.pi * (w + kp))
        t2 = (w / kp) * 2 * mp.cosh(2 * mp.pi * w) * mp.sinh(2 * mp.pi * kp) / mp.sinh(2 * mp.pi * (w + kp))
        return float(r2), float(t2)


def step_r2_t2(omega: float, m: float):
    """|R|^2 (sinh closed form) and |T|^2 (Gamma product) of the smooth
    step with height m^2 and unit width."""
    with mp.workdps(DPS):
        w, m = mp.mpf(omega), mp.mpf(m)
        kp = _kprime(w, m)
        r2 = (mp.sinh(mp.pi * (w - kp)) / mp.sinh(mp.pi * (w + kp))) ** 2
        iw, ikp = 1j * w, 1j * kp
        t = mp.gamma(1 - iw - ikp) * mp.gamma(-iw - ikp) / (mp.gamma(-2 * iw) * mp.gamma(1 - 2 * ikp))
        return float(r2), float(abs(t) ** 2)


def partner_potentials(x: float, m: float):
    """(V+, V-, W) and the magnitude of the larger of V's two terms, the
    scale against which a difference of those terms is judged."""
    with mp.workdps(DPS):
        x, m = mp.mpf(x), mp.mpf(m)
        s = mp.exp(x) / (mp.exp(x) + 1)
        first = m * m * s
        second = (m / 2) * mp.exp(x / 2) / (mp.exp(x) + 1) ** mp.mpf(1.5)
        w = -m / mp.sqrt(1 + mp.exp(-x))
        return float(first - second), float(first + second), float(w), float(max(first, second))


def qnm_partner(n: int, m: float) -> float:
    """Imaginary part of the partner quasinormal frequency of overtone n
    (the real part is zero)."""
    with mp.workdps(DPS):
        return float(-(n + 1 - 4 * mp.mpf(m) ** 2 / (n + 1)) / 4)


def wavefunction(branch: str, sign: int, omega: float, m: float, *, x=None, z=None) -> complex:
    """Z_sign^branch at x (or at z = e^x/(e^x+1)) for real omega > m and the
    unit normalization G1 = H1 = 1, built term by term from the paper's
    construction: exponents B = i sqrt(omega^2 - m^2), C1 = i omega,
    C2 = C1 + 1/2; parameters a1 = C1 + B + 1/2, b1 = C1 + B,
    c1 = 2 C1 + 1/2, a2 = b1 + 1, b2 = a1, c2 = c1 + 1; coupled
    constants G2 = i (a1 - c1) b1 / (m c1), H2 = i (1 - c1) / m; and
    Z = e^(-i pi/4) (R1 + sign i R2)."""
    with mp.workdps(DPS):
        w, m = mp.mpf(omega), mp.mpf(m)
        if x is not None:
            x = mp.mpf(x)
            log_z = -mp.log1p(mp.exp(-x))
            log_u = log_z - x
        else:
            z = mp.mpf(z)
            log_z, log_u = mp.log(z), mp.log1p(-z)
        zz = mp.exp(log_z)
        half = mp.mpf(1) / 2
        B = 1j * _kprime(w, m)
        C1 = 1j * w
        C2 = C1 + half
        a1, b1, c1 = C1 + B + half, C1 + B, 2 * C1 + half
        a2, b2, c2 = b1 + 1, a1, c1 + 1
        if branch == "I":
            r1 = mp.exp(C1 * log_z + B * log_u) * mp.hyp2f1(a1, b1, c1, zz)
            g2 = 1j * (a1 - c1) * b1 / (m * c1)
            r2 = g2 * mp.exp(C2 * log_z + B * log_u) * mp.hyp2f1(a2, b2, c2, zz)
        else:
            r1 = mp.exp((C1 + 1 - c1) * log_z + B * log_u) * mp.hyp2f1(a1 - c1 + 1, b1 - c1 + 1, 2 - c1, zz)
            h2 = 1j * (1 - c1) / m
            r2 = h2 * mp.exp((C2 + 1 - c2) * log_z + B * log_u) * mp.hyp2f1(a2 - c2 + 1, b2 - c2 + 1, 2 - c2, zz)
        return complex(mp.exp(-1j * mp.pi / 4) * (r1 + sign * 1j * r2))
