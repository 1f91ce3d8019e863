"""Exception hierarchy shared by all susystep modules, and the real-value rules
it is raised on: ``finite_real`` for one number, ``real_array`` for an array."""

import math
import numbers
import sys

import numpy as np


def finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that a double holds
    (not an int past the double range, which ``float`` refuses)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)


def real_array(value, name):
    """``value`` as a new float array of its shape; ``DomainError`` unless its dtype
    is real (not bool, complex or non-numeric).  Shape and range are the caller's."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real, got dtype {array.dtype}")
    return array.astype(float)


class SusystepError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SusystepError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(SusystepError):
    """A Gamma-function argument sits on (or too close to) a pole.

    ``location`` distinguishes where the pole occurred inside a Gamma
    ratio: ``"numerator"`` poles make the ratio infinite (an amplitude
    pole, which quasinormal-mode detection exploits), ``"denominator"``
    poles make it zero and violate the caller's precondition.
    """

    def __init__(self, argument, location="numerator"):
        self.argument = argument
        self.location = location
        super().__init__(
            f"Gamma argument {argument} is within tolerance of a non-positive "
            f"integer ({location} pole)"
        )


class NonConvergenceError(SusystepError):
    """A series failed to converge within the allowed number of terms."""


class DegenerateParamsError(SusystepError):
    """c - a - b is too close to an integer for the connection formula."""


class ZeroFrequencyError(SusystepError):
    """omega = 0, where the first-order factorization of the wave equation fails."""


class DegenerateCError(SusystepError):
    """The hypergeometric parameter c1 is too close to an integer, so the
    two power-series solutions degenerate (a logarithmic branch appears)."""


class GammaPoleError(SusystepError):
    """A scattering Gamma-product hit a pole; signals a quasinormal
    frequency or degenerate parameters rather than a numerical bug."""


class ConfigError(SusystepError):
    """An integration configuration is inconsistent or unusable."""


class BlowUpError(SusystepError):
    """The integrated wavefunction exceeded the overflow guard; the
    frequency is below the propagation threshold or the step is too coarse."""


class IllConditionedError(SusystepError):
    """The boundary-matching least-squares system is numerically singular."""


class ResultOverflowError(SusystepError, OverflowError):
    """A result lies past the double range (a Gamma ratio, a connection power)."""
