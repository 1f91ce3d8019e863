"""susystep: a conditionally exactly solvable pair of SUSY partner
potentials that generalize the smooth step, with exact hypergeometric
wavefunctions, reflection/transmission amplitudes, quasinormal
frequencies, and an independent numerical oracle that cross-checks every
closed form.
"""

from .errors import (
    ConfigError,
    DegenerateCError,
    DegenerateParamsError,
    DomainError,
    GammaPoleError,
    IllConditionedError,
    NonConvergenceError,
    PoleError,
    ResultOverflowError,
    SusystepError,
    ZeroFrequencyError,
)
from .oracle import DEFAULT_CONFIG, IntegrationConfig, extract_rt, integrate_wavefunction, numerical_rt
from .potentials import (
    PotentialKind,
    PotentialSpec,
    potential,
    potential_antiderivative,
    potential_hyperbolic,
    shape_invariance_check,
    superpotential,
    v_minus,
    v_plus,
    v_step,
)
from .scattering import (
    AsymptoticCoefficients,
    ScatteringResult,
    asymptotic_coefficients,
    coefficients_closed_form,
    inverse_transmission_magnitude,
    qnm,
    qnm_pole_check,
    reflection_transmission,
    step_amplitudes,
    step_reflection_closed_form,
    susy_relation_check,
)
from .solutions import (
    SolutionParams,
    WaveField,
    b_exponent,
    exact_solution,
    exact_solution_at_z,
    make_exponents,
    sample_wavefield,
    solution_checks,
)
from .specfun import gamma_ratio, hyp2f1, lngamma

__version__ = "0.1.0"
