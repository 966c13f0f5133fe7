"""Spectral solver for a square well continued along a complex-shifted
contour, with an imaginary antisymmetric coupling of strength Z and a
contour shift parameter omega.

The model module holds the parameter and coordinate types and the exact
transforms between the wave-number, rotated, and lattice coordinate
systems. The matching module evaluates the level-matching residuals, the
quantization determinant, and the frozen-oscillation curves. The
constraint module carries the coupling hyperbola and its asymptotics.
The roots module is the bracketed-root kernel of every real root search.
The spectrum module produces real levels (three independent methods:
bracketing, lattice tracing and the determinant scan), complex conjugate
pairs (argument-principle counting), level counts, and critical
couplings. The cli module is the command-line front end.
"""

from .constraint import (
    hyperbola_asymptote,
    quadratic_residual,
    reflected_branch,
    sigma_star,
    upsilon_branch,
    xi_branch,
)
from .errors import (
    AsymptoteError,
    CountMismatchError,
    NodeAtMatchingPointError,
    OffContourError,
    PoleError,
    PTWellError,
    QuadrantError,
    SolverError,
    WindowError,
)
from .matching import (
    ThetaCurveSpec,
    amplitude_A,
    counting_determinant,
    envelope_asymptote,
    matching_determinant,
    residual_real,
    residual_rotated,
    theta_asymptote,
    theta_curve,
    wavefunction_eval,
)
from .model import (
    BoundState,
    LatticeIndex,
    ModelParams,
    RotatedPoint,
    WaveVector,
    energy_from_sigma_tau,
    energy_from_st,
    kappa_from_st,
    lattice_compose,
    lattice_decompose,
    omega_factor,
    sigma_tau_from_st,
    st_from_sigma_tau,
)
from .spectrum import (
    EnergyWindow,
    SpectrumReport,
    complex_spectrum,
    count_real,
    critical_couplings,
    determinant_real_roots,
    hermitian_spectrum,
    real_spectrum_bracket,
    real_spectrum_lattice,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ModelParams",
    "WaveVector",
    "RotatedPoint",
    "LatticeIndex",
    "BoundState",
    "kappa_from_st",
    "energy_from_st",
    "sigma_tau_from_st",
    "st_from_sigma_tau",
    "energy_from_sigma_tau",
    "lattice_compose",
    "lattice_decompose",
    "omega_factor",
    "ThetaCurveSpec",
    "residual_real",
    "residual_rotated",
    "theta_curve",
    "theta_asymptote",
    "envelope_asymptote",
    "matching_determinant",
    "counting_determinant",
    "amplitude_A",
    "wavefunction_eval",
    "quadratic_residual",
    "xi_branch",
    "upsilon_branch",
    "reflected_branch",
    "hyperbola_asymptote",
    "sigma_star",
    "EnergyWindow",
    "SpectrumReport",
    "hermitian_spectrum",
    "real_spectrum_bracket",
    "real_spectrum_lattice",
    "determinant_real_roots",
    "complex_spectrum",
    "count_real",
    "critical_couplings",
    "PTWellError",
    "QuadrantError",
    "PoleError",
    "AsymptoteError",
    "NodeAtMatchingPointError",
    "OffContourError",
    "WindowError",
    "SolverError",
    "CountMismatchError",
]
