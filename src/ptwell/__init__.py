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

The package's public names load on first use: `import ptwell` imports none
of the submodules (nor numpy), and `ptwell.count_real` imports
`ptwell.spectrum` when it is first read. So `python -m ptwell` can set
up its process before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys(
        ("hyperbola_asymptote", "quadratic_residual", "reflected_branch", "sigma_star",
         "upsilon_branch", "xi_branch"),
        "constraint",
    ),
    **dict.fromkeys(
        ("AsymptoteError", "CountMismatchError", "NodeAtMatchingPointError", "OffContourError",
         "PoleError", "PTWellError", "QuadrantError", "SolverError", "WindowError"),
        "errors",
    ),
    **dict.fromkeys(
        ("ThetaCurveSpec", "amplitude_A", "counting_determinant", "envelope_asymptote",
         "matching_determinant", "residual_real", "residual_rotated", "state_kappas",
         "theta_asymptote", "theta_curve", "wavefunction_eval"),
        "matching",
    ),
    **dict.fromkeys(
        ("BoundState", "LatticeIndex", "ModelParams", "RotatedPoint", "WaveVector",
         "energy_from_sigma_tau", "energy_from_st", "kappa_from_st", "lattice_compose",
         "lattice_decompose", "omega_factor", "sigma_tau_from_st", "st_from_sigma_tau"),
        "model",
    ),
    **dict.fromkeys(
        ("EnergyWindow", "SpectrumReport", "complex_spectrum", "count_real",
         "critical_couplings", "determinant_real_roots", "hermitian_spectrum",
         "real_spectrum_bracket", "real_spectrum_lattice"),
        "spectrum",
    ),
}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    """Import the submodule that defines `name` and keep the value here."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
