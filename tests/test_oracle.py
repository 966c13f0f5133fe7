"""Every root against an external 50-digit reference.

Agreement of the three real-level methods shows only that they agree with
each other. Here each root is checked with the benchmark's oracle, one
mpmath Newton step |D(E)/D'(E)| of the matching determinant in its plain
two-product form at 50 digits, loaded from perfbench/checks.py so that the
oracle has one definition.
"""

import importlib.util
import pathlib

import pytest

pytest.importorskip("mpmath")

from ptwell.model import ModelParams  # noqa: E402
from ptwell.spectrum import (  # noqa: E402
    EnergyWindow,
    complex_spectrum,
    determinant_real_roots,
    real_spectrum_bracket,
    real_spectrum_lattice,
)

_CHECKS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

# criterion 6's coupling/tilt grid
GRID = [(Z, om) for Z in (0.5, 1.0, 2.0, 4.0) for om in (0.0, 0.05, -0.05, 0.2, -0.2)]


def _assert_roots(roots, params):
    for E in roots:
        E = complex(E)
        step = checks.oracle_step(E, params.Z, params.omega)
        assert step <= checks.ORACLE_TOL * max(1.0, abs(E)), (params, E, step)


@pytest.mark.parametrize("Z, om", GRID)
def test_real_levels_pass_the_oracle(Z, om):
    params = ModelParams(Z=Z, omega=om)
    for roots in (
        [st.energy for st in real_spectrum_bracket(params, e_max=400.0)],
        [st.energy for st in real_spectrum_lattice(params, k_max=3)],
        determinant_real_roots(params, e_max=400.0),
    ):
        assert roots
        _assert_roots(roots, params)


# ground levels beyond s = 12 or below E = -Z - 1, where a fixed end of
# the bracket sweep or of the determinant scan would lose them; at (2, 20)
# tau is about 179.6, so the lattice tracer needs k_max >= 28 to reach it
DEEP_LEVELS = [
    (300.0, 1.0, -10.1168),
    (60.0, 5.0, -142.792),
    (2.0, 5.0, -5.02344),
    (20.0, 5.0, -48.7142),
    (2.0, 20.0, -20.0037),
]


@pytest.mark.parametrize("Z, om, E", DEEP_LEVELS)
def test_deep_levels_agree_across_methods_and_pass_the_oracle(Z, om, E):
    params = ModelParams(Z=Z, omega=om)
    for roots in (
        [st.energy for st in real_spectrum_bracket(params)],
        [st.energy for st in real_spectrum_lattice(params, k_max=30)],
        determinant_real_roots(params, e_max=2000.0),
    ):
        assert roots == [pytest.approx(E, rel=1e-5)]
        _assert_roots(roots, params)


def test_complex_spectrum_passes_the_oracle():
    """Criterion 5's window: the real levels (none lie this high) and both
    members of each pair."""
    params = ModelParams(Z=1.0, omega=0.1)
    rep = complex_spectrum(params, EnergyWindow(2100.0, 3500.0, -200.0, 200.0))
    assert len(rep.complex_pairs) >= 3
    _assert_roots([st.energy for st in rep.real_levels], params)
    _assert_roots([e for pair in rep.complex_pairs for e in (pair, pair.conjugate())], params)
