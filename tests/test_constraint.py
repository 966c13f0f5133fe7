"""Coupling hyperbola branches, asymptote, and the crossover point."""

import math
import random

import numpy as np
import pytest

import properties as P
from ptwell.constraint import (
    _s_ceiling,
    hyperbola_asymptote,
    quadratic_residual,
    reflected_branch,
    sigma_star,
    upsilon_branch,
    xi_branch,
)
from ptwell.matching import ThetaCurveSpec, theta_curve
from ptwell.model import ModelParams, RotatedPoint, WaveVector, sigma_tau_from_st
from ptwell.spectrum import real_spectrum_bracket


def test_quadratic_residual_values():
    params = ModelParams(Z=1.0, omega=1.0)
    mapped = sigma_tau_from_st(WaveVector(1.0, 0.5), params)
    assert abs(quadratic_residual(mapped, params)) < 1e-12
    assert abs(quadratic_residual(RotatedPoint(0.0, math.sqrt(8.0)), params)) < 1e-12
    assert quadratic_residual(RotatedPoint(0.0, 0.0), params) == pytest.approx(-8.0, rel=1e-14)


def test_quadratic_residual_rejects_degenerate_rotation():
    with pytest.raises(ValueError):
        quadratic_residual(RotatedPoint(0.0, 1.0), ModelParams(Z=1.0, omega=0.0))


def test_xi_branch_values():
    params = ModelParams(Z=1.0, omega=1.0)
    assert xi_branch(0.0, params) == pytest.approx(math.sqrt(8.0), rel=1e-14)
    assert xi_branch(2.0, params) == pytest.approx(math.sqrt(12.0), rel=1e-14)


def test_xi_branch_domain():
    with pytest.raises(ValueError):
        xi_branch(0.0, ModelParams(Z=1.0, omega=-0.5))
    with pytest.raises(ValueError):
        xi_branch(0.0, ModelParams(Z=0.0, omega=0.5))


def test_upsilon_branch_values():
    params = ModelParams(Z=1.0, omega=-1.0)
    assert upsilon_branch(0.0, params) == pytest.approx(math.sqrt(8.0), rel=1e-14)
    assert upsilon_branch(2.0, params) == pytest.approx(math.sqrt(12.0), rel=1e-14)
    with pytest.raises(ValueError):
        upsilon_branch(0.0, ModelParams(Z=1.0, omega=0.5))


def test_reflected_branch_values():
    params = ModelParams(Z=1.0, omega=-1.0)
    assert reflected_branch(0.0, params) == pytest.approx(-math.sqrt(8.0), rel=1e-14)
    assert reflected_branch(2.0, params) == pytest.approx(-math.sqrt(12.0), rel=1e-14)
    with pytest.raises(ValueError):
        reflected_branch(0.0, ModelParams(Z=1.0, omega=0.5))


def test_omega_negative_branches_are_xi_at_abs_omega():
    """Upsilon(tau) at omega < 0 is Xi(tau) at |omega|, and Sigma is
    -Upsilon, bit for bit."""
    rng = random.Random(2004)
    for _ in range(5000):
        Z, om = 10.0 ** rng.uniform(-8.0, 3.0), -(10.0 ** rng.uniform(-4.0, 2.0))
        tau = rng.choice([0.0, rng.uniform(-1.0, 1.0), rng.uniform(-300.0, 300.0)])
        up = upsilon_branch(tau, ModelParams(Z=Z, omega=om))
        assert up.hex() == xi_branch(tau, ModelParams(Z=Z, omega=-om)).hex()
        assert reflected_branch(tau, ModelParams(Z=Z, omega=om)).hex() == (-up).hex()


def test_hyperbola_asymptote_values():
    params = ModelParams(Z=1.0, omega=0.1)
    # X^2 = 2Z(1+omega^2)^2/|omega| = 20.402; 50 + 20.402/50.5 = 50.404
    assert hyperbola_asymptote(-5.0, params) == pytest.approx(50.404, rel=1e-12)
    # mirrored coupling shares the leading diagonal term
    lead = 50.0
    neg = hyperbola_asymptote(-5.0, ModelParams(Z=1.0, omega=-0.1))
    assert neg == pytest.approx(2 * lead - 50.404, rel=1e-12)


def test_hyperbola_asymptote_domain():
    with pytest.raises(ValueError):
        hyperbola_asymptote(-5.0, ModelParams(Z=1.0, omega=0.0))
    with pytest.raises(ValueError):
        hyperbola_asymptote(-1.0, ModelParams(Z=1.0, omega=0.1))


def test_sigma_star_value():
    # frozen from this solver: the rightmost sign change of
    # (envelope deviation) - (hyperbola deviation)/2 on [-50, -2]
    star = sigma_star(ModelParams(Z=1.0, omega=0.1))
    assert star == pytest.approx(-9.880453922598624, abs=1e-6)
    mirrored = sigma_star(ModelParams(Z=1.0, omega=-0.1))
    assert mirrored == pytest.approx(-star, abs=1e-9)


def test_sigma_star_separates_the_deviations():
    params = ModelParams(Z=1.0, omega=0.1)
    envelope = ThetaCurveSpec(p=1, xi=0.0, omega=0.1)
    star = sigma_star(params)
    for off in (0.5, 1.0, 5.0, 20.0):
        sig = star - off
        envelope_dev = abs(theta_curve(envelope, sig) + sig / 0.1)
        hyperbola_dev = abs(xi_branch(sig, params) + sig / 0.1)
        assert envelope_dev < 0.5 * hyperbola_dev


def test_sigma_star_domain():
    with pytest.raises(ValueError):
        sigma_star(ModelParams(Z=1.0, omega=0.0))
    with pytest.raises(ValueError):
        sigma_star(ModelParams(Z=0.0, omega=0.1))


def _meets_level_condition(s, Z, omega):
    """asinh(t/s) >= 2|s - t*omega| on 2st = Z: |sinh(sigma)| <= t/s, which
    s*sinh(sigma) = -t*sin(tau) needs."""
    return np.arcsinh(Z / (2.0 * s * s)) >= np.abs(2.0 * s - Z * omega / s)


def _energy_at(s, Z):
    return Z * Z / (4.0 * s * s) - s * s


def test_no_level_lies_beyond_the_ceiling():
    rng = random.Random(2001)
    n_levels = 0
    for _ in range(200):
        Z = 10.0 ** rng.uniform(-2.0, math.log10(300.0))
        om = rng.choice((0.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(20.0))
        s_c = _s_ceiling(Z, om)
        for st in real_spectrum_bracket(ModelParams(Z=Z, omega=om), e_max=1e4):
            assert st.wave.s <= s_c and st.energy >= _energy_at(s_c, Z), (Z, om, st.energy)
            n_levels += 1
    assert n_levels > 1000


@pytest.mark.parametrize(
    "Z, om",
    [(Z, om) for Z in (0.01, 1.0, 60.0, 300.0) for om in (-20.0, -1e-3, 0.0, 1e-3, 1.0, 20.0)]
    + [(0.01, 7.24), (60.0, 5.0), (2.0, 5.0), (20.0, 5.0), (2.0, 20.0)],
)
def test_level_condition_fails_above_the_ceiling(Z, om):
    s_c = _s_ceiling(Z, om)
    above = s_c * np.geomspace(1.0, 1e4, 400_001)[1:]
    assert not _meets_level_condition(above, Z, om).any()


def test_ceiling_is_the_outer_end_of_two_runs():
    # at (0.01, 7.24) the s meeting the level condition form two separate
    # runs; the ceiling closes the outer one
    Z, om = 0.01, 7.24
    s_c = _s_ceiling(Z, om)
    s = s_c * np.geomspace(1e-3, 1.0, 400_001)
    meets = _meets_level_condition(s, Z, om)
    starts = np.nonzero(meets[1:] & ~meets[:-1])[0]
    assert len(starts) == 2 and not meets[0]
    assert s[np.nonzero(meets)[0][-1]] > s_c * (1.0 - 1e-4)


def test_property_branch_membership():
    assert P.check_branch_membership() == 300


def test_property_branch_back_map():
    assert P.check_branch_back_map() == 300


def test_property_mirror_relation():
    assert P.check_mirror_relation() == 300


def test_property_hyperbola_asymptote_order():
    assert P.check_hyperbola_asymptote_order() == 300
