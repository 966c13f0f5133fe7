"""Matching residuals, frozen-oscillation curves, determinants, states."""

import cmath
import math

import numpy as np
import pytest

import properties as P
from ptwell.errors import (
    AsymptoteError,
    NodeAtMatchingPointError,
    OffContourError,
    PoleError,
    PTWellError,
)
from ptwell.matching import (
    ThetaCurveSpec,
    amplitude_A,
    counting_determinant,
    envelope_asymptote,
    matching_determinant,
    residual_real,
    residual_rotated,
    state_kappas,
    theta_asymptote,
    theta_curve,
    wavefunction_eval,
)
from ptwell.model import ModelParams, RotatedPoint, WaveVector

PI = math.pi


# ---------------------------------------------------------------------------
# residuals


def test_residual_real_values():
    for om in (0.0, 0.3, -1.0):
        params = ModelParams(Z=0.0, omega=om)
        assert abs(residual_real(WaveVector(0.0, PI / 2), params)) < 1e-12
    got = residual_real(WaveVector(1.0, 1.0), ModelParams(Z=2.0, omega=0.0))
    assert got == pytest.approx(math.sinh(2.0) + math.sin(2.0), rel=1e-14)
    for n in range(1, 7):
        r = residual_real(WaveVector(0.0, n * PI / 2), ModelParams(Z=0.0, omega=0.0))
        assert abs(r) < 1e-12


def test_residual_rotated_values():
    got = residual_rotated(RotatedPoint(0.0, 3 * PI / 2), ModelParams(Z=1.0, omega=0.0))
    assert got == pytest.approx(3 * PI / 2, rel=1e-14)
    got = residual_rotated(RotatedPoint(2.0, 7 * PI / 4), ModelParams(Z=1.0, omega=0.0))
    assert got == pytest.approx(-4.7605232114403995, rel=1e-12)


def test_residual_rotated_vanishes_at_solver_roots():
    from ptwell.model import sigma_tau_from_st

    params = ModelParams(Z=1.0, omega=0.1)
    state = P.cached_bracket(1.0, 0.1)[0]
    r = sigma_tau_from_st(state.wave, params)
    assert abs(residual_rotated(r, params)) < 1e-9


def test_residual_rotated_pole_and_asymptote():
    params = ModelParams(Z=1.0, omega=1.0)
    with pytest.raises(PoleError):
        residual_rotated(RotatedPoint(0.5, PI), params)
    # 1 - rho*omega*sinh(sigma) = 0 at sigma = asinh(1/(rho*omega))
    sigma = math.asinh(1.0 / math.sqrt(2.0))
    with pytest.raises(AsymptoteError):
        residual_rotated(RotatedPoint(sigma, 7 * PI / 4), params)


# ---------------------------------------------------------------------------
# frozen-oscillation curves


def test_theta_curve_values():
    spec = ThetaCurveSpec(p=1, xi=0.0, omega=0.0)
    assert theta_curve(spec, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-14)
    assert theta_curve(spec, 0.0) == 0.0


def test_theta_asymptote_location():
    spec = ThetaCurveSpec(p=1, xi=0.0, omega=0.06)
    pole = theta_asymptote(spec)
    assert pole == pytest.approx(math.asinh(1.0 / 0.06), rel=1e-14)
    assert pole == pytest.approx(3.5074566847442554, rel=1e-12)
    with pytest.raises(AsymptoteError):
        theta_curve(spec, pole)
    with pytest.raises(ValueError):
        theta_asymptote(ThetaCurveSpec(p=1, xi=0.0, omega=0.0))


def test_theta_curve_overflow_names_sigma_max():
    for om in (0.0, 0.1, -0.1):
        with pytest.raises(PTWellError, match="--sigma-max"):
            theta_curve(ThetaCurveSpec(p=1, xi=0.5, omega=om), -800.0)


def test_theta_curve_spec_validation():
    with pytest.raises(ValueError):
        ThetaCurveSpec(p=0, xi=0.0, omega=0.1)
    with pytest.raises(ValueError):
        ThetaCurveSpec(p=1, xi=1.0, omega=0.1)


# ---------------------------------------------------------------------------
# envelope asymptote


def test_envelope_asymptote_values():
    up = envelope_asymptote(-5.0, 0.1, 1)
    lo = envelope_asymptote(-5.0, 0.1, -1)
    assert up == pytest.approx(50.13611270888895, rel=1e-12)
    assert lo == pytest.approx(49.86388729111105, rel=1e-12)
    assert up - lo == pytest.approx(0.27222541777789955, rel=1e-12)
    assert envelope_asymptote(-10.0, 1.0, 1) == pytest.approx(10.000181599719424, rel=1e-12)
    assert envelope_asymptote(-10.0, 1.0, -1) == pytest.approx(9.999818400280576, rel=1e-12)


def test_envelope_asymptote_past_sinh_overflow():
    # 1/sinh(sigma) is below any double once sinh overflows
    assert envelope_asymptote(-800.0, 0.1, 1) == 800.0 / 0.1
    assert envelope_asymptote(-800.0, -0.1, -1) == 800.0 / 0.1
    assert envelope_asymptote(-700.0, 0.1, 1) == 700.0 / 0.1 - (0.1 + 1.0 / 0.1) / math.sinh(-700.0)


def test_envelope_asymptote_validation():
    with pytest.raises(ValueError):
        envelope_asymptote(-5.0, 0.0, 1)
    with pytest.raises(ValueError):
        envelope_asymptote(-5.0, 0.1, 0)
    with pytest.raises(ValueError):
        envelope_asymptote(-1.0, 0.1, 1)


def test_envelope_tube_second_order_term():
    """The xi = 0 curves approach the diagonal -sigma/omega with the
    deviation -p*sigma*(1 + 1/omega^2)/sinh(sigma) to leading order."""
    for om in (0.3, 0.5, 1.0):
        for p in (1, -1):
            spec = ThetaCurveSpec(p=p, xi=0.0, omega=om)
            for sigma in np.linspace(-12.0, -6.0, 25):
                sigma = float(sigma)
                dev = theta_curve(spec, sigma) + sigma / om
                lead = -p * sigma * (1.0 + 1.0 / om**2) / math.sinh(sigma)
                assert 0.9 <= dev / lead <= 1.1, (om, p, sigma, dev / lead)


def test_envelope_asymptote_error_order_is_inverse_sinh_squared():
    """Deliberately failing: the remainder after subtracting the envelope
    closed form should shrink like sinh(sigma)^-2 if that form captured
    the full first-order term, i.e. dev*sinh(sigma)^2 should stay bounded
    as sigma -> -inf. Measured: the remainder is O(|sigma|/|sinh sigma|)
    (the first-order coefficient grows linearly in sigma, while the
    closed form uses a constant), so dev*sinh^2 grows from ~4.4e2 at
    sigma=-4 to ~4.7e6 at sigma=-12. Kept red on purpose; see the
    project decision log."""
    om = 0.5
    worst = []
    for p in (1, -1):
        spec = ThetaCurveSpec(p=p, xi=0.0, omega=om)
        ratios = []
        for sigma in (-4.0, -8.0, -12.0):
            th = theta_curve(spec, sigma)
            dev = min(abs(th - envelope_asymptote(sigma, om, b)) for b in (1, -1))
            ratios.append(dev * math.sinh(sigma) ** 2)
        worst.append(ratios[-1] / ratios[0])
        assert ratios[-1] <= 50.0 * ratios[0], (
            f"remainder is not O(sinh^-2): dev*sinh^2 grew by x{ratios[-1] / ratios[0]:.3g} "
            f"from sigma=-4 to sigma=-12 (p={p}); growth rate matches |sigma*sinh(sigma)|"
        )


# ---------------------------------------------------------------------------
# determinants


def test_matching_determinant_values():
    p00 = ModelParams(Z=0.0, omega=0.0)
    assert abs(matching_determinant(PI * PI / 4, p00)) < 1e-12
    assert matching_determinant(1.0, p00) == pytest.approx(-math.sin(2.0), abs=1e-14)
    assert abs(matching_determinant(PI * PI / 4, ModelParams(Z=0.0, omega=0.3))) < 1e-12


def test_matching_determinant_vectorized():
    params = ModelParams(Z=1.0, omega=0.1)
    es = np.array([1.0, 10.0, 100.0 + 5.0j], dtype=complex)
    vec = matching_determinant(es, params)
    assert vec.shape == (3,)
    for e, v in zip(es, vec):
        assert complex(matching_determinant(complex(e), params)) == pytest.approx(
            complex(v), rel=1e-14
        )


def test_counting_determinant_excludes_trivial_zeros():
    """D has forced zeros at E = +-iZ where one branch wave number
    vanishes; the normalized form must stay finite and nonzero there."""
    for Z, om in ((1.0, 0.1), (1.0, 0.0), (4.0, -0.2)):
        params = ModelParams(Z=Z, omega=om)
        for e in (1j * Z, -1j * Z):
            g = counting_determinant(e, params)
            assert np.isfinite(g.real) and np.isfinite(g.imag)
            assert abs(g) > 0.1, (Z, om, e, g)


def test_counting_determinant_shares_roots_with_matching():
    params = ModelParams(Z=1.0, omega=0.1)
    for state in P.cached_bracket(1.0, 0.1)[:6]:
        e = state.energy
        h = 1e-6 * max(1.0, abs(e))
        slope = abs(
            counting_determinant(e + h, params) - counting_determinant(e - h, params)
        ) / (2.0 * h)
        assert abs(counting_determinant(e, params)) <= slope * 1e-8 * max(1.0, abs(e))


# ---------------------------------------------------------------------------
# states and wavefunctions


def test_amplitude_values():
    p0 = ModelParams(Z=0.0, omega=0.0)
    assert amplitude_A(WaveVector(0.0, PI / 2), p0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(NodeAtMatchingPointError):
        amplitude_A(WaveVector(0.0, PI), p0)
    state = P.cached_bracket(1.0, 0.0)[0]
    a = amplitude_A(state.wave, ModelParams(Z=1.0, omega=0.0))
    assert isinstance(a, float) and math.isfinite(a)


def test_state_kappas_conjugate_for_real_states():
    state = P.cached_bracket(1.0, 0.1)[0]
    km, kp = state_kappas(state)
    assert km == pytest.approx(kp.conjugate(), rel=1e-15)
    assert kp == pytest.approx(complex(state.wave.s, -state.wave.t), rel=1e-15)


def test_wavefunction_boundary_and_matching_point():
    state = P.cached_bracket(1.0, 0.1)[0]
    om = state.params.omega
    assert abs(wavefunction_eval(state, -1.0)) < 1e-12
    assert abs(wavefunction_eval(state, 1.0)) < 1e-12
    assert wavefunction_eval(state, 1j * om) == pytest.approx(1.0 + 0.0j, abs=1e-10)


def test_wavefunction_rejects_points_off_the_contour():
    state = P.cached_bracket(1.0, 0.1)[0]
    with pytest.raises(OffContourError):
        wavefunction_eval(state, 0.5 + 0.3j)
    with pytest.raises(OffContourError):
        wavefunction_eval(state, 0.5)  # real midpoint is not on the bent path


def test_wavefunction_continuous_across_the_corner():
    state = P.cached_bracket(2.0, -0.2)[1]
    corner = 1j * state.params.omega
    left = wavefunction_eval(state, -1.0 + 0.999999 * (1.0 + corner))
    right = wavefunction_eval(state, corner + 1e-6 * (1.0 - corner))
    assert left == pytest.approx(right, rel=1e-4)


# ---------------------------------------------------------------------------
# randomized properties


def test_property_roots_kill_determinant():
    assert P.check_roots_kill_determinant() >= 30


def test_property_determinant_conjugation():
    assert P.check_determinant_conjugation() == 300


def test_property_lattice_self_consistency():
    assert P.check_lattice_self_consistency() >= 30


def test_property_envelope_bound():
    assert P.check_envelope_bound(n=12) >= 240


def test_property_phi_zero_reduction():
    assert P.check_phi_zero_reduction() == 300


def test_property_z_zero_determinant():
    assert P.check_z_zero_determinant() == 300
