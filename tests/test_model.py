"""Coordinate transforms, lattice indexing, and their exact inverses."""

import math

import pytest

import properties as P
from ptwell.errors import PoleError, QuadrantError
from ptwell.model import (
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

PI = math.pi


def test_params_store_rotation_angle():
    assert ModelParams(Z=1.0, omega=0.0).phi == 0.0
    assert ModelParams(Z=1.0, omega=1.0).phi == pytest.approx(PI / 4, rel=1e-15)
    assert ModelParams(Z=2.0, omega=-1.0).phi == pytest.approx(-PI / 4, rel=1e-15)


@pytest.mark.parametrize(
    "Z, omega, message",
    [
        (-1.0, 0.1, "coupling Z must be >= 0"),
        (math.nan, 0.1, "coupling Z must be >= 0"),
        (math.inf, 0.1, "coupling Z must be finite"),
        (1.0, math.inf, "omega must be finite"),
        (1.0, -math.inf, "omega must be finite"),
        (1.0, math.nan, "omega must be finite"),
    ],
)
def test_params_validation(Z, omega, message):
    with pytest.raises(ValueError, match=message):
        ModelParams(Z=Z, omega=omega)


def test_kappa_values():
    assert kappa_from_st(WaveVector(1.0, 2.0)) == 1.0 - 2.0j
    assert kappa_from_st(WaveVector(0.0, PI / 2)) == complex(0.0, -PI / 2)
    assert kappa_from_st(WaveVector(3.0, 0.0)) == 3.0 + 0.0j


def test_energy_values():
    assert energy_from_st(WaveVector(0.0, PI / 2)) == pytest.approx(PI * PI / 4, rel=1e-15)
    assert energy_from_st(WaveVector(1.0, 1.0)) == 0.0
    assert energy_from_st(WaveVector(1.0, 2.0)) == pytest.approx(3.0, rel=1e-15)


def test_rotation_values():
    w = WaveVector(1.0, 2.0)
    r0 = sigma_tau_from_st(w, ModelParams(Z=4.0, omega=0.0))
    assert (r0.sigma, r0.tau) == (2.0, 4.0)
    r1 = sigma_tau_from_st(w, ModelParams(Z=4.0, omega=1.0))
    assert (r1.sigma, r1.tau) == (-2.0, 6.0)
    r2 = sigma_tau_from_st(WaveVector(0.0, 1.0), ModelParams(Z=0.0, omega=0.5))
    assert (r2.sigma, r2.tau) == (-1.0, 2.0)


def test_rotation_inverse_values():
    p1 = ModelParams(Z=4.0, omega=1.0)
    w = st_from_sigma_tau(RotatedPoint(-2.0, 6.0), p1)
    assert w.s == pytest.approx(1.0, abs=1e-14)
    assert w.t == pytest.approx(2.0, abs=1e-14)
    w0 = st_from_sigma_tau(RotatedPoint(0.0, 2.0), ModelParams(Z=0.0, omega=0.0))
    assert (w0.s, w0.t) == (0.0, 1.0)


def test_rotation_inverse_rejects_nonphysical_preimage():
    with pytest.raises(QuadrantError):
        st_from_sigma_tau(RotatedPoint(-4.0, 0.0), ModelParams(Z=1.0, omega=0.0))


def test_energy_from_rotated_point():
    assert energy_from_sigma_tau(
        RotatedPoint(2.0, 4.0), ModelParams(Z=4.0, omega=0.0)
    ) == pytest.approx(3.0, rel=1e-14)
    assert energy_from_sigma_tau(
        RotatedPoint(-2.0, 6.0), ModelParams(Z=4.0, omega=1.0)
    ) == pytest.approx(3.0, rel=1e-14)
    assert energy_from_sigma_tau(RotatedPoint(0.0, 0.0), ModelParams(Z=1.0, omega=0.7)) == 0.0


def test_lattice_compose_values():
    assert lattice_compose(LatticeIndex(0, 1, 1, 0.5)) == pytest.approx(7 * PI / 4, rel=1e-15)
    assert lattice_compose(LatticeIndex(0, 1, 1, 0.0)) == pytest.approx(3 * PI / 2, rel=1e-15)
    assert lattice_compose(LatticeIndex(2, -1, 1, 0.2)) == pytest.approx(4.6 * PI, rel=1e-15)


def test_lattice_decompose_values():
    idx = lattice_decompose(7 * PI / 4)
    assert (idx.k, idx.p, idx.q) == (0, 1, 1) and idx.xi == pytest.approx(0.5, abs=1e-14)
    # quarter-interval boundary lands on xi = 0 with q = -1 by convention
    idx = lattice_decompose(3 * PI / 2)
    assert (idx.k, idx.p, idx.q, idx.xi) == (0, 1, -1, 0.0)
    idx = lattice_decompose(4.6 * PI)
    assert (idx.k, idx.p) == (2, -1) and idx.xi == pytest.approx(0.2, abs=1e-13)


def test_lattice_decompose_pole():
    for tau in (0.0, PI, -PI, 2 * PI, 10 * PI):
        with pytest.raises(PoleError):
            lattice_decompose(tau)


def test_omega_factor_values():
    assert omega_factor(1, 0.0) == 1.0
    assert omega_factor(-1, 2.0 / 3.0) == pytest.approx(-2.0, rel=1e-15)
    assert omega_factor(1, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_omega_factor_validation():
    with pytest.raises(ValueError):
        omega_factor(0, 0.5)
    with pytest.raises(ValueError):
        omega_factor(1, 1.0)
    with pytest.raises(ValueError):
        omega_factor(1, -0.1)


def test_lattice_index_validation():
    with pytest.raises(ValueError):
        LatticeIndex(0, 2, 1, 0.5)
    with pytest.raises(ValueError):
        LatticeIndex(0, 1, 1, 1.0)


def test_bound_state_carries_its_parameters():
    params = ModelParams(Z=1.0, omega=0.1)
    st = BoundState(kind="real", energy=2.5, params=params, wave=WaveVector(0.2, 1.6))
    assert st.params.omega == 0.1 and st.kind == "real"


def test_bound_state_requires_its_wave_vector():
    with pytest.raises(TypeError, match="wave"):
        BoundState(kind="real", energy=2.5, params=ModelParams(Z=1.0, omega=0.1))


def test_property_st_roundtrip():
    assert P.check_st_roundtrip() == 300


def test_property_energy_consistency():
    assert P.check_energy_consistency() == 300


def test_property_lattice_roundtrip():
    assert P.check_lattice_roundtrip() == 300


def test_property_omega_factor_on_lattice():
    assert P.check_omega_factor_lattice() == 300


def test_property_hyperbola_preservation():
    assert P.check_hyperbola_preservation() == 300
