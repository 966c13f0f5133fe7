"""Every form of the matching condition at the complex matching point.

The two half-well solutions sinh(kappa_minus (1 + x)) and
sinh(kappa_plus (1 - x)) must agree in value and derivative where the
contour bends. Equivalent scalar forms implemented here:

* residual_real  -- s*sinh(sigma) + t*sin(tau), the compact real form;
* residual_rotated -- the same condition written with the oscillation
  frozen into rho(tau) = -1/sin(tau);
* theta_curve    -- the smooth curve family obtained by replacing rho
  with the lattice constant Omega(p, xi);
* matching_determinant -- the normalization-free Wronskian D(E), valid
  for complex energies and hence for broken-symmetry pairs.

counting_determinant rescales D by its trivial prefactor so the result
is entire in E and vanishes only at actual eigenvalues; root counting
integrates its phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymptoteError,
    NodeAtMatchingPointError,
    OffContourError,
    PoleError,
    PTWellError,
)
from .model import (
    BoundState,
    ModelParams,
    RotatedPoint,
    WaveVector,
    _sigma_tau_from_st_raw,
    kappa_from_st,
    omega_factor,
)

__all__ = [
    "ThetaCurveSpec",
    "residual_real",
    "residual_rotated",
    "theta_curve",
    "theta_asymptote",
    "envelope_asymptote",
    "matching_determinant",
    "counting_determinant",
    "amplitude_A",
    "state_kappas",
    "wavefunction_eval",
]

_POLE_TOL = 1e-14
_ASYMPTOTE_TOL = 1e-12
_NODE_TOL = 1e-12


@dataclass(frozen=True)
class ThetaCurveSpec:
    """One member of the frozen-oscillation curve family: fixed p, xi, omega."""

    p: int
    xi: float
    omega: float

    def __post_init__(self) -> None:
        omega_factor(self.p, self.xi)  # validates p and xi

    @property
    def Omega(self) -> float:
        return omega_factor(self.p, self.xi)


def _residual_real_st(s, t, omega):
    """Vectorized core of residual_real on raw floats/arrays."""
    sigma, tau = _sigma_tau_from_st_raw(s, t, omega)
    return _residual_of(s, t, np.sinh(sigma), np.sin(tau))


def _residual_of(s, t, sinh_sigma, sin_tau):
    """The residual from sinh(sigma) and sin(tau), computed by the caller in
    its number type (np.sinh and math.sinh differ in the last bit)."""
    return s * sinh_sigma + t * sin_tau


def residual_real(w: WaveVector, params: ModelParams) -> float:
    """s*sinh(sigma) + t*sin(tau); zero exactly on matching solutions."""
    return float(_residual_real_st(w.s, w.t, params.omega))


def residual_rotated(r: RotatedPoint, params: ModelParams) -> float:
    """tau*(1 - rho*omega*sinh(sigma)) - sigma*(omega + rho*sinh(sigma))
    with rho = -1/sin(tau).

    Refuses evaluation at the rho pole (sin(tau) = 0) and where the
    solved-for-tau form of the condition has its vanishing denominator.
    """
    sin_tau = math.sin(r.tau)
    if abs(sin_tau) < _POLE_TOL:
        raise PoleError(f"sin(tau) vanishes at tau={r.tau}; rho is undefined")
    rho = -1.0 / sin_tau
    om = params.omega
    sh = math.sinh(r.sigma)
    den = 1.0 - rho * om * sh
    if abs(den) < _POLE_TOL * max(1.0, abs(rho * om * sh)):
        raise AsymptoteError(
            f"denominator 1 - rho*omega*sinh(sigma) vanishes at (sigma={r.sigma}, tau={r.tau})"
        )
    return r.tau * den - r.sigma * (om + rho * sh)


def theta_curve(spec: ThetaCurveSpec, sigma: float) -> float:
    """Theta_(p,xi)(sigma) = sigma*(omega + Omega*sinh(sigma)) / (1 - Omega*omega*sinh(sigma)).

    Reduces to Omega*sigma*sinh(sigma) at omega = 0. For omega*Omega != 0 the
    curve has a vertical asymptote at sigma_inf = arcsinh(1/(omega*Omega));
    evaluation within 1e-12 of it raises AsymptoteError. sinh overflows
    for |sigma| above ~710, where PTWellError is raised.
    """
    Om = spec.Omega
    om = spec.omega
    if om != 0.0:
        sigma_inf = _theta_pole(Om, om)
        if abs(sigma - sigma_inf) < _ASYMPTOTE_TOL:
            raise AsymptoteError(f"sigma={sigma} sits on the asymptote at {sigma_inf}")
    try:
        return _theta(sigma, Om, om, math)
    except OverflowError:
        raise PTWellError(
            f"sinh overflows at sigma={sigma}: Theta curves need |sigma| below ~710 "
            f"(lower --sigma-max)"
        ) from None


def _theta(sigma, Om, om, xp=np):
    """Theta of Omega = Om at omega = om, in the number module xp: numpy,
    or math for a scalar caller (their sinh differ in the last bit)."""
    sinh_sigma = xp.sinh(sigma)
    return sigma * (om + Om * sinh_sigma) / (1.0 - Om * om * sinh_sigma)


def theta_asymptote(spec: ThetaCurveSpec) -> float:
    """Location sigma_inf = arcsinh(1/(omega*Omega)) of the vertical asymptote."""
    if spec.omega == 0.0:
        raise ValueError("theta curves at omega = 0 have no vertical asymptote")
    return _theta_pole(spec.Omega, spec.omega)


def _theta_pole(Om: float, om: float) -> float:
    """Vertical asymptote of the Theta curve of Omega = Om at omega = om != 0."""
    return math.asinh(1.0 / (om * Om))


def envelope_asymptote(sigma: float, omega: float, branch_sign: int) -> float:
    """Leading asymptotic form of the xi = 0 envelope pair for sigma << -1:

        tau = -sigma/|omega| - branch_sign*(|omega| + 1/|omega|)/sinh(sigma)

    branch_sign = +1 selects the branch above the diagonal, -1 below.
    Only valid (and only accepted) for sigma < -2 and omega != 0.
    """
    if omega == 0.0:
        raise ValueError("envelope asymptote undefined at omega = 0")
    if branch_sign not in (-1, 1):
        raise ValueError(f"branch_sign must be +-1, got {branch_sign}")
    if sigma >= -2.0:
        raise ValueError(f"asymptotic form requires sigma < -2, got {sigma}")
    aw = abs(omega)
    try:
        sinh_sigma = math.sinh(sigma)
    except OverflowError:  # sigma < ~-710: the 1/sinh term is below any double
        return -sigma / aw
    return -sigma / aw - branch_sign * (aw + 1.0 / aw) / sinh_sigma


def matching_determinant(E, params: ModelParams):
    """Wronskian quantization determinant

        D(E) = kp*cosh(kp*(1-i*omega))*sinh(km*(1+i*omega))
             + km*cosh(km*(1+i*omega))*sinh(kp*(1-i*omega))

    with kp = sqrt(-E - iZ), km = sqrt(-E + iZ), principal branch (Re >= 0).
    Zero iff the half-well solutions match in value and derivative, except
    for the trivial zeros at E = -+ iZ where one kappa vanishes and the
    corresponding solution is identically zero (see counting_determinant).
    Accepts scalars or numpy arrays of energies.

    Evaluated in the combined form

        D = (P*sinh(P + i*omega*M) - M*sinh(M + i*omega*P)) / 2,
        P = kp + km,  M = km - kp,

    which is the same function by the product-to-sum identity but free of
    the catastrophic cancellation the two cosh*sinh products suffer near
    real zeros at large |omega|*sqrt(E) (their common e^(2*omega*t) factor
    cancels only analytically). On the real hyperbola this reduces exactly
    to s*sinh(sigma) + t*sin(tau); at Z = 0 to kappa*sinh(2*kappa).
    """
    E_arr = np.asarray(E, dtype=complex)
    kp, km = _kappas(E_arr, params.Z)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _determinant(kp, km, params.omega)
    return complex(out) if np.isscalar(E) or E_arr.ndim == 0 else out


def _kappas(E_arr, Z):
    """(kp, km) = principal square roots of -E -+ iZ."""
    # + 0.0j flushes the negative-zero imaginary part produced by negating
    # a real energy, keeping sqrt on its principal side of the cut
    return np.sqrt(-E_arr - 1j * Z + 0.0j), np.sqrt(-E_arr + 1j * Z + 0.0j)


def _determinant(kp, km, omega):
    """D in the combined form (P*sinh(P + i*omega*M) - M*sinh(M + i*omega*P)) / 2."""
    big_p = kp + km
    big_m = km - kp
    return 0.5 * (
        big_p * np.sinh(big_p + 1j * omega * big_m) - big_m * np.sinh(big_m + 1j * omega * big_p)
    )


def _sinhc_sq(u):
    """sinh(sqrt(u))/sqrt(u), an entire function of u (= 1 at u = 0)."""
    u_arr = np.asarray(u, dtype=complex)
    out = np.empty_like(u_arr)
    small = np.abs(u_arr) < 1e-6
    if np.any(~small):
        w = np.sqrt(u_arr[~small])
        out[~small] = np.sinh(w) / w
    if np.any(small):
        us = u_arr[small]
        out[small] = 1.0 + us / 6.0 + us * us / 120.0
    return out


def counting_determinant(E, params: ModelParams):
    """matching_determinant divided by kp*km.

    Entire in E: the division removes both branch-cut ambiguities and the
    trivial zeros at E = -+ iZ, so the zero set is exactly the eigenvalue
    set. This is the function whose phase the argument-principle counter
    integrates. Conjugation-symmetric: G(conj E) = conj(G(E)).
    Accepts scalars or numpy arrays.
    """
    E_arr = np.atleast_1d(np.asarray(E, dtype=complex))
    Z, om = params.Z, params.omega
    kp, km = _kappas(E_arr, Z)
    denom = kp * km
    with np.errstate(over="ignore", invalid="ignore"):
        out = _determinant(kp, km, om) / denom
    # near the removed trivial zeros the division is 0/0; the explicit
    # entire form in u = (kappa*(1 -+ i*omega))^2 is accurate there
    near = (np.abs(denom) < 1.0) | ~np.isfinite(out)
    if np.any(near):
        zp = 1.0 - 1j * om
        zm = 1.0 + 1j * om
        e_near = E_arr[near]
        up = (-e_near - 1j * Z) * zp * zp  # (kp*zp)^2
        um = (-e_near + 1j * Z) * zm * zm  # (km*zm)^2
        out[near] = np.cosh(np.sqrt(up)) * zm * _sinhc_sq(um) + np.cosh(np.sqrt(um)) * zp * _sinhc_sq(up)
    if np.isscalar(E) or np.asarray(E).ndim == 0:
        return complex(out[0])
    return out


def amplitude_A(w: WaveVector, params: ModelParams) -> float:
    """Slope parameter A = Im[kappa* * coth(kappa* (1 + i*omega))].

    Meaningful on matched states, where the real part of the same
    expression vanishes (it is the matching residual up to a positive
    factor). Raises NodeAtMatchingPointError when the wavefunction has a
    node at the matching point and the unit normalization there fails.
    """
    kappa_c = complex(w.s, w.t)  # kappa* = s + i t
    arg = kappa_c * complex(1.0, params.omega)
    sh = cmath.sinh(arg)
    if abs(sh) < _NODE_TOL:
        raise NodeAtMatchingPointError(
            f"wavefunction node at the matching point for (s={w.s}, t={w.t})"
        )
    return (kappa_c * cmath.cosh(arg) / sh).imag


_CONTOUR_TOL = 1e-9


def state_kappas(state: BoundState) -> tuple[complex, complex]:
    """(km, kp) for a state: the wave numbers of the left and right
    branches, km = s + i*t = conj(kp) from its wave vector."""
    kp = kappa_from_st(state.wave)
    return kp.conjugate(), kp


def wavefunction_eval(state: BoundState, x: complex) -> complex:
    """Evaluate the state's wavefunction on the broken contour through i*omega.

    Left segment (from -1 to i*omega): R_minus * sinh(km*(1 + x)).
    Right segment (from i*omega to +1): R_plus * sinh(kp*(1 - x)).
    Points off the contour raise OffContourError. States without defined
    amplitudes (node at the matching point) raise NodeAtMatchingPointError.
    """
    if state.R_minus is None or state.R_plus is None:
        raise NodeAtMatchingPointError(
            "state has no normalized amplitudes (node at the matching point)"
        )
    km, kp = state_kappas(state)
    om = state.params.omega
    x = complex(x)
    corner = 1j * om
    # left segment: x = -1 + u*(1 + i*omega), u in [0, 1]
    u = (x + 1.0) / (1.0 + corner)
    if abs(u.imag) < _CONTOUR_TOL and -_CONTOUR_TOL <= u.real <= 1.0 + _CONTOUR_TOL:
        return state.R_minus * cmath.sinh(km * (1.0 + x))
    # right segment: x = i*omega + v*(1 - i*omega), v in [0, 1]
    v = (x - corner) / (1.0 - corner)
    if abs(v.imag) < _CONTOUR_TOL and -_CONTOUR_TOL <= v.real <= 1.0 + _CONTOUR_TOL:
        return state.R_plus * cmath.sinh(kp * (1.0 - x))
    raise OffContourError(f"x={x} is not on the contour through i*omega (omega={om})")
