"""Domain types and exact coordinate transforms.

The model lives on two coordinate charts. The wave-number chart (s, t)
carries kappa = s - i*t with energy E = t^2 - s^2 and coupling Z = 2*s*t.
The rotated chart (sigma, tau) is the (s, t) plane rotated by
phi = arctan(omega) and rescaled by 2/cos(phi); the matching condition
becomes a damped oscillation there. Both transforms are closed forms.

tau additionally carries a lattice decomposition

    tau = (2k + 1)*pi + p*pi/2 + q*pi*xi/2,    xi in [0, 1)

which freezes -1/sin(tau) to the constant Omega(p, xi) = p/cos(pi*xi/2)
on each lattice line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import PoleError, QuadrantError

__all__ = [
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
]


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength Z >= 0 and matching-point shift omega.

    The rotation angle phi = arctan(omega) is derived, never passed.
    """

    Z: float
    omega: float
    phi: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.Z >= 0.0):
            raise ValueError(f"coupling Z must be >= 0, got {self.Z}")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        object.__setattr__(self, "phi", math.atan(self.omega))


@dataclass(frozen=True)
class WaveVector:
    """Wave-number components, restricted to the quadrant s >= 0, t >= 0."""

    s: float
    t: float

    def __post_init__(self) -> None:
        if self.s < 0.0 or self.t < 0.0:
            raise ValueError(f"wave vector outside quadrant: s={self.s}, t={self.t}")


@dataclass(frozen=True)
class RotatedPoint:
    """A point of the rotated (sigma, tau) matching plane."""

    sigma: float
    tau: float


@dataclass(frozen=True)
class LatticeIndex:
    """Canonical decomposition of tau: stripe k, signs p and q, offset xi."""

    k: int
    p: int
    q: int
    xi: float

    def __post_init__(self) -> None:
        if self.p not in (-1, 1) or self.q not in (-1, 1):
            raise ValueError(f"p and q must be +-1, got p={self.p}, q={self.q}")
        if not (0.0 <= self.xi < 1.0):
            raise ValueError(f"xi must lie in [0, 1), got {self.xi}")


@dataclass(frozen=True)
class BoundState:
    """One real level of the model given by params.

    Carries its wave vector, slope parameter A (None when the wavefunction
    has a node at the matching point) and the normalization amplitudes
    R_minus, R_plus of the two half-well branches. residual records
    |matching residual| at the reported energy. Complex conjugate pairs are
    reported as bare energies, not as states.
    """

    kind: str  # always "real"
    energy: float
    params: ModelParams
    wave: WaveVector | None = None
    A: float | None = None
    R_minus: complex | None = None
    R_plus: complex | None = None
    residual: float = 0.0

    def __post_init__(self) -> None:
        if self.kind != "real":
            raise ValueError(f"unknown state kind {self.kind!r}")


def kappa_from_st(w: WaveVector) -> complex:
    """kappa = s - i*t. The inverse square root uses Re >= 0 to match."""
    return complex(w.s, -w.t)


def energy_from_st(w: WaveVector) -> float:
    """E = t^2 - s^2."""
    return w.t * w.t - w.s * w.s


def sigma_tau_from_st(w: WaveVector, params: ModelParams) -> RotatedPoint:
    """Rotate by phi and scale by 2/cos(phi): sigma = 2(s - t*omega),
    tau = 2(s*omega + t)."""
    om = params.omega
    return RotatedPoint(2.0 * (w.s - w.t * om), 2.0 * (w.s * om + w.t))


def st_from_sigma_tau(r: RotatedPoint, params: ModelParams) -> WaveVector:
    """Exact inverse of sigma_tau_from_st.

    Raises QuadrantError when the preimage falls outside s >= 0, t >= 0,
    which marks a nonphysical intersection that callers should discard.
    """
    s, t = _st_from_sigma_tau_raw(r.sigma, r.tau, params.omega)
    if s < 0.0 or t < 0.0:
        raise QuadrantError(
            f"(sigma={r.sigma}, tau={r.tau}) maps to s={s}, t={t} outside the quadrant"
        )
    return WaveVector(s, t)


def _st_from_sigma_tau_raw(sigma: float, tau: float, omega: float) -> tuple[float, float]:
    d = 2.0 * (1.0 + omega * omega)
    return (sigma + tau * omega) / d, (tau - sigma * omega) / d


def energy_from_sigma_tau(r: RotatedPoint, params: ModelParams) -> float:
    """E = 1/4 * [(tau^2 - sigma^2) cos(2 phi) - 2 sigma tau sin(2 phi)] cos^2(phi).

    Algebraically identical to energy_from_st on the preimage.
    """
    two_phi = 2.0 * params.phi
    c2, s2 = math.cos(two_phi), math.sin(two_phi)
    cos_phi_sq = math.cos(params.phi) ** 2
    return 0.25 * ((r.tau**2 - r.sigma**2) * c2 - 2.0 * r.sigma * r.tau * s2) * cos_phi_sq


def lattice_compose(idx: LatticeIndex) -> float:
    """tau = (2k + 1)*pi + p*pi/2 + q*pi*xi/2."""
    return (2 * idx.k + 1) * math.pi + idx.p * math.pi / 2 + idx.q * math.pi * idx.xi / 2


# Half-width of the exclusion band around multiples of pi where the
# decomposition has no valid index (1/sin(tau) pole).
_POLE_TOL = 1e-12


def lattice_decompose(tau: float) -> LatticeIndex:
    """Canonical lattice index of tau.

    Quarter-interval boundaries (odd multiples of pi/2) map to xi = 0 with
    q = -1. Multiples of pi admit no index at all (xi would have to reach 1,
    and -1/sin(tau) diverges there); a PoleError is raised within 1e-12.
    """
    # nearest stripe center (2k+1)*pi
    k = math.floor(tau / (2.0 * math.pi))
    delta = tau - (2 * k + 1) * math.pi  # in [-pi, pi)
    if delta >= math.pi:  # guard rounding at the upper seam
        k += 1
        delta -= 2.0 * math.pi
    if abs(delta) < _POLE_TOL or abs(delta + math.pi) < _POLE_TOL or abs(delta - math.pi) < _POLE_TOL:
        raise PoleError(f"tau={tau} is a multiple of pi; no lattice index exists there")
    p = 1 if delta > 0.0 else -1
    r = delta - p * math.pi / 2  # in (-pi/2, pi/2)
    if r > 0.0:
        q, xi = 1, 2.0 * r / math.pi
    elif r < 0.0:
        q, xi = -1, -2.0 * r / math.pi
    else:
        q, xi = -1, 0.0  # boundary convention
    if xi >= 1.0:  # rounding guard at the pole seam
        raise PoleError(f"tau={tau} is a multiple of pi; no lattice index exists there")
    return LatticeIndex(k, p, q, xi)


def omega_factor(p: int, xi: float) -> float:
    """Omega(p, xi) = p/cos(pi*xi/2); equals -1/sin(tau) on the lattice line."""
    if p not in (-1, 1):
        raise ValueError(f"p must be +-1, got {p}")
    if not (0.0 <= xi < 1.0):
        raise ValueError(f"xi must lie in [0, 1), got {xi}")
    return p / math.cos(math.pi * xi / 2.0)
