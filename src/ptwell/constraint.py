"""The coupling constraint 2st = Z in rotated coordinates.

In the (sigma, tau) plane the constraint is a rotated hyperbola. For
omega > 0 the physical branch is tau = Xi(sigma; omega); for omega < 0
the mirror construction swaps the roles and produces sigma = Upsilon(tau),
which is Xi evaluated at |omega|: Upsilon(tau) = Xi(tau; |omega|). Its
reflected companion is Sigma(tau) = -Upsilon(tau), which lets all
omega < 0 work reuse the omega > 0 curve pictures. All three branches
are the one root formula _xi_of.

sigma_star quantifies where the hyperbola escapes the envelope tube of
the matching loci: beyond it the two curves can no longer intersect, so
the real spectrum is finite. It is found by comparing the exponentially
shrinking envelope deviation against the power-law hyperbola deviation
from their common diagonal.

_s_ceiling bounds every real level: a level solves s*sinh(sigma) =
-t*sin(tau), so with |sin(tau)| <= 1 it needs asinh(t/s) >= 2|s - t*omega|.
On 2st = Z, q(s) = asinh(Z/(2s^2)) - 2s + Z*max(omega, 0)/s is at least
that gap and falls strictly from +inf to -inf: no level has s above its
root, nor E = Z^2/(4s^2) - s^2 below the energy there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError
from .matching import ThetaCurveSpec, _theta, theta_curve
from .model import ModelParams, RotatedPoint, omega_factor
from .roots import _bisect_scalar, _sign_changes

__all__ = [
    "quadratic_residual",
    "xi_branch",
    "upsilon_branch",
    "reflected_branch",
    "hyperbola_asymptote",
    "sigma_star",
]


def _x_squared(params: ModelParams) -> float:
    """X^2 = 4Z/(sin(2|phi|) cos^2(phi)) = 2Z(1 + omega^2)^2/|omega| > 0."""
    om = abs(params.omega)
    return 2.0 * params.Z * (1.0 + om * om) ** 2 / om


def quadratic_residual(r: RotatedPoint, params: ModelParams) -> float:
    """tau^2 + 2*tau*sigma*cot(2 phi) - sigma^2 - 4Z/(sin(2 phi) cos^2(phi)).

    Zero iff 2st = Z. Proportional to (2st - Z) with the positive-for-
    omega>0 factor 4/(sin(2 phi) cos^2(phi)). Undefined at omega = 0,
    where the constraint should be used in the plain form t = Z/(2s).
    """
    om = params.omega
    if om == 0.0:
        raise ValueError("rotated quadratic degenerates at omega = 0; use 2st = Z directly")
    two_phi = 2.0 * params.phi
    s2 = math.sin(two_phi)
    cot2 = math.cos(two_phi) / s2
    coeff = 4.0 * params.Z / (s2 * math.cos(params.phi) ** 2)
    return r.tau**2 + 2.0 * r.tau * r.sigma * cot2 - r.sigma**2 - coeff


def xi_branch(sigma: float, params: ModelParams) -> float:
    """Physical hyperbola branch for omega > 0:

        Xi(sigma) = (omega - 1/omega)*sigma/2 + sqrt((omega + 1/omega)^2 sigma^2 + 4X^2)/2

    the root of the rotated quadratic with tau > 0.
    """
    om = params.omega
    if om <= 0.0:
        raise ValueError(f"xi_branch requires omega > 0, got {om}")
    if params.Z <= 0.0:
        raise ValueError(f"xi_branch requires Z > 0, got {params.Z}")
    return float(_xi_of(sigma, om, _x_squared(params)))


def _xi_of(sigma, om, x2):
    """Xi(sigma) for omega = om > 0 and X^2 = x2, on floats or arrays."""
    a = om + 1.0 / om
    return 0.5 * (om - 1.0 / om) * sigma + 0.5 * np.sqrt(a * a * sigma * sigma + 4.0 * x2)


def upsilon_branch(tau: float, params: ModelParams) -> float:
    """Physical branch for omega < 0, solved for sigma (kept positive there):

        Upsilon(tau) = (1/omega - omega)*tau/2 + sqrt((omega + 1/omega)^2 tau^2 + 4Y^2)/2

    which is Xi(tau) at |omega|, with Y^2 = X^2.
    """
    om = params.omega
    if om >= 0.0:
        raise ValueError(f"upsilon_branch requires omega < 0, got {om}")
    if params.Z <= 0.0:
        raise ValueError(f"upsilon_branch requires Z > 0, got {params.Z}")
    # 1/omega - omega = |omega| - 1/|omega| and (omega + 1/omega)^2 is even
    # in omega, so the root at the signed omega is Xi's root at |omega| = -om
    return float(_xi_of(tau, -om, _x_squared(params)))


def reflected_branch(tau: float, params: ModelParams) -> float:
    """Mirror companion of upsilon_branch:

        Sigma(tau) = (1/w - w)*tau/2 - sqrt((w + 1/w)^2 tau^2 + 4Y^2)/2,  w = |omega|

    that is -Upsilon(tau): the sigma < 0 sheet that lets the omega < 0
    spectrum be read off the unreflected curve pictures.
    """
    om = params.omega
    if om >= 0.0:
        raise ValueError(f"reflected_branch requires omega < 0, got {om}")
    if params.Z <= 0.0:
        raise ValueError(f"reflected_branch requires Z > 0, got {params.Z}")
    return -float(_xi_of(tau, -om, _x_squared(params)))


def hyperbola_asymptote(sigma: float, params: ModelParams) -> float:
    """Leading form of the branch along the diagonal, for sigma << -1:

        tau = -sigma/|omega| - sign(omega) * X^2 / ((|omega| + 1/|omega|) * sigma)

    The deviation from the diagonal decays like 1/sigma (next correction
    O(sigma^-3)). Only accepted for sigma < -2 and omega != 0.
    """
    om = params.omega
    if om == 0.0:
        raise ValueError("hyperbola asymptote undefined at omega = 0")
    if sigma >= -2.0:
        raise ValueError(f"asymptotic form requires sigma < -2, got {sigma}")
    aw = abs(om)
    x2 = _x_squared(params)
    return -sigma / aw - math.copysign(1.0, om) * x2 / ((aw + 1.0 / aw) * sigma)


def sigma_star(params: ModelParams) -> float:
    """Boundary of the intersection-free zone along the hyperbola.

    For omega > 0: the largest sigma in [-50, -2] at which the envelope
    deviation from the diagonal falls below half the hyperbola deviation;
    for all sigma beyond it (more negative) the hyperbola has left the
    envelope tube and no further real levels exist. For omega < 0 the
    mirrored value (positive sign) is returned. Found by bisection.
    """
    om = params.omega
    if om == 0.0:
        raise ValueError("sigma_star undefined at omega = 0 (real spectrum is infinite)")
    if params.Z <= 0.0:
        raise ValueError("sigma_star requires Z > 0")
    aw = abs(om)
    x2 = _x_squared(params)

    def gap(sigma, theta):
        """Envelope deviation |Theta_(+1,0)(sigma) + sigma/aw| less half the
        hyperbola deviation |Xi(sigma) + sigma/aw|, with Theta = theta."""
        return abs(theta + sigma / aw) - 0.5 * abs(_xi_of(sigma, aw, x2) + sigma / aw)

    lo, hi = -50.0, -2.0
    n = 2000
    grid = lo + (hi - lo) * np.arange(n + 1) / n
    # the grid in numpy, the bisection in math: np.sinh may differ from
    # math.sinh in the last bit, which matters only if it flips a sign and
    # so moves the bracket
    vals = gap(grid, _theta(grid, omega_factor(1, 0.0), aw))
    # rightmost sign change: envelope deviation explodes toward sigma = 0-,
    # decays exponentially toward -inf
    pairs, zero = _sign_changes(vals)
    hits = np.nonzero(pairs | zero[:-1])[0]
    if len(hits) == 0:
        raise SolverError(
            f"no envelope/hyperbola crossover in [-50, -2] for Z={params.Z}, omega={om}"
        )
    i = int(hits[-1])
    a = float(grid[i])
    b = a if zero[i] else float(grid[i + 1])
    spec = ThetaCurveSpec(p=1, xi=0.0, omega=aw)

    def gap_at(sigma: float) -> float:
        return gap(sigma, theta_curve(spec, sigma))

    star = _bisect_scalar(gap_at, a, b, gap_at(a), rtol=1e-12)
    return star if om > 0.0 else -star


def _s_ceiling(Z: float, omega: float) -> float:
    """The root of q (module docstring) in (0, hi], rounded up by the bisection
    tolerance: q(0+) = +inf, and q(hi) < 0 as 2*hi > asinh(Z/2) + sqrt(Z*w)."""
    w = max(omega, 0.0)

    def q(s: float) -> float:
        return math.asinh(Z / (2.0 * s * s)) - 2.0 * s + Z / s * w

    hi = 1.0 + math.sqrt(Z) * math.sqrt(w) + 0.5 * math.asinh(0.5 * Z)
    root = _bisect_scalar(q, 0.0, hi, math.inf, rtol=1e-12)
    return root + 1e-12 * max(1.0, root)
