"""Correctness checks, run outside the timed region.

A failed check raises CheckFailure and aborts the run: a wrong answer is
never counted as a slow or failed operation. The checks are

* frozen references: the closed-form Hermitian levels, the twelve Z=1,
  omega=0 levels pinned by the acceptance tests, and the criterion-3
  critical couplings 4.475 and 12.8015;
* agreement among the real-level methods;
* a 50-digit mpmath oracle: the Newton step |D/D'| of the matching
  determinant, in its plain two-product form, must be tiny at every root.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from ptwell import ModelParams, matching_determinant
from ptwell import spectrum as S

PI = math.pi
AGREE_TOL = 1e-8  # the acceptance suite's three-method tolerance
ORACLE_TOL = 1e-9  # root error allowed by the 50-digit Newton step, relative
CRITICAL_TOL = 0.01

# tests/test_acceptance.py: Z=1, omega=0 levels below E=400
Z1_LEVELS = [
    2.5699590331233, 9.79227238721084, 22.2180196719001, 39.4593591524662,
    61.6891014668864, 88.8179849828254, 120.904727289334, 157.908917532688,
    199.860742064099, 246.737068993474, 298.556371426108, 355.303646911256,
]
OMEGA0_CRITICALS = [4.475, 12.8015]


class CheckFailure(AssertionError):
    """The program returned a wrong answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def agree(a: list[float], b: list[float], what: str) -> None:
    require(len(a) == len(b), f"{what}: {len(a)} vs {len(b)} levels")
    for x, y in zip(a, b):
        require(abs(x - y) <= AGREE_TOL * max(1.0, abs(x)), f"{what}: {x!r} vs {y!r}")


def subset(a: list[float], b: list[float], what: str) -> None:
    """Every level of `a` is one of `b`, each matched once."""
    rest = sorted(b)
    for x in a:
        i = min(range(len(rest)), key=lambda j: abs(rest[j] - x), default=None)
        require(i is not None and abs(rest[i] - x) <= AGREE_TOL * max(1.0, abs(x)), f"{what}: {x!r} is not a level")
        del rest[i]


def oracle_step(E: complex, Z: float, omega: float) -> float:
    """|D(E)/D'(E)| at 50 digits, D = kp cosh(kp a) sinh(km b) + km cosh(km b) sinh(kp a),
    a = 1 - i omega, b = 1 + i omega."""
    with mpmath.workdps(50):
        e = mpmath.mpc(E.real, E.imag)
        kp = mpmath.sqrt(-e - 1j * mpmath.mpf(Z))
        km = mpmath.sqrt(-e + 1j * mpmath.mpf(Z))
        a = mpmath.mpc(1, -omega)
        b = mpmath.mpc(1, omega)
        cpa, spa = mpmath.cosh(kp * a), mpmath.sinh(kp * a)
        cmb, smb = mpmath.cosh(km * b), mpmath.sinh(km * b)
        d = kp * cpa * smb + km * cmb * spa
        if kp == 0 or km == 0:
            return 0.0 if d == 0 else math.inf
        d_kp = cpa * smb + kp * a * spa * smb + km * a * cmb * cpa
        d_km = kp * b * cpa * cmb + cmb * spa + km * b * smb * spa
        d_e = -d_kp / (2 * kp) - d_km / (2 * km)
        if d_e == 0:
            return 0.0 if d == 0 else math.inf
        return float(abs(d / d_e))


def oracle(roots, params: ModelParams, what: str) -> None:
    for E in roots:
        E = complex(E)
        step = oracle_step(E, params.Z, params.omega)
        require(
            step <= ORACLE_TOL * max(1.0, abs(E)),
            f"{what}: E={E!r} is {step:.3g} from a root of D (Z={params.Z!r}, omega={params.omega!r})",
        )


def energies(states) -> list[float]:
    return [float(st.energy) for st in states]


def frozen_references() -> None:
    """The package's pinned values, checked once per run."""
    # e_min = 1 skips E = 0, where D has its trivial zero at Z = 0
    want = [(n + 1) ** 2 * PI * PI / 4.0 for n in range(20)]
    for om in (0.0, 0.1, -0.3):
        got = S.determinant_real_roots(ModelParams(Z=0.0, omega=om), e_max=1000.0, e_min=1.0)
        agree(got, want, f"Hermitian closed form at omega={om}")
    p1 = ModelParams(Z=1.0, omega=0.0)
    agree(energies(S.real_spectrum_bracket(p1, e_max=400.0)), Z1_LEVELS, "Z=1 levels (bracket)")
    agree(S.determinant_real_roots(p1, e_max=400.0), Z1_LEVELS, "Z=1 levels (determinant)")
    check_criticals(0.0, S.critical_couplings(0.0, 2))


def check_criticals(omega: float, zs: list[float], e_max: float = 400.0) -> None:
    """Frozen values at omega = 0; elsewhere, the level count in the
    tracking window must drop by exactly one pair across each coupling."""
    require(all(a < b for a, b in zip(zs, zs[1:])), f"criticals not increasing: {zs}")
    if omega == 0.0:
        for z, want in zip(zs, OMEGA0_CRITICALS):
            require(abs(z - want) <= CRITICAL_TOL, f"critical coupling {z} vs frozen {want}")
    for z in zs:
        lo = S.count_real(ModelParams(Z=z - 1e-4, omega=omega), e_max)
        hi = S.count_real(ModelParams(Z=z + 1e-4, omega=omega), e_max)
        require(lo - hi == 2, f"count drops by {lo - hi}, not a pair, across Z={z} (omega={omega})")


def sign_change_count(params: ModelParams, e_max: float) -> int:
    """Real zeros of D on [-Z-1, e_max] counted as sign changes on a grid
    whose phase step is pi/8. It cannot see a nearly merged pair, so a
    mismatch falls back to the determinant scan rather than failing."""
    Z, om = params.Z, params.omega
    e_lo = -Z - 1.0
    grid = [e_lo]
    e = e_lo
    while e < e_max:
        t = math.sqrt((math.hypot(e, Z) + e) / 2.0)
        e = min(e + (PI / 8.0) * max(t, 0.7) / (1.0 + abs(om)), e_max)
        grid.append(e)
    vals = np.real(matching_determinant(np.asarray(grid, dtype=complex), params))
    sign = np.sign(vals)
    return int(np.count_nonzero(sign[:-1] * sign[1:] < 0.0) + np.count_nonzero(vals == 0.0))


def check_count(params: ModelParams, e_max: float, n: int) -> None:
    if n == sign_change_count(params, e_max):
        return
    ref = len(S.determinant_real_roots(params, e_max=e_max))
    require(n == ref, f"count_real {n} vs determinant scan {ref} (Z={params.Z!r}, omega={params.omega!r})")
