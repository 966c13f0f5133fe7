"""Spectrum production.

Real levels come from three independent methods that must agree:

* bracketing -- a 1-D adaptive sweep of the matching residual along the
  constraint curve t = Z/(2s), with a signed dip probe that resolves
  nearly merged pairs;
* the lattice tracer -- the geometric method: per stripe and lattice-line
  family, solve the frozen-oscillation curve equation for sigma on a xi
  refinement grid, trace the solution loci, detect crossings of the
  constraint hyperbola and polish each with a 2-D Newton iteration;
* the determinant scan -- the real zeros of the quantization determinant
  along the real energy axis.

Complex pairs come from argument-principle counting of the entire
counting determinant over a window, with recursive subdivision until
each cell isolates one zero, followed by Newton refinement. Critical
couplings are located by bisection on the real-level count.

All energies are double precision; windows must keep |kappa*(1+|omega|)|
below ~700 so cosh stays finite.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .constraint import sigma_star
from .errors import (
    CountMismatchError,
    NodeAtMatchingPointError,
    SolverError,
    WindowError,
)
from .matching import (
    _residual_real_st,
    _theta_of_sinh,
    amplitude_A,
    counting_determinant,
    matching_determinant,
)
from .model import (
    BoundState,
    LatticeIndex,
    ModelParams,
    WaveVector,
    _st_from_sigma_tau_raw,
    lattice_compose,
    omega_factor,
)

__all__ = [
    "EnergyWindow",
    "SpectrumReport",
    "hermitian_spectrum",
    "real_spectrum_bracket",
    "real_spectrum_lattice",
    "determinant_real_roots",
    "complex_spectrum",
    "count_real",
    "critical_couplings",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EnergyWindow:
    """Rectangle in the complex energy plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise WindowError(
                f"degenerate window [{self.re_min}, {self.re_max}] x [{self.im_min}, {self.im_max}]"
            )


@dataclass
class SpectrumReport:
    """Solver output: sorted real levels, conjugate pairs, and diagnostics."""

    params: ModelParams
    real_levels: list[BoundState]
    complex_pairs: list[complex]  # Im > 0 member of each conjugate pair
    window: EnergyWindow
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# state construction

def _make_state(s: float, t: float, params: ModelParams) -> BoundState:
    if s < 0.0:
        if s < -1e-12:
            raise SolverError(f"root polished outside the quadrant: s={s}")
        s = 0.0
    wave = WaveVector(s, t)
    energy = t * t - s * s
    residual = abs(float(_residual_real_st(s, t, params.omega)))
    try:
        a_val = amplitude_A(wave, params)
        r_minus = 1.0 / cmath.sinh(complex(s, t) * complex(1.0, params.omega))
        r_plus = r_minus.conjugate()
    except NodeAtMatchingPointError:
        a_val = None
        r_minus = None
        r_plus = None
    return BoundState(
        kind="real",
        energy=energy,
        params=params,
        wave=wave,
        A=a_val,
        R_minus=r_minus,
        R_plus=r_plus,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# generic 1-D sweep: sign changes plus a signed dip probe for tangent pairs

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _bisect_scalar(f, a: float, b: float, fa: float) -> float:
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
        if b - a < 1e-15 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def _golden_min(h, a: float, b: float) -> float:
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = h(x1), h(x2)
    for _ in range(200):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = h(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = h(x2)
        if b - a < 1e-13 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def _sweep_roots(f_vec, f_scalar, grid: np.ndarray) -> list[float]:
    """All roots of f on the grid: bracketed sign changes are bisected, and
    interior |f| dips without a sign change are probed for tangent pairs by
    minimizing the signed value."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f_vec(grid), dtype=float)
    finite = np.isfinite(vals)
    sign = np.sign(vals)
    roots: list[float] = []
    ok = finite[:-1] & finite[1:]
    idx = np.nonzero(ok & (sign[:-1] * sign[1:] < 0.0))[0]
    for i in idx:
        roots.append(_bisect_scalar(f_scalar, grid[i], grid[i + 1], vals[i]))
    exact = np.nonzero(finite & (vals == 0.0))[0]
    for i in exact:
        roots.append(float(grid[i]))
    interior = np.arange(1, len(grid) - 1)
    interior = interior[finite[interior - 1] & finite[interior] & finite[interior + 1]]
    gm1, g0, gp1 = vals[interior - 1], vals[interior], vals[interior + 1]
    dip = interior[
        (np.sign(gm1) == np.sign(gp1))
        & (np.sign(g0) == np.sign(gm1))
        & (np.abs(g0) < np.abs(gm1))
        & (np.abs(g0) < np.abs(gp1))
        & (np.sign(g0) != 0.0)
    ]
    for i in dip:
        sgn = float(np.sign(vals[i]))
        h = lambda x: sgn * f_scalar(x)  # noqa: E731
        a, b = float(grid[i - 1]), float(grid[i + 1])
        m = _golden_min(h, a, b)
        if h(m) < 0.0:
            # the dip crosses zero: a nearly merged pair
            roots.append(_bisect_scalar(f_scalar, a, m, f_scalar(a)))
            roots.append(_bisect_scalar(f_scalar, m, b, f_scalar(m)))
    return sorted(roots)


# ---------------------------------------------------------------------------
# real spectrum: Hermitian closed form

def hermitian_spectrum(params: ModelParams, e_max: float) -> list[BoundState]:
    """Closed-form levels E_n = (n+1)^2 pi^2 / 4 up to e_max, any omega.

    Only valid at Z = 0, where the spectrum is omega-independent.
    """
    if params.Z != 0.0:
        raise ValueError(f"hermitian_spectrum requires Z = 0, got Z={params.Z}")
    states = []
    n = 0
    while True:
        energy = (n + 1) ** 2 * math.pi**2 / 4.0
        if energy > e_max:
            break
        states.append(_make_state(0.0, (n + 1) * math.pi / 2.0, params))
        n += 1
    return states


# ---------------------------------------------------------------------------
# real spectrum: 1-D bracketing along t = Z/(2s)

def _s_of_energy(energy: float, Z: float) -> float:
    """s on the constraint curve at the given energy (E = t^2 - s^2, 2st = Z)."""
    if energy <= 0.0:
        return math.sqrt((math.hypot(energy, Z) - energy) / 2.0)
    # stable for Z << energy, where hypot - energy cancels
    return abs(Z) / math.sqrt(2.0 * (math.hypot(energy, Z) + energy))


def _bracket_grid(params: ModelParams, s_lo: float, s_max: float) -> np.ndarray:
    """Adaptive grid on [s_lo, s_max]: the rotated phase advances at most
    pi/4 and sigma at most 1/4 per step, so no oscillation is skipped."""
    Z, om = params.Z, params.omega
    pts = [s_lo]
    s = s_lo
    while s < s_max:
        dtau_ds = abs(2.0 * om - Z / (s * s))
        dsig_ds = abs(2.0 + om * Z / (s * s))
        step = min(
            0.25,
            (math.pi / 4.0) / max(dtau_ds, 1e-9),
            0.25 / max(dsig_ds, 1e-9),
        )
        if step > math.pi / max(dtau_ds, 1e-9):
            log.warning("grid step %.3g exceeds half the oscillation period at s=%.6g", step, s)
        s = min(s + step, s_max)
        pts.append(s)
    return np.asarray(pts)


def real_spectrum_bracket(
    params: ModelParams, s_max: float = 12.0, e_max: float = 2000.0
) -> list[BoundState]:
    """Real levels with E <= e_max by sweeping the matching residual along
    the constraint curve t = Z/(2s) over s in [s(e_max), s_max].

    An empty result is valid. Z = 0 dispatches to hermitian_spectrum.
    """
    if params.Z == 0.0:
        return hermitian_spectrum(params, e_max)
    if s_max <= 0.0:
        raise ValueError(f"s_max must be positive, got {s_max}")
    Z, om = params.Z, params.omega
    s_lo = _s_of_energy(e_max, Z)
    if s_lo >= s_max:
        return []
    grid = _bracket_grid(params, s_lo, s_max)
    log.info(
        "bracket sweep: %d grid points, s in [%.3g, %.3g], t in [%.3g, %.3g]",
        len(grid), s_lo, s_max, Z / (2.0 * s_max), Z / (2.0 * s_lo),
    )

    def f_vec(s_arr):
        return _residual_real_st(s_arr, Z / (2.0 * s_arr), om)

    def f_scalar(s):
        return float(_residual_real_st(s, Z / (2.0 * s), om))

    states = []
    for s_root in _sweep_roots(f_vec, f_scalar, grid):
        t_root = Z / (2.0 * s_root)
        if t_root * t_root - s_root * s_root <= e_max:
            states.append(_make_state(s_root, t_root, params))
    states.sort(key=lambda st: st.energy)
    return _dedup_states(states)


def _dedup_states(states: list[BoundState]) -> list[BoundState]:
    out: list[BoundState] = []
    for st in states:
        e = st.energy
        if all(abs(e - o.energy) > 1e-7 * max(1.0, abs(e)) for o in out):
            out.append(st)
    return out


# ---------------------------------------------------------------------------
# real spectrum: lattice tracer

def _solve_theta_line(tau_line: float, Om: float, om: float, sig_cap: float) -> list[float]:
    """All sigma in [-sig_cap, sig_cap] with Theta_(p,xi)(sigma) = tau_line.

    The scan splits at the curve's vertical asymptote and clusters sample
    points geometrically around sigma = 0 and around the asymptote, where
    solutions accumulate as Omega grows."""
    pts = [-sig_cap, sig_cap]
    pole = None
    if om != 0.0 and Om != 0.0:
        pole = math.asinh(1.0 / (Om * om))
        if -sig_cap < pole < sig_cap:
            pts = [-sig_cap, pole, sig_cap]
        else:
            pole = None
    roots: list[float] = []
    for a, b in zip(pts[:-1], pts[1:]):
        eps = 1e-12 * max(1.0, abs(a), abs(b))
        lo, hi = a + eps, b - eps
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, 240)
        clusters = [grid]
        for center in (0.0,) if pole is None else (0.0, pole):
            for side in (-1.0, 1.0):
                cl = center + side * np.geomspace(1e-10, 1.0, 40)
                clusters.append(cl[(cl > lo) & (cl < hi)])
        grid = np.unique(np.concatenate(clusters))
        with np.errstate(over="ignore", invalid="ignore"):
            fv = np.asarray(_theta_of_sinh(grid, np.sinh(grid), Om, om) - tau_line, dtype=float)
        good = np.isfinite(fv)
        g, fv = grid[good], fv[good]
        sgn = np.sign(fv)
        for i in np.nonzero(sgn[:-1] * sgn[1:] < 0.0)[0]:
            f = lambda x: float(_theta_of_sinh(x, np.sinh(x), Om, om)) - tau_line  # noqa: E731
            roots.append(_bisect_scalar(f, float(g[i]), float(g[i + 1]), float(fv[i])))
    return sorted(roots)


def _newton_2d(s: float, t: float, params: ModelParams) -> tuple[float, float] | None:
    """Newton on (matching residual, 2st - Z) with the analytic Jacobian.

    Returns the polished root or None when the seed does not converge to a
    genuine intersection."""
    Z, om = params.Z, params.omega
    for _ in range(60):
        sig = 2.0 * (s - t * om)
        tau = 2.0 * (s * om + t)
        with np.errstate(over="ignore"):
            sh, ch = math.sinh(sig), math.cosh(sig)
        res = s * sh + t * math.sin(tau)
        con = 2.0 * s * t - Z
        j11 = sh + 2.0 * s * ch + 2.0 * om * t * math.cos(tau)
        j12 = -2.0 * om * s * ch + math.sin(tau) + 2.0 * t * math.cos(tau)
        det = j11 * 2.0 * s - j12 * 2.0 * t
        if det == 0.0 or not math.isfinite(det):
            return None
        ds = (res * 2.0 * s - j12 * con) / det
        dt = (j11 * con - res * 2.0 * t) / det
        s, t = s - ds, t - dt
        if abs(ds) + abs(dt) < 1e-14 * (1.0 + abs(s) + abs(t)):
            break
    if not (math.isfinite(s) and math.isfinite(t)) or t <= 0.0:
        return None
    res = float(_residual_real_st(s, t, om))
    con = 2.0 * s * t - Z
    scale = max(1.0, abs(s * math.sinh(2.0 * (s - t * om))))
    if abs(res) < 1e-10 * scale and abs(con) < 1e-9 * max(1.0, Z):
        return s, t
    return None


def _locus_points(
    xi: float, k: int, p: int, q: int, params: ModelParams, sig_cap: float
) -> list[tuple[float, float, float, float]]:
    """Locus samples (sigma, 2st - Z, s, t) on the lattice line (k, p, q, xi)."""
    tau_line = lattice_compose(LatticeIndex(k, p, q, xi))
    if tau_line <= 0.0:
        return []
    out = []
    for sg in _solve_theta_line(tau_line, omega_factor(p, xi), params.omega, sig_cap):
        s, t = _st_from_sigma_tau_raw(sg, tau_line, params.omega)
        out.append((sg, 2.0 * s * t - params.Z, s, t))
    return out


def _trace_family(
    k: int, p: int, q: int, params: ModelParams, sig_cap: float, n_xi: int,
    seeds: list[tuple[float, float]],
) -> None:
    """Sweep xi over [0, 1) for one (stripe, p, q) family, tracking the locus
    and emitting Newton seeds at hyperbola crossings.

    Solution-count changes (pair birth or death at a tangency) are refined
    in xi down to 1e-5 and the adjacent-solution midpoints on the richer
    side are seeded as well: the crossing may sit arbitrarily close to the
    tangency."""
    # High stripes push intersections against the xi -> 1 boundary like
    # 1 - xi ~ Z^2 / tau^3, so the boundary cluster has to reach far deeper
    # than a uniform grid: 1e-12 covers every root the tau resolution of
    # float64 can distinguish from the boundary pole itself.
    xis = list(
        np.unique(
            np.concatenate(
                [np.linspace(0.0, 1.0 - 1e-6, n_xi), 1.0 - np.geomspace(1e-12, 0.05, 22)]
            )
        )
    )
    i = 0
    prev: list[tuple[float, float, float, float]] | None = None
    prev_xi = 0.0
    while i < len(xis):
        xi = float(xis[i])
        cur = _locus_points(xi, k, p, q, params, sig_cap)
        if prev is not None and len(cur) != len(prev) and xi - prev_xi > 1e-5:
            xis.insert(i, 0.5 * (xi + prev_xi))
            continue
        if prev is not None:
            if len(cur) != len(prev):
                rich = cur if len(cur) > len(prev) else prev
                for a, b in zip(rich[:-1], rich[1:]):
                    if abs(a[0] - b[0]) < 1.0:
                        seeds.append((0.5 * (a[2] + b[2]), 0.5 * (a[3] + b[3])))
            else:
                for sg, h, s, t in cur:
                    best = None
                    for sg0, h0, s0, t0 in prev:
                        dist = abs(sg - sg0)
                        if best is None or dist < best[0]:
                            best = (dist, h0, s0, t0)
                    if best is not None and best[0] < 1.5 and h * best[1] < 0.0:
                        seeds.append((0.5 * (s + best[2]), 0.5 * (t + best[3])))
        prev, prev_xi = cur, xi
        i += 1


def real_spectrum_lattice(
    params: ModelParams, k_max: int, sig_cap: float = 25.0, n_xi: int = 41
) -> list[BoundState]:
    """Real levels by the geometric method: trace the matching loci per
    stripe k <= k_max on a xi refinement grid, intersect them with the
    constraint hyperbola, and polish each intersection by 2-D Newton.

    Covers roots with tau up to (2*k_max + 2)*pi. Z = 0 dispatches to
    hermitian_spectrum over the energy range the stripes cover.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if params.Z == 0.0:
        return hermitian_spectrum(params, e_max=((k_max + 1) * math.pi) ** 2)
    seeds: list[tuple[float, float]] = []
    for k in range(0, k_max + 1):
        for p in (1, -1):
            for q in (1, -1):
                _trace_family(k, p, q, params, sig_cap, n_xi, seeds)
    states: list[BoundState] = []
    failures = []
    for s0, t0 in seeds:
        polished = _newton_2d(s0, t0, params)
        if polished is None:
            res0 = abs(float(_residual_real_st(s0, t0, params.omega)))
            con0 = abs(2.0 * s0 * t0 - params.Z)
            if res0 < 0.05 * max(1.0, abs(s0)) and con0 < 0.05 * max(1.0, params.Z):
                failures.append((s0, t0, res0, con0))
            continue
        states.append(_make_state(polished[0], polished[1], params))
    if failures:
        raise SolverError(
            "lattice intersections failed to converge: "
            + ", ".join(f"(s={s:.6g}, t={t:.6g}, res={r:.2g}, 2st-Z={c:.2g})" for s, t, r, c in failures)
        )
    states.sort(key=lambda st: float(st.energy))
    return _dedup_states(states)


# ---------------------------------------------------------------------------
# determinant on the real axis

def determinant_real_roots(
    params: ModelParams, e_max: float, e_min: float | None = None
) -> list[float]:
    """Real zeros of the quantization determinant on [e_min, e_max].

    The determinant is real on the real axis by conjugation symmetry; this
    is the third, independent check on the real spectrum. The default floor
    sits just below the deepest attainable ground state at desk scale.
    """
    if e_min is None:
        e_min = -params.Z - 1.0
    Z, om = params.Z, params.omega
    pts = [e_min]
    e = e_min
    while e < e_max:
        t_here = math.sqrt((math.hypot(e, Z) + e) / 2.0)
        rate = (1.0 + abs(om)) / max(t_here, 0.7)
        e = min(e + min(2.0, (math.pi / 4.0) / rate), e_max)
        pts.append(e)
    grid = np.asarray(pts)

    def f_vec(e_arr):
        return np.real(matching_determinant(e_arr.astype(complex), params))

    def f_scalar(e_val):
        return float(matching_determinant(complex(e_val), params).real)

    return _sweep_roots(f_vec, f_scalar, grid)


# ---------------------------------------------------------------------------
# complex spectrum: argument principle on the counting determinant

class _BoundaryHit(Exception):
    """A zero sits (numerically) on the cell boundary; jitter and retry."""


def _edge_points(z0: complex, z1: complex, n: int) -> np.ndarray:
    frac = np.linspace(0.0, 1.0, n)
    return z0 + (z1 - z0) * frac


def _initial_edge_density(z0: complex, z1: complex, params: ModelParams) -> int:
    """A-priori sample count from the phase-rate bound along the edge:
    d(arg G)/dE is of order |z+|/(2|kp|) + |z-|/(2|km|)."""
    probes = _edge_points(z0, z1, 17)
    Z = params.Z
    aw = math.hypot(1.0, params.omega)
    kp = np.sqrt(-probes - 1j * Z)
    km = np.sqrt(-probes + 1j * Z)
    rate = 0.5 * aw * (1.0 / np.maximum(np.abs(kp), 0.3) + 1.0 / np.maximum(np.abs(km), 0.3))
    x = np.abs(probes - z0)
    total = float(np.sum(0.5 * (rate[:-1] + rate[1:]) * np.diff(x)))
    n = int(math.ceil(total * 1.5 / (math.pi / 2.0))) + 8
    return min(max(n, 48), 40000)


def _edge_phase_sum(z0: complex, z1: complex, params: ModelParams) -> float:
    """Total change of arg(G) along the segment, refined until every step
    is below pi/2."""
    n = _initial_edge_density(z0, z1, params)
    pts = list(_edge_points(z0, z1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = counting_determinant(np.asarray(pts), params)
    vals = list(np.asarray(vals, dtype=complex))
    for _ in range(48):
        if any(v == 0.0 or not np.isfinite(v) for v in vals):
            raise _BoundaryHit
        args = np.angle(np.asarray(vals))
        steps = np.diff(args)
        steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
        bad = np.nonzero(np.abs(steps) >= math.pi / 2.0)[0]
        if len(bad) == 0:
            return float(np.sum(steps))
        if len(pts) > 400000:
            raise SolverError("edge phase refinement exploded; window likely touches a zero")
        new_pts = []
        new_vals = []
        bad_set = set(int(b) for b in bad)
        for i in range(len(pts) - 1):
            new_pts.append(pts[i])
            new_vals.append(vals[i])
            if i in bad_set:
                mid = 0.5 * (pts[i] + pts[i + 1])
                if abs(mid - pts[i]) < 1e-12 * max(1.0, abs(mid)):
                    raise _BoundaryHit
                new_pts.append(mid)
                new_vals.append(complex(counting_determinant(mid, params)))
        new_pts.append(pts[-1])
        new_vals.append(vals[-1])
        pts, vals = new_pts, new_vals
    raise SolverError("edge phase did not stabilize")


def _winding_count(re0, re1, im0, im1, params: ModelParams) -> int:
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        total += _edge_phase_sum(a, b, params)
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.05:
        raise SolverError(f"non-integer winding {w:.3f} over [{re0},{re1}]x[{im0},{im1}]")
    return int(round(w))


def _newton_complex(e0: complex, params: ModelParams) -> complex | None:
    e = e0
    for _ in range(80):
        h = 1e-6 * (1.0 + abs(e))
        f0 = counting_determinant(e, params)
        fp = (counting_determinant(e + h, params) - counting_determinant(e - h, params)) / (2.0 * h)
        if fp == 0.0 or not cmath.isfinite(fp):
            return None
        step = f0 / fp
        e = e - step
        if abs(step) < 1e-13 * (1.0 + abs(e)):
            break
    if not cmath.isfinite(e):
        return None
    # residual tolerance scaled by the local derivative: the counting
    # function ranges over many orders of magnitude across a window
    f_final = abs(counting_determinant(e, params))
    h = 1e-6 * (1.0 + abs(e))
    fp = abs(
        (counting_determinant(e + h, params) - counting_determinant(e - h, params)) / (2.0 * h)
    )
    if f_final > 1e-10 * max(1.0, fp * (1.0 + abs(e))):
        return None
    return e


_SPLIT_FRACS = (0.5, 0.55, 0.45, 0.6, 0.4)
_NEWTON_STARTS = ((0.5, 0.5), (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75))


def _find_zeros(re0, re1, im0, im1, params: ModelParams, depth: int = 0) -> list[complex]:
    scale = max(abs(re0), abs(re1), abs(im0), abs(im1), 1.0)
    for attempt in range(5):
        try:
            w = _winding_count(re0, re1, im0, im1, params)
            break
        except _BoundaryHit:
            pad = 1e-7 * scale * (attempt + 1)
            re0, re1, im0, im1 = re0 - pad, re1 + pad, im0 - pad, im1 + pad
    else:
        raise SolverError("could not move the window off a boundary zero")
    if w == 0:
        return []
    if w < 0:
        raise SolverError(f"negative winding {w}: the counting function is not analytic here?")
    small = (re1 - re0) < 1e-6 * scale and (im1 - im0) < 1e-6 * scale
    if w == 1 or small:
        for fx, fy in _NEWTON_STARTS:
            e0 = complex(re0 + fx * (re1 - re0), im0 + fy * (im1 - im0))
            root = _newton_complex(e0, params)
            if root is not None and re0 - 1e-9 * scale <= root.real <= re1 + 1e-9 * scale and (
                im0 - 1e-9 * scale <= root.imag <= im1 + 1e-9 * scale
            ):
                if w == 1:
                    return [root]
                return [root] * w  # degenerate cluster in a tiny cell
        if small:
            raise SolverError(
                f"Newton failed in the minimal cell [{re0},{re1}]x[{im0},{im1}] with winding {w}"
            )
    if depth > 60:
        raise SolverError("window subdivision exceeded maximal depth")
    frac = _SPLIT_FRACS[depth % len(_SPLIT_FRACS)]
    rm = re0 + frac * (re1 - re0)
    im_mid = im0 + frac * (im1 - im0)
    roots: list[complex] = []
    for rect in (
        (re0, rm, im0, im_mid),
        (rm, re1, im0, im_mid),
        (re0, rm, im_mid, im1),
        (rm, re1, im_mid, im1),
    ):
        roots.extend(_find_zeros(*rect, params, depth + 1))
    if len(roots) != w:
        # a zero probably sat on the split line: retry with shifted fractions
        frac2 = _SPLIT_FRACS[(depth + 1) % len(_SPLIT_FRACS)]
        rm = re0 + frac2 * (re1 - re0)
        im_mid = im0 + frac2 * (im1 - im0)
        roots = []
        for rect in (
            (re0, rm, im0, im_mid),
            (rm, re1, im0, im_mid),
            (re0, rm, im_mid, im1),
            (rm, re1, im_mid, im1),
        ):
            roots.extend(_find_zeros(*rect, params, depth + 1))
        if len(roots) != w:
            raise CountMismatchError(
                f"window [{re0},{re1}]x[{im0},{im1}]: winding {w} but {len(roots)} roots refined"
            )
    return roots


_REAL_CLASSIFY_TOL = 1e-8


def complex_spectrum(params: ModelParams, window: EnergyWindow | None = None) -> SpectrumReport:
    """All eigenvalues inside the window by argument-principle counting of
    the entire counting determinant, subdivision until each cell isolates
    one zero, and Newton refinement.

    Roots with |Im E| < 1e-8 are classified real and reported as bound
    states; the rest must come in conjugate pairs (hard error otherwise),
    reported by their Im > 0 member.
    """
    if window is None:
        window = EnergyWindow(0.0, 2000.0, -200.0, 200.0)
    span = max(abs(window.im_min), abs(window.im_max))
    if abs(window.im_min + window.im_max) > 1e-9 * max(span, 1.0):
        raise WindowError(
            f"pair scanning requires a window symmetric about the real axis, got "
            f"[{window.im_min}, {window.im_max}]"
        )
    roots = _find_zeros(window.re_min, window.re_max, window.im_min, window.im_max, params)
    w_total = len(roots)

    real_states: list[BoundState] = []
    uppers: list[complex] = []
    lowers: list[complex] = []
    for root in roots:
        if abs(root.imag) < _REAL_CLASSIFY_TOL:
            e_real = root.real
            if params.Z == 0.0:
                s_val, t_val = 0.0, math.sqrt(max(e_real, 0.0))
            else:
                s_val = _s_of_energy(e_real, params.Z)
                t_val = params.Z / (2.0 * s_val)
            real_states.append(_make_state(s_val, t_val, params))
        elif root.imag > 0.0:
            uppers.append(root)
        else:
            lowers.append(root)

    pair_tol = 1e-8
    unmatched = list(lowers)
    for up in uppers:
        target = up.conjugate()
        best = None
        for lo_root in unmatched:
            d = abs(lo_root - target)
            if best is None or d < best[1]:
                best = (lo_root, d)
        if best is None or best[1] > pair_tol * max(1.0, abs(up)):
            raise SolverError(f"complex root {up} has no conjugate partner in the window")
        unmatched.remove(best[0])
    if unmatched:
        raise SolverError(f"unpaired lower-half roots remain: {unmatched}")

    real_states.sort(key=lambda st: float(st.energy))
    real_states = _dedup_states(real_states)
    uppers.sort(key=lambda e: (e.real, e.imag))
    if len(real_states) + 2 * len(uppers) != w_total:
        raise CountMismatchError(
            f"winding total {w_total} != {len(real_states)} real + 2*{len(uppers)} paired"
        )

    diagnostics = {
        "method": "argument-principle",
        "winding_total": w_total,
        "n_real": len(real_states),
        "n_pairs": len(uppers),
        "max_real_residual": max((st.residual for st in real_states), default=0.0),
    }
    if params.Z > 0.0 and params.omega != 0.0:
        diagnostics["sigma_star"] = sigma_star(params)
    return SpectrumReport(
        params=params,
        real_levels=real_states,
        complex_pairs=uppers,
        window=window,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# counts and critical couplings

def count_real(params: ModelParams, e_max: float) -> int:
    """Number of real levels with E <= e_max. Saturates as e_max grows
    whenever Z != 0 and omega != 0."""
    if params.Z == 0.0:
        return len(hermitian_spectrum(params, e_max))
    return len(real_spectrum_bracket(params, s_max=12.0, e_max=e_max))


def critical_couplings(
    omega: float,
    n_pairs: int,
    z_max: float = 60.0,
    tracking_e_max: float = 400.0,
) -> list[float]:
    """First n_pairs couplings Z_N at which a real level pair merges and
    complexifies, located by bisection on the real-level count within the
    tracking window [0, tracking_e_max].

    Single-level count changes (a level drifting across the window edge)
    are treated as baseline shifts; a bisected jump that is not a clean
    pair loss raises WindowError.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")

    def count_at(z: float) -> int:
        return count_real(ModelParams(Z=z, omega=omega), tracking_e_max)

    criticals: list[float] = []
    z = 0.25
    current = count_at(z)
    step = 0.25
    while len(criticals) < n_pairs:
        z_next = z + step
        if z_next > z_max:
            raise SolverError(
                f"found only {len(criticals)} of {n_pairs} critical couplings below Z={z_max}"
            )
        nxt = count_at(z_next)
        if nxt >= current:
            current = nxt  # count can grow at omega != 0 when levels enter
            z = z_next
            continue
        # locate the first Z in (z, z_next] where the count first drops
        lo, hi = z, z_next
        c_lo = current
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            c_mid = count_at(mid)
            if c_mid < c_lo:
                hi = mid
            else:
                lo, c_lo = mid, c_mid
        drop = c_lo - count_at(hi)
        z_crit = 0.5 * (lo + hi)
        if drop == 2:
            criticals.append(z_crit)
            current = c_lo - 2
        elif drop == 1:
            current = c_lo - 1  # boundary exit, not a merge
        else:
            raise WindowError(
                f"count drops by {drop} at Z={z_crit:.6g}; the merging pair is not "
                f"isolated in the tracking window (e_max={tracking_e_max})"
            )
        z = hi
    return criticals
