"""Spectrum production.

Real levels come from three independent methods that must agree:

* bracketing -- a 1-D adaptive sweep of the matching residual along the
  constraint curve t = Z/(2s), with a signed dip probe that resolves
  nearly merged pairs;
* the lattice tracer -- the geometric method: per stripe and lattice-line
  family, solve the frozen-oscillation curve equation for sigma on a xi
  grid refined in rounds where the solution count changes, trace the
  solution loci, detect crossings of the constraint hyperbola and polish
  each with a 2-D Newton iteration. The lines of every family are solved
  together: their grids are scanned in fixed chunks and all brackets are
  bisected in one batch;
* the determinant scan -- the real zeros of the quantization determinant
  along the real energy axis.

Complex pairs come from argument-principle counting of the entire
counting determinant over a window, with recursive subdivision on
verified counts until each cell isolates one zero, followed by Newton
refinement. Each cell's new edges are sampled and refined in one batch.
Critical couplings are located by bisection on the real-level count.

Every real root search -- the bracketing sweep, the determinant scan
and the lattice lines -- goes through the one kernel in ptwell.roots.

All energies are double precision; windows must keep |kappa*(1+|omega|)|
below ~700 so cosh stays finite.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
from .roots import _bisect_batch, _sweep_roots

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

    def f(s):
        return _residual_real_st(s, Z / (2.0 * s), om)

    states = []
    for s_root in _sweep_roots(f, grid):
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

@functools.cache
def _cluster_offsets() -> np.ndarray:
    """Sample offsets clustered on each side of sigma = 0 and of the
    asymptote, built on first use: np.geomspace at import adds about 0.3 MB
    to every process that imports the package."""
    g = np.geomspace(1e-10, 1.0, 40)
    return np.concatenate([-g, g])


# Theta lines scanned at once: a segment's grid holds up to 400 samples,
# so a chunk's arrays stay near 0.1 MB each; scanning all lines of a
# k_max = 16 solve at once held about 240 MB.
_LINE_CHUNK = 16


def _solve_theta_lines(tau_lines, Oms, om: float, sig_cap: float) -> list[np.ndarray]:
    """For each line j, the sorted array of all sigma in [-sig_cap, sig_cap]
    with Theta(sigma) = tau_lines[j] on the curve of Omega = Oms[j].

    Each line's scan splits at the curve's vertical asymptote and clusters
    sample points geometrically around sigma = 0 and around the asymptote,
    where solutions accumulate as Omega grows. The lines are scanned
    _LINE_CHUNK at a time; every bracket of the call is then bisected in
    one _bisect_batch."""
    tau = np.asarray(tau_lines, dtype=float)
    Om = np.asarray(Oms, dtype=float)
    if tau.size == 0:
        return []
    offsets = _cluster_offsets()
    brackets, zeros = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, tau.size, _LINE_CHUNK):
            seg_line, seg_lo, seg_hi, seg_pole = [], [], [], []
            for j in range(c0, min(c0 + _LINE_CHUNK, tau.size)):
                pts, pole = [-sig_cap, sig_cap], math.nan
                if om != 0.0 and Om[j] != 0.0:
                    at = math.asinh(1.0 / (float(Om[j]) * om))
                    if -sig_cap < at < sig_cap:
                        pts, pole = [-sig_cap, at, sig_cap], at
                for a, b in zip(pts[:-1], pts[1:]):
                    eps = 1e-12 * max(1.0, abs(a), abs(b))
                    if b - eps > a + eps:
                        seg_line.append(j)
                        seg_lo.append(a + eps)
                        seg_hi.append(b - eps)
                        seg_pole.append(pole)
            line = np.array(seg_line, dtype=int)
            lo, hi = np.array(seg_lo)[:, None], np.array(seg_hi)[:, None]
            # each row: 240 even samples and the offsets (around the pole
            # too) inside the segment, sorted and deduplicated like np.unique
            n_off = offsets.size
            grid = np.empty((line.size, 240 + 2 * n_off))
            grid[:, :240] = np.linspace(lo[:, 0], hi[:, 0], 240, axis=1)
            grid[:, 240:240 + n_off] = offsets
            grid[:, 240 + n_off:] = np.array(seg_pole)[:, None] + offsets
            near = grid[:, 240:]
            near[~((near > lo) & (near < hi))] = np.inf
            grid.sort(axis=1)
            keep = np.isfinite(grid)
            keep[:, 1:] &= grid[:, 1:] != grid[:, :-1]
            x = grid[keep]
            counts = keep.sum(axis=1)
            del grid, keep, near
            pt_line = np.repeat(line, counts)
            vals = _theta_of_sinh(x, np.sinh(x), Om[pt_line], om)
            vals -= tau[pt_line]
            finite = np.isfinite(vals)
            sign = np.sign(vals)
            pairs = finite[:-1] & finite[1:] & (sign[:-1] * sign[1:] < 0.0)
            pairs[np.cumsum(counts)[:-1] - 1] = False  # no bracket across segments
            cross = np.nonzero(pairs)[0]
            brackets.append((x[cross], x[cross + 1], vals[cross], pt_line[cross]))
            zero = finite & (vals == 0.0)
            zeros.append((x[zero], pt_line[zero]))
        a, b, fa, lane_line = (np.concatenate(parts) for parts in zip(*brackets))

        def f(m, lanes):
            j = lane_line[lanes]
            return _theta_of_sinh(m, np.sinh(m), Om[j], om) - tau[j]

        roots = np.concatenate([_bisect_batch(f, a, b, fa), *(z for z, _ in zeros)])
    line = np.concatenate([lane_line, *(j for _, j in zeros)])
    order = np.lexsort((roots, line))
    return np.split(roots[order], np.cumsum(np.bincount(line, minlength=tau.size))[:-1])


def _newton_2d(s: float, t: float, params: ModelParams) -> tuple[float, float] | None:
    """Newton on (matching residual, 2st - Z) with the analytic Jacobian.

    Returns the polished root or None when the seed does not converge to a
    genuine intersection."""
    Z, om = params.Z, params.omega
    for _ in range(60):
        sig = 2.0 * (s - t * om)
        tau = 2.0 * (s * om + t)
        try:
            sh, ch = math.sinh(sig), math.cosh(sig)
        except OverflowError:
            return None
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
        if not (math.isfinite(s) and math.isfinite(t)):
            return None
        if abs(ds) + abs(dt) < 1e-14 * (1.0 + abs(s) + abs(t)):
            break
    if t <= 0.0:
        return None
    try:
        scale = max(1.0, abs(s * math.sinh(2.0 * (s - t * om))))
    except OverflowError:
        return None
    res = float(_residual_real_st(s, t, om))
    con = 2.0 * s * t - Z
    if abs(res) < 1e-10 * scale and abs(con) < 1e-9 * max(1.0, Z):
        return s, t
    return None


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """np.unique of a float array without NaN. np.unique itself imports
    numpy.ma on first use, which costs a CLI process 12-20 ms."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _loci(lines, params: ModelParams, sig_cap: float) -> list[np.ndarray]:
    """Locus samples on each lattice line (xi, k, p, q) of lines, all solved
    in one _solve_theta_lines call: per line an (n, 4) array whose rows are
    (sigma, 2st - Z, s, t) in increasing sigma."""
    taus = [lattice_compose(LatticeIndex(k, p, q, xi)) for xi, k, p, q in lines]
    live = [j for j, tau in enumerate(taus) if tau > 0.0]
    out = [np.empty((0, 4))] * len(lines)
    if not live:
        return out
    sols = _solve_theta_lines(
        [taus[j] for j in live],
        [omega_factor(lines[j][2], lines[j][0]) for j in live],
        params.omega,
        sig_cap,
    )
    counts = [len(sg) for sg in sols]
    sg = np.concatenate(sols)
    s, t = _st_from_sigma_tau_raw(sg, np.repeat([taus[j] for j in live], counts), params.omega)
    pts = np.stack([sg, 2.0 * s * t - params.Z, s, t], axis=1)
    for j, part in zip(live, np.split(pts, np.cumsum(counts)[:-1])):
        out[j] = part
    return out


def _locus_points(
    xis, k: int, p: int, q: int, params: ModelParams, sig_cap: float
) -> list[np.ndarray]:
    """Locus samples on the lattice lines (k, p, q, xi), one (n, 4) array of
    rows (sigma, 2st - Z, s, t) per xi of xis."""
    return _loci([(xi, k, p, q) for xi in xis], params, sig_cap)


def _trace_loci(
    families: list[tuple[int, int, int]], params: ModelParams, sig_cap: float, n_xi: int
) -> list[dict[float, np.ndarray]]:
    """The loci of each (stripe, p, q) family, keyed by xi in [0, 1).

    Every family starts on one xi grid. Solution-count changes (pair birth
    or death at a tangency) are then refined in rounds: each round adds the
    midpoint of every adjacent pair of xi, in any family, whose counts
    differ and that lie more than 1e-5 apart, until no such pair is left.
    The initial grid of all families is solved in one call, and so is each
    round."""
    # High stripes push intersections against the xi -> 1 boundary like
    # 1 - xi ~ Z^2 / tau^3, so the boundary cluster has to reach far deeper
    # than a uniform grid: 1e-12 covers every root the tau resolution of
    # float64 can distinguish from the boundary pole itself.
    xis = _sorted_distinct(
        np.concatenate([np.linspace(0.0, 1.0 - 1e-6, n_xi), 1.0 - np.geomspace(1e-12, 0.05, 22)])
    ).tolist()
    flat = _loci([(xi, *fam) for fam in families for xi in xis], params, sig_cap)
    loci = [dict(zip(xis, flat[i * len(xis):(i + 1) * len(xis)])) for i in range(len(families))]
    gaps = [(i, lo, hi) for i in range(len(families)) for lo, hi in zip(xis[:-1], xis[1:])]
    while True:
        split = [
            (i, lo, hi, 0.5 * (hi + lo))
            for i, lo, hi in gaps
            if len(loci[i][lo]) != len(loci[i][hi]) and hi - lo > 1e-5
        ]
        if not split:
            return loci
        sols = _loci([(mid, *families[i]) for i, _, _, mid in split], params, sig_cap)
        gaps = []
        for (i, lo, hi, mid), pts in zip(split, sols):
            loci[i][mid] = pts
            gaps += [(i, lo, mid), (i, mid, hi)]


def _trace_family(locus: dict[float, np.ndarray], seeds: list[tuple[float, float]]) -> None:
    """Walk one family's loci in xi order and emit Newton seeds at
    hyperbola crossings.

    Where the solution count changes between neighbouring xi (the
    refinement rounds of _trace_loci have brought them within 1e-5), the
    adjacent-solution midpoints on the richer side are seeded as well: the
    crossing may sit arbitrarily close to the tangency."""
    prev: list[list[float]] | None = None
    for xi in sorted(locus):
        cur = locus[xi].tolist()
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
        prev = cur


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
    families = [(k, p, q) for k in range(0, k_max + 1) for p in (1, -1) for q in (1, -1)]
    seeds: list[tuple[float, float]] = []
    for locus in _trace_loci(families, params, sig_cap, n_xi):
        _trace_family(locus, seeds)
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

    def f(e):
        return np.real(matching_determinant(e, params))

    return _sweep_roots(f, grid)


# ---------------------------------------------------------------------------
# complex spectrum: argument principle on the counting determinant

class _BoundaryHit(Exception):
    """A zero sits (numerically) on the cell boundary; jitter and retry."""


_PROBE_FRACS = np.linspace(0.0, 1.0, 17)


def _edge_samples(
    segments: list[tuple[complex, complex]], params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """The a-priori samples of every segment (z0, z1), in one array, and
    the index in segments of each sample's segment.

    A segment gets the np.linspace(0, 1, n) points of its own n, taken
    from the phase-rate bound d(arg G)/dE ~ |z+|/(2|kp|) + |z-|/(2|km|)
    integrated over 17 probes per segment, all in one (k, 17) array."""
    z0 = np.array([a for a, _ in segments], dtype=complex)
    dz = np.array([b for _, b in segments], dtype=complex) - z0
    probes = z0[:, None] + dz[:, None] * _PROBE_FRACS
    Z = params.Z
    aw = math.hypot(1.0, params.omega)
    kp = np.sqrt(-probes - 1j * Z)
    km = np.sqrt(-probes + 1j * Z)
    rate = 0.5 * aw * (1.0 / np.maximum(np.abs(kp), 0.3) + 1.0 / np.maximum(np.abs(km), 0.3))
    x = np.abs(probes - z0[:, None])
    total = (0.5 * (rate[:, :-1] + rate[:, 1:]) * (x[:, 1:] - x[:, :-1])).sum(axis=1)
    counts = [min(max(math.ceil(v * 1.5 / (math.pi / 2.0)) + 8, 48), 40000) for v in total.tolist()]
    # np.linspace(0, 1, n) is arange(n) * (1 / (n - 1)) with its last point set to 1
    frac = np.concatenate([np.arange(n) * (1.0 / (n - 1)) for n in counts])
    frac[np.cumsum(counts) - 1] = 1.0
    seg = np.repeat(np.arange(len(segments)), counts)
    return z0[seg] + dz[seg] * frac, seg


# A segment refined past this many samples is taken to run through a zero.
_EDGE_MAX_POINTS = 400000


def _edge_phase_sums(
    segments: list[tuple[complex, complex]], params: ModelParams, edges: dict
) -> None:
    """Total change of arg(G) along each segment (z0, z1), refined until
    every step is below pi/2, stored in edges[(z0, z1)].

    All segments are sampled and evaluated in one counting_determinant
    call, and refined in rounds: each round bisects every offending step
    of every segment still open in one call. A segment's result does not
    depend on the others it is batched with. A segment that cannot be
    summed stores the exception its cell raises when it uses it:
    _BoundaryHit for a zero on the segment, WindowError where G
    overflows, SolverError where refinement runs away."""
    pts, seg = _edge_samples(segments, params)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = counting_determinant(pts, params)
        for _ in range(48):
            count = np.bincount(seg, minlength=len(segments))
            first = np.cumsum(count) - count
            steps = np.diff(np.angle(vals))
            steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
            bad = np.nonzero((seg[1:] == seg[:-1]) & (np.abs(steps) >= math.pi / 2.0))[0]
            mids = 0.5 * (pts[bad] + pts[bad + 1])
            tiny = np.abs(mids - pts[bad]) < 1e-12 * np.maximum(1.0, np.abs(mids))
            overflow, zero, rough, hit = (
                np.bincount(ids, minlength=len(segments)) > 0
                for ids in (seg[~np.isfinite(vals)], seg[vals == 0.0], seg[bad], seg[bad[tiny]])
            )
            for i in np.nonzero(count)[0]:
                a, b = segments[i]
                if overflow[i]:
                    edges[(a, b)] = WindowError(
                        f"the counting determinant overflows on the edge from {a} to {b}: "
                        f"windows must keep |kappa*(1+|omega|)| below ~700"
                    )
                elif zero[i]:
                    edges[(a, b)] = _BoundaryHit()
                elif not rough[i]:
                    edges[(a, b)] = float(steps[first[i]:first[i] + count[i] - 1].sum())
                elif count[i] > _EDGE_MAX_POINTS:
                    edges[(a, b)] = SolverError(
                        f"edge phase refinement exploded on the edge from {a} to {b}; "
                        "window likely touches a zero"
                    )
                elif hit[i]:
                    edges[(a, b)] = _BoundaryHit()
                else:
                    continue
                count[i] = 0
            if not count.any():
                return
            # bisect the open segments' rough steps, drop the settled segments
            open_ = count[seg[bad]] > 0
            bad, mids = bad[open_], mids[open_]
            keep = np.insert(count[seg] > 0, bad + 1, True)
            pts = np.insert(pts, bad + 1, mids)[keep]
            vals = np.insert(vals, bad + 1, counting_determinant(mids, params))[keep]
            seg = np.insert(seg, bad + 1, seg[bad])[keep]
    for i in np.nonzero(count)[0]:
        a, b = segments[i]
        edges[(a, b)] = SolverError(f"edge phase did not stabilize on the edge from {a} to {b}")


def _winding_count(re0, re1, im0, im1, params: ModelParams, edges: dict) -> int:
    """Winding of G around the rectangle. edges maps each segment (a, b)
    summed so far to its phase change, or to the exception that stopped
    its sum. A neighbour's phase for (b, a) gives the negative; every
    other side (at most four) goes to _edge_phase_sums in one batch. The
    first side, in order, that could not be summed raises its exception."""
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    sides = list(zip(corners, corners[1:] + corners[:1]))
    new = [(a, b) for a, b in sides if not isinstance(edges.get((b, a)), float)]
    if new:
        _edge_phase_sums(new, params, edges)
    total = 0.0
    for a, b in sides:
        if (a, b) not in new:
            total -= edges[(b, a)]
        elif isinstance(edges[(a, b)], Exception):
            raise edges.pop((a, b))  # once raised, its traceback holds this frame and edges
        else:
            total += edges[(a, b)]
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.05:
        raise SolverError(f"non-integer winding {w:.3f} over [{re0},{re1}]x[{im0},{im1}]")
    return int(round(w))


def _newton_complex(e0: complex, params: ModelParams) -> complex | None:
    def value_and_slope(e: complex) -> tuple[complex, complex]:
        # G at e and at e +- h in one call; the central difference is taken
        # in Python complex arithmetic, where numpy's complex division by
        # 2h would round differently
        h = 1e-6 * (1.0 + abs(e))
        g = counting_determinant(np.array([e, e + h, e - h]), params)
        return complex(g[0]), (complex(g[1]) - complex(g[2])) / (2.0 * h)

    e = e0
    for _ in range(80):
        f0, fp = value_and_slope(e)
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
    f_final, fp = value_and_slope(e)
    if abs(f_final) > 1e-10 * max(1.0, abs(fp) * (1.0 + abs(e))):
        return None
    return e


_SPLIT_FRACS = (0.5, 0.55, 0.45, 0.6, 0.4)
_NEWTON_STARTS = ((0.5, 0.5), (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75))


class _Cell(NamedTuple):
    """A rectangle padded off any boundary zero, with its winding number w.

    scale is taken from the rectangle as requested, before padding."""

    re0: float
    re1: float
    im0: float
    im1: float
    w: int
    scale: float


def _counted_cell(re0, re1, im0, im1, params: ModelParams, edges: dict) -> _Cell:
    """Count the zeros in the rectangle, padding it outward while a zero
    sits on its boundary. The four cells of one split share one edges dict
    (see _winding_count), so each interior segment is summed once."""
    scale = max(abs(re0), abs(re1), abs(im0), abs(im1), 1.0)
    for attempt in range(5):
        try:
            return _Cell(re0, re1, im0, im1, _winding_count(re0, re1, im0, im1, params, edges), scale)
        except _BoundaryHit:
            pad = 1e-7 * scale * (attempt + 1)
            re0, re1, im0, im1 = re0 - pad, re1 + pad, im0 - pad, im1 + pad
    raise SolverError(
        f"could not move the window [{re0},{re1}]x[{im0},{im1}] off a boundary zero"
    )


def _real_axis_sign_change(re0: float, re1: float, params: ModelParams) -> bool:
    """Whether Re G changes sign on [re0, re1] of the real axis, sampled
    at the edge density. G is real there, so a sign change proves a zero."""
    pts, _ = _edge_samples([(complex(re0, 0.0), complex(re1, 0.0))], params)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = counting_determinant(pts, params).real
        return bool(np.any(vals[:-1] * vals[1:] < 0.0))


def _find_zeros(cell: _Cell, params: ModelParams, depth: int = 0) -> list[complex]:
    """Exactly cell.w zeros of G in the counted cell, or a SolverError.

    A cell with w = 1 (or one shrunk below 1e-6 of the scale) is refined by
    Newton from a few interior starts. Otherwise it is split into four at
    the first fraction, in _SPLIT_FRACS order from the depth, whose
    children's windings add up to w; all four children are counted before
    any of them is solved, and the four children of one split sum each
    interior segment once; each child's segments not summed yet are
    sampled in one batch (see _edge_phase_sums). A split line through a
    zero pads the children over it, so both count it, and the sum exceeds
    w. So a split whose line is the real axis, where the real levels sit,
    is skipped without counting when Re G changes sign along it.
    """
    re0, re1, im0, im1, w, scale = cell
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
    tried = []
    for k in (0, 1):
        frac = _SPLIT_FRACS[(depth + k) % len(_SPLIT_FRACS)]
        rm = re0 + frac * (re1 - re0)
        im_mid = im0 + frac * (im1 - im0)
        if im_mid == 0.0 and _real_axis_sign_change(re0, re1, params):
            tried.append(
                f"split fraction {frac} skipped: Re G changes sign on its line Im E = 0, "
                "so both halves would count that zero"
            )
            continue
        edges: dict = {}
        children = [
            _counted_cell(*rect, params, edges)
            for rect in (
                (re0, rm, im0, im_mid),
                (rm, re1, im0, im_mid),
                (re0, rm, im_mid, im1),
                (rm, re1, im_mid, im1),
            )
        ]
        total = sum(child.w for child in children)
        if total == w:
            break
        tried.append(f"child windings add up to {total} at split fraction {frac}")
    else:
        raise CountMismatchError(
            f"window [{re0},{re1}]x[{im0},{im1}]: winding {w}, but " + "; ".join(tried)
        )
    roots: list[complex] = []
    for child in children:
        roots.extend(_find_zeros(child, params, depth + 1))
    return roots


_REAL_CLASSIFY_TOL = 1e-8


def complex_spectrum(params: ModelParams, window: EnergyWindow | None = None) -> SpectrumReport:
    """All eigenvalues inside the window by argument-principle counting of
    the entire counting determinant, subdivision until each cell isolates
    one zero, and Newton refinement.

    A cell is split only where the windings of its four children add up
    to its own, checked before any child is solved; if neither of the two
    split fractions tried adds up, CountMismatchError names the cell. A
    split along the real axis is skipped without counting when G changes
    sign on it, since both halves would count that real level; the four
    children of a split integrate each shared interior edge once, and the
    new edges of each cell are sampled and refined in one batch.

    Roots with |Im E| < 1e-8 are classified real and reported as bound
    states; the rest must come in conjugate pairs (hard error otherwise),
    reported by their Im > 0 member.

    For Z > 0 and omega != 0 the diagnostics carry sigma_star, except where
    the envelope and the hyperbola do not cross in [-50, -2] (for example
    Z = 5, omega = 0.5): the key is then left out and the roots still stand.
    """
    if window is None:
        window = EnergyWindow(0.0, 2000.0, -200.0, 200.0)
    span = max(abs(window.im_min), abs(window.im_max))
    if abs(window.im_min + window.im_max) > 1e-9 * max(span, 1.0):
        raise WindowError(
            f"pair scanning requires a window symmetric about the real axis, got "
            f"[{window.im_min}, {window.im_max}]"
        )
    roots = _find_zeros(
        _counted_cell(window.re_min, window.re_max, window.im_min, window.im_max, params, {}), params
    )
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
        try:
            diagnostics["sigma_star"] = sigma_star(params)
        except SolverError:
            pass  # no crossover to report; the roots do not depend on it
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
