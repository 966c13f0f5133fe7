"""Spectrum production.

Real levels come from three independent methods that must agree:

* bracketing -- a 1-D adaptive sweep of the matching residual along the
  constraint curve t = Z/(2s) up to the ceiling constraint._s_ceiling
  proves, with a signed dip probe that resolves nearly merged pairs;
* the lattice tracer -- the geometric method: per stripe and lattice-line
  family, solve the frozen-oscillation curve equation for sigma on a xi
  grid refined in rounds where the solution count changes, trace the
  solution loci, detect crossings of the constraint hyperbola and polish
  each with a 2-D Newton iteration. The lines of every family are solved
  together: their grids are scanned in fixed chunks and all brackets are
  bisected in one batch. _locus_points is the one locus sampler: `ptwell
  curves` draws the loci it returns;
* the determinant scan -- the real zeros of the quantization determinant
  along the real energy axis, above the floor constraint._s_ceiling proves.

Complex pairs come from argument-principle counting of the entire
counting determinant over a window, with recursive subdivision on
verified counts until each cell isolates one zero, followed by Newton
refinement. Each cell's new edges are sampled and refined in one batch,
and Newton polishes all of a window's isolated cells in one batch: each
round evaluates G for every unfinished cell in one counting_determinant
call, while each cell's own steps run in Python complex arithmetic.
Critical couplings are located by bisection on the real-level count.

Every real root search -- the bracketing sweep, the determinant scan
and the lattice lines -- goes through the one kernel in ptwell.roots: the
two sweeps build their grids with roots._march from their own step rules,
and every scan finds its brackets with roots._sign_changes. The methods'
levels are deduplicated in energy order by _dedup_states.

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

from .constraint import _s_ceiling, sigma_star
from .errors import (
    CountMismatchError,
    NodeAtMatchingPointError,
    SolverError,
    WindowError,
)
from .matching import (
    _kappas,
    _residual_real_st,
    _theta_of_sinh,
    _theta_pole,
    amplitude_A,
    counting_determinant,
    matching_determinant,
)
from .model import (
    BoundState,
    LatticeIndex,
    ModelParams,
    WaveVector,
    _sigma_tau_from_st_raw,
    _st_from_sigma_tau_raw,
    lattice_compose,
    omega_factor,
)
from .roots import _bisect_batch, _march, _sign_changes, _sweep_roots

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
    """Rectangle in the complex energy plane, with finite bounds and spans."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
        box = f"[{self.re_min}, {self.re_max}] x [{self.im_min}, {self.im_max}]"
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise WindowError(f"degenerate window {box}")
        # an infinite bound makes its span infinite or NaN
        if not (math.isfinite(self.re_max - self.re_min) and math.isfinite(self.im_max - self.im_min)):
            raise WindowError(f"window {box} needs finite bounds and finite spans")


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


def real_spectrum_bracket(params: ModelParams, e_max: float = 2000.0) -> list[BoundState]:
    """Real levels with E <= e_max by sweeping the matching residual along
    the constraint curve t = Z/(2s), over s from s(e_max) up to
    constraint._s_ceiling (at least 12), above which no level lies.

    An empty result is valid. Z = 0 dispatches to hermitian_spectrum.
    """
    if params.Z == 0.0:
        return hermitian_spectrum(params, e_max)
    Z, om = params.Z, params.omega
    s_lo = _s_of_energy(e_max, Z)
    # floored at 12: where the ceiling is lower, the grid does not depend on it
    s_hi = max(12.0, _s_ceiling(Z, om))
    if s_lo >= s_hi:
        return []
    if s_lo * s_lo == 0.0:
        raise WindowError(
            f"Z={Z} is too small for e_max={e_max}: s(e_max)^2 underflows to 0, "
            "so the bracket sweep cannot step along t = Z/(2s)"
        )

    def step(s):
        # the rotated phase advances at most pi/4 and sigma at most 1/4 per
        # step, so no oscillation is skipped
        dtau_ds = abs(2.0 * om - Z / (s * s))
        dsig_ds = abs(2.0 + om * Z / (s * s))
        return min(0.25, (math.pi / 4.0) / max(dtau_ds, 1e-9), 0.25 / max(dsig_ds, 1e-9))

    grid = _march(s_lo, s_hi, step)
    log.info(
        "bracket sweep: %d grid points, s in [%.3g, %.3g], t in [%.3g, %.3g]",
        len(grid), s_lo, s_hi, Z / (2.0 * s_hi), Z / (2.0 * s_lo),
    )

    def f(s):
        return _residual_real_st(s, Z / (2.0 * s), om)

    states = []
    for s_root in _sweep_roots(f, grid):
        t_root = Z / (2.0 * s_root)
        if t_root * t_root - s_root * s_root <= e_max:
            states.append(_make_state(s_root, t_root, params))
    return _dedup_states(states)


def _dedup_states(states: list[BoundState]) -> list[BoundState]:
    """The states sorted by energy, each dropped that lies within
    1e-7*max(1, |E|) of one kept below it: on sorted energies the last one
    kept is the closest."""
    out: list[BoundState] = []
    for st in sorted(states, key=lambda st: st.energy):
        e = st.energy
        if not out or abs(e - out[-1].energy) > 1e-7 * max(1.0, abs(e)):
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

# the lattice tracer solves for sigma in [-_SIG_CAP, _SIG_CAP]
_SIG_CAP = 25.0


def _solve_theta_lines(
    tau_lines, Oms, om: float, sig_cap: float
) -> tuple[np.ndarray, np.ndarray]:
    """All sigma in [-sig_cap, sig_cap] with Theta(sigma) = tau_lines[j]
    on the curve of Omega = Oms[j], over every line j: the roots flat, and
    each root's line index, sorted by line and then by sigma.

    Each line's scan splits at the curve's vertical asymptote and clusters
    sample points geometrically around sigma = 0 and around the asymptote,
    where solutions accumulate as Omega grows. The lines are scanned
    _LINE_CHUNK at a time; every bracket of the call is then bisected in
    one _bisect_batch."""
    tau = np.asarray(tau_lines, dtype=float)
    Om = np.asarray(Oms, dtype=float)
    offsets = _cluster_offsets()
    brackets, zeros = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, tau.size, _LINE_CHUNK):
            seg_line, seg_lo, seg_hi, seg_pole = [], [], [], []
            for j in range(c0, min(c0 + _LINE_CHUNK, tau.size)):
                pts, pole = [-sig_cap, sig_cap], math.nan
                if om != 0.0:
                    at = _theta_pole(float(Om[j]), om)
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
            pairs, zero = _sign_changes(vals)
            pairs[np.cumsum(counts)[:-1] - 1] = False  # no bracket across segments
            cross = np.nonzero(pairs)[0]
            brackets.append((x[cross], x[cross + 1], vals[cross], pt_line[cross]))
            zeros.append((x[zero], pt_line[zero]))
        a, b, fa, lane_line = (np.concatenate(parts) for parts in zip(*brackets))

        def f(m, lanes):
            j = lane_line[lanes]
            return _theta_of_sinh(m, np.sinh(m), Om[j], om) - tau[j]

        roots = np.concatenate([_bisect_batch(f, a, b, fa), *(z for z, _ in zeros)])
    line = np.concatenate([lane_line, *(j for _, j in zeros)])
    order = np.lexsort((roots, line))
    return roots[order], line[order]


def _newton_2d(s: float, t: float, params: ModelParams) -> tuple[float, float] | None:
    """Newton on (matching residual, 2st - Z) with the analytic Jacobian.

    Returns the polished root or None when the seed does not converge to a
    genuine intersection."""
    Z, om = params.Z, params.omega
    for _ in range(60):
        sig, tau = _sigma_tau_from_st_raw(s, t, om)
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
        scale = max(1.0, abs(s * math.sinh(_sigma_tau_from_st_raw(s, t, om)[0])))
    except OverflowError:
        return None
    res = float(_residual_real_st(s, t, om))
    con = 2.0 * s * t - Z
    if abs(res) < 1e-10 * scale and abs(con) < 1e-9 * max(1.0, Z):
        return s, t
    return None


def _loci(lines, params: ModelParams, sig_cap: float) -> list[np.ndarray]:
    """Locus samples on each lattice line (xi, k, p, q) of lines, all solved
    in one _solve_theta_lines call: per line an (n, 4) array whose rows are
    (sigma, 2st - Z, s, t) in increasing sigma.

    Every line has tau >= pi*(1 - xi)/2 > 0, since the tracer's xi stay at
    or below 1 - 1e-12, so every line is solved."""
    taus = np.array([lattice_compose(LatticeIndex(k, p, q, xi)) for xi, k, p, q in lines])
    Oms = [omega_factor(p, xi) for xi, k, p, q in lines]
    sg, line = _solve_theta_lines(taus, Oms, params.omega, sig_cap)
    s, t = _st_from_sigma_tau_raw(sg, taus[line], params.omega)
    pts = np.stack([sg, 2.0 * s * t - params.Z, s, t], axis=1)
    return np.split(pts, np.cumsum(np.bincount(line, minlength=len(lines)))[:-1])


def _locus_points(
    families: list[tuple[int, int, int]], params: ModelParams, sig_cap: float
) -> list[dict[float, np.ndarray]]:
    """The loci of each (stripe, p, q) family, keyed by xi in [0, 1): per xi
    an (n, 4) array of rows (sigma, 2st - Z, s, t), sigma in [-sig_cap,
    sig_cap] increasing. The lattice tracer and `ptwell curves` both
    sample the loci here.

    Every family starts on one xi grid: 41 even points on [0, 1 - 1e-6] and
    22 geometric ones from 1 - 0.05 to 1 - 1e-12. Solution-count changes
    (pair birth or death at a tangency) are then refined in rounds: each
    round adds the midpoint of every adjacent pair of xi, in any family,
    whose counts differ and that lie more than 1e-5 apart, until no such
    pair is left. The initial grid of all families is solved in one call,
    and so is each round."""
    # High stripes push intersections against the xi -> 1 boundary like
    # 1 - xi ~ Z^2 / tau^3, so the boundary cluster has to reach far deeper
    # than a uniform grid: 1e-12 covers every root the tau resolution of
    # float64 can distinguish from the boundary pole itself.
    even = np.linspace(0.0, 1.0 - 1e-6, 41)
    x = np.sort(np.concatenate([even, 1.0 - np.geomspace(1e-12, 0.05, 22)]))
    # sorted and deduplicated by hand, not by np.unique: that imports
    # numpy.ma on first use, which costs a CLI process 12-20 ms
    xis = x[np.concatenate(([True], x[1:] != x[:-1]))].tolist()
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
    refinement rounds of _locus_points have brought them within 1e-5), the
    adjacent-solution midpoints on the richer side are seeded as well: the
    crossing may sit arbitrarily close to the tangency. Otherwise each
    sample is paired with the nearest in sigma of the previous column, the
    first one on a tie."""
    cols = [locus[xi].tolist() for xi in sorted(locus)]
    for prev, cur in zip(cols[:-1], cols[1:]):
        if len(cur) != len(prev):
            rich = cur if len(cur) > len(prev) else prev
            for a, b in zip(rich[:-1], rich[1:]):
                if abs(a[0] - b[0]) < 1.0:
                    seeds.append((0.5 * (a[2] + b[2]), 0.5 * (a[3] + b[3])))
            continue
        for sg, h, s, t in cur:
            sg0, h0, s0, t0 = min(prev, key=lambda row: abs(sg - row[0]))
            if abs(sg - sg0) < 1.5 and h * h0 < 0.0:
                seeds.append((0.5 * (s + s0), 0.5 * (t + t0)))


def real_spectrum_lattice(params: ModelParams, k_max: int) -> list[BoundState]:
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
    for locus in _locus_points(families, params, _SIG_CAP):
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
    return _dedup_states(states)


# ---------------------------------------------------------------------------
# determinant on the real axis

def determinant_real_roots(
    params: ModelParams, e_max: float, e_min: float | None = None
) -> list[float]:
    """Real zeros of the quantization determinant on [e_min, e_max].

    The determinant is real on the real axis by conjugation symmetry; this
    is the third, independent check on the real spectrum. The default floor
    is the energy at constraint._s_ceiling, below which no level lies.
    """
    Z, om = params.Z, params.omega
    if e_min is None:
        s_c = _s_ceiling(Z, om)
        # capped at -Z - 1: where the bound is higher, the grid does not depend on it
        e_min = min(-Z - 1.0, Z * Z / (4.0 * s_c * s_c) - s_c * s_c)

    def step(e):
        t_here = math.sqrt((math.hypot(e, Z) + e) / 2.0)
        rate = (1.0 + abs(om)) / max(t_here, 0.7)
        return min(2.0, (math.pi / 4.0) / rate)

    grid = _march(e_min, e_max, step)

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
    aw = math.hypot(1.0, params.omega)
    kp, km = _kappas(probes, params.Z)
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
    return bool(_sign_changes(vals)[0].any())


def _value_and_slope(e: complex):
    """G at e and its central difference, as a generator step: yields the
    points (e, e + h, e - h), is sent G there and returns (G(e), G'(e)).
    The difference is taken in Python complex arithmetic, where numpy's
    complex division by 2h would round differently."""
    h = 1e-6 * (1.0 + abs(e))
    g0, g1, g2 = yield (e, e + h, e - h)
    return g0, (g1 - g2) / (2.0 * h)


def _newton_lane(e: complex):
    """Newton on G from e, as a generator driven by _newton_batch: the root,
    or None where the slope vanishes or turns non-finite, the iterate turns
    non-finite, or the residual, scaled by the local slope, stays large."""
    for _ in range(80):
        f0, fp = yield from _value_and_slope(e)
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
    f_final, fp = yield from _value_and_slope(e)
    if abs(f_final) > 1e-10 * max(1.0, abs(fp) * (1.0 + abs(e))):
        return None
    return e


def _cell_newton(cell: _Cell):
    """Newton from each of _NEWTON_STARTS in turn, as a generator driven by
    _newton_batch: the first root that lands in the cell (within 1e-9 of
    its scale), or None. A start runs only when the one before it failed
    or left the cell."""
    re0, re1, im0, im1, _, scale = cell
    tol = 1e-9 * scale
    for fx, fy in _NEWTON_STARTS:
        root = yield from _newton_lane(complex(re0 + fx * (re1 - re0), im0 + fy * (im1 - im0)))
        if root is not None and (
            re0 - tol <= root.real <= re1 + tol and im0 - tol <= root.imag <= im1 + tol
        ):
            return root
    return None


def _newton_batch(lanes: list, params: ModelParams) -> list:
    """Run Newton generators (see _newton_lane) as lanes of one iteration:
    each round evaluates G at every live lane's three points in one
    counting_determinant call. Each lane's result is its return value, or
    the exception it raised, stored so that the caller raises it in the
    lane's turn. A lane's result does not depend on the lanes beside it."""
    results: list = [None] * len(lanes)
    pending = dict.fromkeys(range(len(lanes)))
    while pending:
        points = {}
        for i, vals in pending.items():
            try:
                points[i] = lanes[i].send(vals)
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:
                results[i] = exc
        if not points:
            break
        g = counting_determinant(np.array([p for pts in points.values() for p in pts]), params).tolist()
        pending = {i: g[3 * j:3 * j + 3] for j, i in enumerate(points)}
    return results


def _minimal(cell: _Cell) -> bool:
    """Whether the cell has shrunk below 1e-6 of its scale on both sides."""
    return cell.re1 - cell.re0 < 1e-6 * cell.scale and cell.im1 - cell.im0 < 1e-6 * cell.scale


def _isolate(cell: _Cell, params: ModelParams, depth: int, out: list, split: bool = False) -> None:
    """Append to out, depth first, (cell, depth) for every isolated cell in
    the counted cell: winding 1, or minimal (see _minimal).

    Any other cell with w > 0 (or, with split, the cell itself) is split
    into four at the first fraction, in _SPLIT_FRACS order from the depth,
    whose children's windings add up to w; all four children are counted
    before any of them is split, and the four children of one split sum
    each interior segment once; each child's segments not summed yet are
    sampled in one batch (see _edge_phase_sums). A split line through a
    zero pads the children over it, so both count it, and the sum exceeds
    w. So a split whose line is the real axis, where the real levels sit,
    is skipped without counting when Re G changes sign along it. On an
    error, out holds the isolated cells that come before it.
    """
    re0, re1, im0, im1, w, scale = cell
    if w == 0:
        return
    if w < 0:
        raise SolverError(f"negative winding {w}: the counting function is not analytic here?")
    if not split and (w == 1 or _minimal(cell)):
        out.append((cell, depth))
        return
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
    for child in children:
        _isolate(child, params, depth + 1, out)


def _find_zeros(cell: _Cell, params: ModelParams, depth: int = 0, split: bool = False) -> list[complex]:
    """Exactly cell.w zeros of G in the counted cell, in depth-first cell
    order, or the error the first failing cell raises in that order.

    _isolate hands back the isolated cells, and one _newton_batch polishes
    them all. A cell's root counts w times: a minimal cell with w > 1 holds
    a degenerate cluster. A minimal cell that no start solves raises; any
    other is split as usual, and its children are solved in turn. If
    counting raises, the cells isolated before it are solved first, since
    one of them may fail first.
    """
    cells: list[tuple[_Cell, int]] = []
    try:
        _isolate(cell, params, depth, cells, split)
    except Exception:
        _polish(cells, params)
        raise
    return _polish(cells, params)


def _polish(cells: list[tuple[_Cell, int]], params: ModelParams) -> list[complex]:
    """The zeros of the isolated (cell, depth) pairs, in their order (see
    _find_zeros)."""
    roots: list[complex] = []
    found = _newton_batch([_cell_newton(cell) for cell, _ in cells], params)
    for (cell, depth), root in zip(cells, found):
        if isinstance(root, Exception):
            raise root
        if root is not None:
            roots += [root] * cell.w
        elif _minimal(cell):
            raise SolverError(
                f"Newton failed in the minimal cell [{cell.re0},{cell.re1}]x[{cell.im0},{cell.im1}] "
                f"with winding {cell.w}"
            )
        else:
            roots += _find_zeros(cell, params, depth, split=True)
    return roots


_REAL_CLASSIFY_TOL = 1e-8


def _require_symmetric(window: EnergyWindow) -> None:
    """WindowError unless the window is symmetric about the real axis, so
    that it holds both members of every conjugate pair."""
    span = max(abs(window.im_min), abs(window.im_max))
    if abs(window.im_min + window.im_max) > 1e-9 * max(span, 1.0):
        raise WindowError(
            f"pair scanning requires a window symmetric about the real axis, got "
            f"[{window.im_min}, {window.im_max}]"
        )


def complex_spectrum(params: ModelParams, window: EnergyWindow) -> SpectrumReport:
    """All eigenvalues inside the window by argument-principle counting of
    the entire counting determinant, subdivision until each cell isolates
    one zero, and one Newton refinement batched over all isolated cells.

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
    _require_symmetric(window)
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
    return len(real_spectrum_bracket(params, e_max=e_max))


def critical_couplings(omega: float, n_pairs: int, tracking_e_max: float = 400.0) -> list[float]:
    """First n_pairs couplings Z_N at which a real level pair merges and
    complexifies, located by bisection on the real-level count within the
    tracking window [0, tracking_e_max], for Z up to 60.

    Z steps by 0.25 from 0.25; a step whose count falls is bisected down to
    1e-4, each count taken once. A drop of 2 is a merge, reported at the
    midpoint of the last bracket; a drop of 1 (a level drifting across the
    window edge) is a baseline shift and is skipped; any other drop raises
    WindowError. Finding fewer than n_pairs below Z = 60 raises SolverError,
    which names the top of the tracking window.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    z_max = 60.0

    def count_at(z: float) -> int:
        return count_real(ModelParams(Z=z, omega=omega), tracking_e_max)

    criticals: list[float] = []
    z, current = 0.25, count_at(0.25)
    while len(criticals) < n_pairs:
        lo, hi = z, z + 0.25
        if hi > z_max:
            raise SolverError(
                f"found only {len(criticals)} of {n_pairs} critical couplings below Z={z_max}: "
                f"no {'further ' if criticals else ''}level pair merges below "
                f"E = {tracking_e_max:g}, the top of the tracking window: raise "
                "tracking_e_max (--emax on the CLI)"
            )
        c_lo, c_hi = current, count_at(hi)
        if c_hi < c_lo:
            # locate the first Z in (lo, hi] where the count drops
            while hi - lo > 1e-4:
                mid = 0.5 * (lo + hi)
                c_mid = count_at(mid)
                if c_mid < c_lo:
                    hi, c_hi = mid, c_mid
                else:
                    lo, c_lo = mid, c_mid
            drop, z_crit = c_lo - c_hi, 0.5 * (lo + hi)
            if drop == 2:
                criticals.append(z_crit)
            elif drop != 1:
                raise WindowError(
                    f"count drops by {drop} at Z={z_crit:.6g}; the merging pair is not "
                    f"isolated in the tracking window (e_max={tracking_e_max})"
                )
        z, current = hi, c_hi
    return criticals
