"""The bracketed-root kernel behind every real root search.

Each caller passes one function f that takes a float or a numpy array,
and a 1-D grid fine enough to resolve every oscillation of f. An
adaptive grid is built by _march from the caller's step rule, bounded by
_MAX_GRID_POINTS; _sign_changes finds the brackets on sampled values. A
single grid holds few brackets, so _sweep_roots bisects them one by one
with _bisect_scalar; a caller holding the brackets of many grids at once
(the lattice tracer's Theta lines) refines them together with
_bisect_batch, which takes the same steps lane by lane.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import WindowError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# A sweep grid past this many points is taken to span a range too wide,
# or to take steps too small, to sweep (a step that does not move at all
# stops the march at once): 4x the largest grid the tests build, the
# determinant scan at e_max = 1e6 with 500,009 points.
_MAX_GRID_POINTS = 2_000_000


def _march(lo: float, hi: float, step) -> np.ndarray:
    """The grid x[0] = lo, x[i+1] = min(x[i] + step(x[i]), hi), ending at
    the first point not below hi.

    Raises WindowError, naming the range and the point reached, when the
    grid would pass _MAX_GRID_POINTS points or a step would not move x."""
    pts = [lo]
    x = lo
    while x < hi:
        if len(pts) == _MAX_GRID_POINTS:
            raise WindowError(
                f"sweep grid on [{lo}, {hi}] passed {_MAX_GRID_POINTS} points at {x}: "
                "the range is too wide or the step too small to resolve"
            )
        nxt = min(x + step(x), hi)
        if nxt == x:
            raise WindowError(
                f"sweep grid on [{lo}, {hi}] stalled at {x} after {len(pts)} points: "
                "the step is below the float spacing there"
            )
        x = nxt
        pts.append(x)
    return np.asarray(pts)


def _sign_changes(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, zero) for sampled values: pairs[i] when vals[i] and
    vals[i+1] are finite with opposite signs, zero[i] when vals[i] == 0."""
    finite = np.isfinite(vals)
    sign = np.sign(vals)
    return finite[:-1] & finite[1:] & (sign[:-1] * sign[1:] < 0.0), vals == 0.0


def _bisect_scalar(f, a: float, b: float, fa: float, rtol: float = 1e-15) -> float:
    """Midpoint of [a, b] after halving it, keeping f(a)*f(b) <= 0, until it
    is narrower than rtol*max(1, |a|). fa is f(a)."""
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
        if b - a < rtol * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def _bisect_batch(f, a, b, fa, rtol: float = 1e-15) -> np.ndarray:
    """_bisect_scalar on every bracket [a[j], b[j]] at once, equal to it
    lane by lane bit for bit: the same midpoints, the same fa*fm <= 0 rule,
    and each lane freezes once it is narrower than rtol*max(1, |a|).

    f(x, lanes) evaluates lane lanes[i] at x[i]: the brackets may belong to
    different functions, told apart by their lane index."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    fa = np.array(fa, dtype=float)
    out = np.empty_like(a)
    lanes = np.arange(a.size)
    for _ in range(200):
        if lanes.size == 0:
            break
        m = 0.5 * (a + b)
        fm = f(m, lanes)
        left = fa * fm <= 0.0
        b = np.where(left, m, b)
        a = np.where(left, a, m)
        fa = np.where(left, fa, fm)
        done = b - a < rtol * np.maximum(1.0, np.abs(a))
        out[lanes[done]] = 0.5 * (a[done] + b[done])
        keep = ~done
        a, b, fa, lanes = a[keep], b[keep], fa[keep], lanes[keep]
    out[lanes] = 0.5 * (a + b)
    return out


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


def _sweep_roots(f, grid: np.ndarray, dips: bool = True) -> list[float]:
    """All roots of f on the grid, sorted: sign changes between finite
    neighbours are bisected. With dips, each sample whose |f| is below its
    neighbours' with the same sign (at an end: rising into the grid) has
    its cell golden-searched for a signed minimum below zero, a nearly
    merged pair whose two roots are then bisected."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(grid), dtype=float)
    pairs, zero = _sign_changes(vals)
    roots = [
        _bisect_scalar(f, float(grid[i]), float(grid[i + 1]), float(vals[i]))
        for i in np.nonzero(pairs)[0]
    ]
    roots.extend(float(x) for x in grid[zero])
    n = len(grid)
    if not dips or n < 2:
        return sorted(roots)
    finite = np.isfinite(vals)
    sign = np.sign(vals)
    # neighbours reflected at the ends: the outer neighbour of an end
    # sample is its inner one, so the interior test covers the end cells
    idx = np.arange(n)
    prev = np.abs(idx - 1)
    nxt = (n - 1) - np.abs(n - 2 - idx)
    mag = np.abs(vals)
    dip = idx[
        finite[prev] & finite & finite[nxt]
        & (sign[prev] == sign) & (sign[nxt] == sign) & (sign != 0.0)
        & (mag < mag[prev]) & (mag < mag[nxt])
    ]
    for i in dip:
        sgn = float(sign[i])
        h = lambda x: sgn * f(x)  # noqa: E731
        a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, n - 1)])
        m = _golden_min(h, a, b)
        if h(m) < 0.0:
            roots.append(_bisect_scalar(f, a, m, f(a)))
            roots.append(_bisect_scalar(f, m, b, f(m)))
    return sorted(roots)
