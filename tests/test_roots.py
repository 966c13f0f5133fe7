"""The bracketed-root kernel: batched bisection against the scalar one,
and the grid march, sign-change scan and dedup against the loops they
replaced."""

import math

import numpy as np
import pytest

from ptwell import roots, spectrum
from ptwell.errors import WindowError
from ptwell.matching import _theta_of_sinh
from ptwell.model import BoundState, ModelParams, WaveVector
from ptwell.roots import _bisect_batch, _bisect_scalar, _march, _sign_changes


def _theta_brackets(seed: int, n_lines: int = 60):
    """Sign-change brackets of Theta(sigma) - tau on random curves, with
    each bracket's (tau, Omega) and its left value."""
    rng = np.random.default_rng(seed)
    om = float(rng.uniform(-0.4, 0.4))
    grid = np.linspace(-8.0, 8.0, 97)
    a, b, fa, tau, Om = [], [], [], [], []
    for _ in range(n_lines):
        t = float(rng.uniform(0.5, 60.0))
        O = float(rng.choice([1.0, -1.0]) / np.cos(np.pi * rng.uniform(0.0, 0.999) / 2.0))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = _theta_of_sinh(grid, np.sinh(grid), O, om) - t
        ok = np.isfinite(v[:-1]) & np.isfinite(v[1:]) & (np.sign(v[:-1]) * np.sign(v[1:]) < 0.0)
        for i in np.nonzero(ok)[0]:
            a.append(float(grid[i]))
            b.append(float(grid[i + 1]))
            fa.append(float(v[i]))
            tau.append(t)
            Om.append(O)
    return om, np.array(a), np.array(b), np.array(fa), np.array(tau), np.array(Om)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rtol", [1e-15, 1e-12])
def test_bisect_batch_equals_bisect_scalar_bitwise(seed, rtol):
    om, a, b, fa, tau, Om = _theta_brackets(seed)
    assert len(a) > 20

    def f_batch(x, lanes):
        return _theta_of_sinh(x, np.sinh(x), Om[lanes], om) - tau[lanes]

    def f_scalar(j):
        return lambda x: _theta_of_sinh(x, np.sinh(x), float(Om[j]), om) - float(tau[j])

    # a bracket may straddle the curve's pole, where both bisections divide by zero alike
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _bisect_batch(f_batch, a, b, fa, rtol=rtol).tolist()
        want = [
            _bisect_scalar(f_scalar(j), float(a[j]), float(b[j]), float(fa[j]), rtol=rtol)
            for j in range(len(a))
        ]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_bisect_batch_handles_no_brackets():
    out = _bisect_batch(lambda x, lanes: x, np.empty(0), np.empty(0), np.empty(0))
    assert out.shape == (0,)


# ---------------------------------------------------------------------------
# the grid march, the sign-change scan and the sorted dedup

def _old_bracket_grid(params, s_lo, s_max):
    """The bracket sweep's grid loop as it was before roots._march."""
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


def _old_determinant_grid(params, e_min, e_max):
    """The determinant scan's grid loop as it was before roots._march."""
    Z, om = params.Z, params.omega
    pts = [e_min]
    e = e_min
    while e < e_max:
        t_here = math.sqrt((math.hypot(e, Z) + e) / 2.0)
        rate = (1.0 + abs(om)) / max(t_here, 0.7)
        e = min(e + min(2.0, (math.pi / 4.0) / rate), e_max)
        pts.append(e)
    return np.asarray(pts)


def _old_dedup_states(states):
    """The all-pairs dedup as it was, applied by its callers to sorted states."""
    out = []
    for st in states:
        e = st.energy
        if all(abs(e - o.energy) > 1e-7 * max(1.0, abs(e)) for o in out):
            out.append(st)
    return out


def test_sweep_grids_equal_the_old_loops_bitwise(monkeypatch):
    grids = []

    def recording(f, grid, dips=True):
        grids.append(grid)
        return []

    monkeypatch.setattr(spectrum, "_sweep_roots", recording)
    rng = np.random.default_rng(2024)
    for i in range(200):
        Z = float(rng.uniform(0.01, 8.0))
        om = 0.0 if i % 10 == 0 else float(rng.uniform(-0.5, 0.5))
        e_max = float(10.0 ** rng.uniform(1.0, 5.0))
        params = ModelParams(Z, om)
        grids.clear()
        assert spectrum.real_spectrum_bracket(params, e_max=e_max) == []
        assert spectrum.determinant_real_roots(params, e_max=e_max) == []
        bracket, det = grids
        want_bracket = _old_bracket_grid(params, spectrum._s_of_energy(e_max, Z), 12.0)
        want_det = _old_determinant_grid(params, -Z - 1.0, e_max)
        assert bracket.tobytes() == want_bracket.tobytes()
        assert det.tobytes() == want_det.tobytes()


def _state(energy):
    return BoundState(
        kind="real", energy=energy, params=ModelParams(1.0, 0.1), wave=WaveVector(0.0, 1.0)
    )


@pytest.mark.parametrize("seed", range(5))
def test_dedup_states_keeps_what_the_all_pairs_rule_kept(seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-20.0, 3000.0, 150).tolist() + [0.0, 0.5, -0.5]
    energies = list(base)
    for e in base:
        tol = 1e-7 * max(1.0, abs(e))
        # neighbours inside, at and past the tolerance, and runs of them
        for k in rng.integers(0, 4, size=3):
            sign = float(rng.choice([-1.0, 1.0]))
            energies.append(e + sign * tol * float(rng.uniform(0.0, 2.0)) * k)
        energies.append(e + tol)
        energies.append(e)
    states = [_state(e) for e in energies]
    rng.shuffle(states)
    got = spectrum._dedup_states(states)
    want = _old_dedup_states(sorted(states, key=lambda st: st.energy))
    assert len(want) < len(states)
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_march_steps_to_the_end():
    assert _march(0.0, 1.0, lambda x: 0.3).tolist() == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    assert _march(2.0, 2.0, lambda x: 1.0).tolist() == [2.0]


def test_march_raises_past_the_point_bound(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_GRID_POINTS", 5)
    assert len(_march(0.0, 1.0, lambda x: 0.25)) == 5
    monkeypatch.setattr(roots, "_MAX_GRID_POINTS", 4)
    with pytest.raises(WindowError, match=r"sweep grid on \[0.0, 1.0\] passed 4 points at 0.75"):
        _march(0.0, 1.0, lambda x: 0.25)


def test_march_raises_where_the_step_stalls():
    # at once: the point bound is left at its real value
    with pytest.raises(WindowError, match=r"on \[1.0, 2.0\] stalled at 1.0 after 1 points"):
        _march(1.0, 2.0, lambda x: 1e-300)


# a wide range runs into the point bound; a step that underflows against
# the first point stalls there
@pytest.mark.parametrize(
    "solve, message",
    [
        (
            lambda: spectrum.real_spectrum_bracket(ModelParams(1.0, 1e300)),
            "stalled at 0.011180339538113364 after 1 points",
        ),
        (
            lambda: spectrum.count_real(ModelParams(1.0, 0.1), 1e300),
            "stalled at 5e-151 after 1 points",
        ),
        (
            lambda: spectrum.determinant_real_roots(ModelParams(1.0, 0.1), e_max=1e300),
            "passed 10000 points",
        ),
    ],
    # the ids pytest gives a list of bare lambdas, so each case keeps its name
    ids=[f"<lambda>{i}" for i in range(1, 4)],
)
def test_unbounded_sweeps_are_window_errors(monkeypatch, solve, message):
    monkeypatch.setattr(roots, "_MAX_GRID_POINTS", 10_000)
    with pytest.raises(WindowError, match=message):
        solve()


def test_sign_changes_needs_finite_ends():
    vals = np.array([1.0, -2.0, np.inf, -1.0, 0.0, 3.0, np.nan, -3.0, 5.0, -0.0, 1e-300, -1e-300])
    pairs, zero = _sign_changes(vals)
    assert np.nonzero(pairs)[0].tolist() == [0, 7, 10]
    assert np.nonzero(zero)[0].tolist() == [4, 9]
