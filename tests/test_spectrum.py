"""Real and complex spectra: four solvers, counts, critical couplings."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

import properties as P
from ptwell import spectrum
from ptwell.errors import CountMismatchError, SolverError, WindowError
from ptwell.model import (
    LatticeIndex,
    ModelParams,
    RotatedPoint,
    lattice_compose,
    omega_factor,
    sigma_tau_from_st,
    st_from_sigma_tau,
)
from ptwell.constraint import sigma_star, xi_branch
from ptwell.matching import _theta_of_sinh, residual_real
from ptwell.roots import _sweep_roots
from ptwell.spectrum import (
    EnergyWindow,
    _newton_2d,
    complex_spectrum,
    count_real,
    critical_couplings,
    determinant_real_roots,
    hermitian_spectrum,
    real_spectrum_bracket,
    real_spectrum_lattice,
)

PI = math.pi

# Frozen from this build and cross-checked against the two other root
# finders to 1e-8 (see the three-method agreement tests below).
GOLDEN_Z1_OM0 = [
    2.5699590331233,
    9.79227238721084,
    22.2180196719001,
    39.4593591524662,
    61.6891014668864,
    88.8179849828254,
    120.904727289334,
    157.908917532688,
    199.860742064099,
    246.737068993474,
    298.556371426108,
    355.303646911256,
]

GOLDEN_PAIRS_Z1_OM01 = [
    2289.9840950119 + 47.609684509179j,
    2598.4036813864 + 80.561041560981j,
    2925.9889404016 + 114.32959153166j,
    3272.7555739764 + 150.78121333665j,
]


def _energies(states):
    return [st.energy for st in states]


# ---------------------------------------------------------------------------
# Hermitian limit


def test_hermitian_levels():
    got = _energies(hermitian_spectrum(ModelParams(Z=0.0, omega=0.0), e_max=30.0))
    assert got == pytest.approx([PI**2 / 4, PI**2, 9 * PI**2 / 4], rel=1e-12)


def test_hermitian_levels_ignore_omega():
    a = _energies(hermitian_spectrum(ModelParams(Z=0.0, omega=0.0), e_max=200.0))
    b = _energies(hermitian_spectrum(ModelParams(Z=0.0, omega=0.5), e_max=200.0))
    assert a == b


def test_hermitian_empty_below_ground_state():
    assert hermitian_spectrum(ModelParams(Z=0.0, omega=0.0), e_max=1.0) == []


def test_hermitian_requires_zero_coupling():
    with pytest.raises(ValueError):
        hermitian_spectrum(ModelParams(Z=1.0, omega=0.0), e_max=10.0)


def test_hermitian_formula_first_20():
    got = _energies(hermitian_spectrum(ModelParams(Z=0.0, omega=0.0), e_max=21**2 * PI**2 / 4))
    want = [(n + 1) ** 2 * PI**2 / 4 for n in range(20)]
    assert got[:20] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# real spectrum, three methods


def test_bracket_golden_levels():
    got = _energies(real_spectrum_bracket(ModelParams(Z=1.0, omega=0.0), e_max=400.0))
    assert got == pytest.approx(GOLDEN_Z1_OM0, rel=1e-9)


def test_bracket_dispatches_hermitian_at_zero_coupling():
    a = _energies(real_spectrum_bracket(ModelParams(Z=0.0, omega=0.3), e_max=100.0))
    b = _energies(hermitian_spectrum(ModelParams(Z=0.0, omega=0.3), e_max=100.0))
    assert a == b


def test_bracket_honors_energy_ceiling():
    states = real_spectrum_bracket(ModelParams(Z=2.0, omega=0.1), e_max=250.0)
    assert states and all(st.energy <= 250.0 for st in states)


@pytest.mark.parametrize(
    "energy, Z",
    # the ground levels at (300, 1) and (60, 5), a shallow one, a deep one
    [(-10.1168, 300.0), (-142.79, 60.0), (-1.0, 0.5), (-1e4, 2.0)],
)
def test_s_of_a_negative_energy_lies_on_the_hyperbola(energy, Z):
    s = spectrum._s_of_energy(energy, Z)
    t = Z / (2.0 * s)
    assert t * t - s * s == pytest.approx(energy, rel=1e-12, abs=0.0)


def test_lattice_matches_bracket():
    for Z, om in ((1.0, 0.1), (2.0, -0.2)):
        params = ModelParams(Z=Z, omega=om)
        brack = _energies(real_spectrum_bracket(params))
        latt = [e for e in _energies(real_spectrum_lattice(params, k_max=16)) if e <= 2000.0]
        assert len(latt) == len(brack)
        assert latt == pytest.approx(brack, rel=1e-8)


def test_lattice_rejects_empty_stripe_range():
    with pytest.raises(ValueError):
        real_spectrum_lattice(ModelParams(Z=1.0, omega=0.1), k_max=0)


def test_determinant_roots_match_bracket():
    params = ModelParams(Z=1.0, omega=0.1)
    brack = _energies(real_spectrum_bracket(params))
    det = determinant_real_roots(params, e_max=2000.0)
    assert det == pytest.approx(brack, rel=1e-8)


def test_real_states_report_kind_and_amplitude():
    states = real_spectrum_bracket(ModelParams(Z=1.0, omega=0.1), e_max=100.0)
    for st in states:
        assert st.kind == "real"
        assert st.wave is not None and st.wave.s >= 0.0
        assert st.A is None or math.isfinite(st.A)


# ---------------------------------------------------------------------------
# counting and saturation


def test_count_values():
    assert count_real(ModelParams(Z=0.0, omega=0.0), 100.0) == 6
    assert count_real(ModelParams(Z=1.0, omega=0.0), 100.0) == 6


def test_count_saturates_with_rotation():
    params = ModelParams(Z=1.0, omega=0.1)
    assert count_real(params, 1e4) == 29
    assert count_real(params, 1e6) == 29


def test_count_keeps_growing_without_rotation():
    params = ModelParams(Z=1.0, omega=0.0)
    assert count_real(params, 4e4) > count_real(params, 1e4)


# ---------------------------------------------------------------------------
# complex spectrum


def test_complex_spectrum_pure_real_at_zero_coupling():
    rep = complex_spectrum(ModelParams(Z=0.0, omega=0.3), window=EnergyWindow(0.0, 100.0, -10.0, 10.0))
    assert len(rep.real_levels) == 6 and rep.complex_pairs == []
    want = [(n + 1) ** 2 * PI**2 / 4 for n in range(6)]
    assert _energies(rep.real_levels) == pytest.approx(want, rel=1e-8)


def test_complex_spectrum_real_only_window():
    rep = complex_spectrum(ModelParams(Z=1.0, omega=0.0), window=EnergyWindow(0.0, 100.0, -10.0, 10.0))
    assert len(rep.real_levels) == 6 and rep.complex_pairs == []
    assert _energies(rep.real_levels) == pytest.approx(GOLDEN_Z1_OM0[:6], rel=1e-8)


def test_complex_spectrum_finds_conjugate_pairs():
    rep = complex_spectrum(
        ModelParams(Z=1.0, omega=0.1), window=EnergyWindow(2100.0, 3500.0, -200.0, 200.0)
    )
    assert rep.real_levels == []
    assert rep.complex_pairs == pytest.approx(GOLDEN_PAIRS_Z1_OM01, rel=1e-9)
    assert all(e.imag > 0 for e in rep.complex_pairs)
    d = rep.diagnostics
    assert d["n_pairs"] == 4 and d["n_real"] == 0 and d["winding_total"] == 8


def test_complex_spectrum_diagnostics_carry_crossover():
    rep = complex_spectrum(ModelParams(Z=1.0, omega=0.1), window=EnergyWindow(0.0, 50.0, -5.0, 5.0))
    assert rep.diagnostics["sigma_star"] == pytest.approx(-9.880453922598624, abs=1e-6)


def test_complex_spectrum_rejects_asymmetric_window():
    with pytest.raises(WindowError):
        complex_spectrum(ModelParams(Z=1.0, omega=0.1), window=EnergyWindow(0.0, 100.0, -5.0, 6.0))


def test_energy_window_validation():
    with pytest.raises(WindowError):
        EnergyWindow(10.0, 0.0, -5.0, 5.0)
    with pytest.raises(WindowError):
        EnergyWindow(0.0, 10.0, 5.0, -5.0)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((0.0, 10.0, -math.inf, math.inf), "needs finite bounds"),
        ((0.0, math.inf, -1.0, 1.0), "needs finite bounds"),
        ((-1e308, 1e308, -1.0, 1.0), "needs finite bounds"),
        ((0.0, 10.0, -1e308, 1e308), "needs finite bounds"),
        ((math.nan, 10.0, -1.0, 1.0), "degenerate window"),
    ],
)
def test_energy_window_rejects_non_finite_bounds_and_spans(bounds, message):
    with pytest.raises(WindowError, match=message):
        EnergyWindow(*bounds)


# ---------------------------------------------------------------------------
# critical couplings


def test_critical_couplings_at_zero_rotation():
    crits = critical_couplings(0.0, 2)
    assert crits == pytest.approx([4.475311279, 12.80154419], abs=5e-3)


def test_critical_couplings_shift_with_rotation():
    # frozen from this solver; the first merge moves by ~8% per 0.05 of
    # rotation and is not even in its sign
    assert critical_couplings(0.05, 1)[0] == pytest.approx(4.826568604, abs=1e-2)
    assert critical_couplings(-0.05, 1)[0] == pytest.approx(4.106964111, abs=1e-2)


def test_critical_coupling_continuity_in_small_rotation():
    z1 = critical_couplings(0.001, 1)[0]
    assert abs(z1 - 4.475311279) < 0.05


def _scripted_counts(monkeypatch, steps):
    """Replace count_real by a step function of Z: steps is a list of
    (Z from which it holds, count), in increasing Z. Returns the list of
    the Z values counted, in call order."""
    calls = []

    def count(params, e_max):
        calls.append(params.Z)
        return [n for z0, n in steps if params.Z >= z0][-1]

    monkeypatch.setattr(spectrum, "count_real", count)
    return calls


def test_critical_couplings_bisect_a_scripted_merge(monkeypatch):
    _scripted_counts(monkeypatch, [(0.0, 10), (1.3, 8)])
    (z,) = critical_couplings(0.1, 1)
    assert abs(z - 1.3) <= 0.5e-4


def test_critical_couplings_skip_a_single_level_exit(monkeypatch):
    calls = _scripted_counts(monkeypatch, [(0.0, 10), (1.1, 9), (2.2, 7)])
    (z,) = critical_couplings(0.1, 1)
    assert abs(z - 2.2) <= 0.5e-4
    assert any(1.1 <= c < 1.1 + 1e-4 for c in calls)  # the exit was bisected, not reported


def test_critical_couplings_reject_a_drop_of_three(monkeypatch):
    _scripted_counts(monkeypatch, [(0.0, 10), (1.1, 7)])
    with pytest.raises(WindowError, match=r"count drops by 3 at Z=1\.\d+; .*\(e_max=150\.0\)") as exc:
        critical_couplings(0.1, 1, tracking_e_max=150.0)
    assert abs(float(str(exc.value).split("Z=")[1].split(";")[0]) - 1.1) <= 0.5e-4


def test_critical_couplings_stop_at_the_coupling_cap(monkeypatch):
    _scripted_counts(monkeypatch, [(0.0, 10), (1.3, 8)])
    with pytest.raises(SolverError, match=r"found only 1 of 2 critical couplings below Z=60"):
        critical_couplings(0.1, 2)


def test_critical_couplings_count_each_coupling_once(monkeypatch):
    calls = _scripted_counts(monkeypatch, [(0.0, 10), (1.3, 8)])
    critical_couplings(0.1, 1)
    # Z = 0.25 to 1.5 on the 0.25 grid, then 12 halvings of (1.25, 1.5]
    # down to 1e-4, and no second count at the top of the bracket
    assert len(calls) == len(set(calls)) == 6 + 12


# ---------------------------------------------------------------------------
# structural properties


def test_no_real_roots_beyond_crossover():
    params = ModelParams(Z=1.0, omega=0.1)
    star = sigma_star(params)
    signs = set()
    min_abs = float("inf")
    sig = star
    while sig > star - 25.0:
        tau = xi_branch(sig, params)
        w = st_from_sigma_tau(RotatedPoint(sig, tau), params)
        r = residual_real(w, params)
        signs.add(r > 0)
        min_abs = min(min_abs, abs(r))
        sig -= 0.01
    assert len(signs) == 1 and min_abs > 0.0


def test_real_levels_continuous_in_small_rotation():
    base = _energies(real_spectrum_bracket(ModelParams(Z=1.0, omega=0.0)))[:3]
    tilt = _energies(real_spectrum_bracket(ModelParams(Z=1.0, omega=1e-3)))[:3]
    for a, b in zip(base, tilt):
        assert abs(a - b) < 1e-2


def test_hermitian_limit_of_small_coupling():
    got = _energies(real_spectrum_bracket(ModelParams(Z=1e-6, omega=0.0), e_max=200.0))[:8]
    want = [(n + 1) ** 2 * PI**2 / 4 for n in range(8)]
    assert got == pytest.approx(want, abs=1e-3)


def test_property_real_residuals():
    assert P.check_real_residuals() >= 30


def test_newton_2d_returns_none_when_sinh_overflows():
    # sigma = 2*(s - t*omega) is about 800 at the seed: math.sinh overflows
    assert _newton_2d(400.0, 0.001, ModelParams(1.0, 0.1)) is None


def test_newton_2d_returns_none_after_an_infinite_step():
    # sigma is about 699 at the seed: sinh stays finite, the first step
    # does not, and math.sin(inf) raised ValueError on the next iteration
    params = ModelParams(0.02870128709455032, -0.43522436028175626)
    assert _newton_2d(10.009433358572288, 780.5441446959059, params) is None


# ---------------------------------------------------------------------------
# complex windows that split through a real level at the first subdivision


def _check_window(params, window):
    rep = complex_spectrum(params, window)
    d = rep.diagnostics
    assert d["n_real"] + 2 * d["n_pairs"] == d["winding_total"]
    want = determinant_real_roots(params, e_max=window.re_max, e_min=window.re_min)
    got = _energies(rep.real_levels)
    assert len(got) == len(want)
    assert got == pytest.approx(want, rel=1e-8)
    return rep


@pytest.mark.parametrize("Z, om", [(1.0, 0.1), (0.5, 0.0), (2.0, -0.1)])
def test_complex_spectrum_default_window(Z, om):
    _check_window(ModelParams(Z=Z, omega=om), EnergyWindow(0.0, 2000.0, -200.0, 200.0))


@pytest.mark.parametrize(
    "Z, om, window",
    [
        (3.729, -0.0061, (0.0, 400.0, -40.0, 40.0)),
        (2.0, -0.2, (0.0, 500.0, -20.0, 20.0)),
        (1.1, -0.08, (2100.0, 3500.0, -200.0, 200.0)),
    ],
)
def test_complex_spectrum_acceptance_window_defects(Z, om, window):
    _check_window(ModelParams(Z=Z, omega=om), EnergyWindow(*window))


@pytest.fixture
def edge_segments(monkeypatch):
    """The (z0, z1) of every segment of every _edge_phase_sums call made
    while the test runs."""
    segments = []
    edge_phase_sums = spectrum._edge_phase_sums

    def recording(batch, params, edges):
        segments.extend(batch)
        return edge_phase_sums(batch, params, edges)

    monkeypatch.setattr(spectrum, "_edge_phase_sums", recording)
    return segments


def test_complex_spectrum_skips_the_real_axis_split(edge_segments):
    rep = _check_window(ModelParams(Z=1.0, omega=0.1), EnergyWindow(0.0, 400.0, -40.0, 40.0))
    assert rep.real_levels and edge_segments
    assert not [seg for seg in edge_segments if seg[0].imag == 0.0 and seg[1].imag == 0.0]


def test_one_split_sums_each_interior_edge_once(edge_segments):
    params = ModelParams(Z=1.0, omega=0.1)
    quarters = [
        (2100.0, 2800.0, -200.0, 0.0),
        (2800.0, 3500.0, -200.0, 0.0),
        (2100.0, 2800.0, 0.0, 200.0),
        (2800.0, 3500.0, 0.0, 200.0),
    ]
    alone = [spectrum._counted_cell(*rect, params, {}) for rect in quarters]
    edge_segments.clear()
    edges = {}
    assert [spectrum._counted_cell(*rect, params, edges) for rect in quarters] == alone
    # 16 cell edges, of which the 4 interior half-segments are shared
    assert len(edge_segments) == len(set(edge_segments)) == len(edges) == 12


def _sides(re0, re1, im0, im1):
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    return list(zip(corners, corners[1:] + corners[:1]))


def _outcome(value):
    return value if isinstance(value, float) else (type(value), str(value))


def test_batched_edge_sums_equal_one_segment_sums():
    """A segment's phase sum, or the exception stored for it, does not
    depend on the segments it is batched with; so neither do windings nor
    which cells hit a boundary zero."""
    rng = np.random.default_rng(2026)
    hits = 0
    for _ in range(200):
        params = ModelParams(Z=float(rng.uniform(0.2, 3.0)), omega=float(rng.uniform(-0.3, 0.3)))
        re0 = float(rng.uniform(-20.0, 3000.0))
        re1 = re0 + float(rng.uniform(1.0, 600.0))
        im1 = float(rng.uniform(1.0, 200.0))
        # half the rectangles stand on the real axis, where real levels hit
        im0 = 0.0 if rng.random() < 0.5 else -float(rng.uniform(0.5, 1.0)) * im1
        sides = _sides(re0, re1, im0, im1)
        batched, single = {}, {}
        # in a shuffled order neighbours in the batch need not share a corner
        spectrum._edge_phase_sums([sides[j] for j in rng.permutation(4)], params, batched)
        for side in sides:
            spectrum._edge_phase_sums([side], params, single)
        assert {k: _outcome(v) for k, v in batched.items()} == {k: _outcome(v) for k, v in single.items()}
        try:
            w = spectrum._winding_count(re0, re1, im0, im1, params, {})
        except spectrum._BoundaryHit:
            w = "hit"
        failed = [v for v in (single[side] for side in sides) if not isinstance(v, float)]
        if failed:
            assert isinstance(failed[0], spectrum._BoundaryHit) and w == "hit"
            hits += 1
        else:
            assert w == round(sum(single[side] for side in sides) / (2.0 * PI))
    assert hits > 10


def test_cell_with_a_side_on_a_real_level_pads_as_pinned():
    # the left side runs through the real level E = 22.010611646223005 at
    # (1, 0.1); the _Cell was captured with repr before the edge sums were
    # batched
    e = 22.010611646223005
    cell = spectrum._counted_cell(e, e + 60.0, -20.0, 20.0, ModelParams(Z=1.0, omega=0.1), {})
    assert cell == spectrum._Cell(
        re0=22.01060344516184, re1=82.01061984728416, im0=-20.000008201061164,
        im1=20.000008201061164, w=3, scale=82.010611646223,
    )


def test_runaway_edge_refinement_names_its_edge(monkeypatch):
    # the bottom side runs along the real axis through real levels, so its
    # first round has steps to refine, on more samples than the lowered cap
    monkeypatch.setattr(spectrum, "_EDGE_MAX_POINTS", 10)
    with pytest.raises(SolverError) as err:
        spectrum._counted_cell(0.0, 30.0, 0.0, 10.0, ModelParams(Z=1.0, omega=0.1), {})
    assert str(err.value) == (
        "edge phase refinement exploded on the edge from 0j to (30+0j); window likely touches a zero"
    )


def test_complex_spectrum_memory_stays_small():
    """Each cell's new edges are sampled in one batch, so a solve holds
    only a few cells' samples at a time."""
    tracemalloc.start()
    try:
        complex_spectrum(ModelParams(Z=1.0, omega=0.1), EnergyWindow(0.0, 2000.0, -200.0, 200.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_count_mismatch_names_the_skipped_split(monkeypatch):
    monkeypatch.setattr(spectrum, "_SPLIT_FRACS", (0.5,))
    with pytest.raises(CountMismatchError) as err:
        complex_spectrum(ModelParams(Z=1.0, omega=0.1), EnergyWindow(0.0, 400.0, -40.0, 40.0))
    assert "split fraction 0.5 skipped: Re G changes sign on its line Im E = 0" in str(err.value)


# ---------------------------------------------------------------------------
# the batched Newton over isolated cells


def _newton_complex(e0, params):
    """The per-cell Newton that _newton_batch replaced, kept as the
    reference: three points per counting_determinant call, one start at a
    time."""

    def value_and_slope(e):
        h = 1e-6 * (1.0 + abs(e))
        g = spectrum.counting_determinant(np.array([e, e + h, e - h]), params)
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
    f_final, fp = value_and_slope(e)
    if abs(f_final) > 1e-10 * max(1.0, abs(fp) * (1.0 + abs(e))):
        return None
    return e


def _piecewise_g(pts, params):
    """A stand-in for G with one kind of Newton lane per region: a cubic
    with three simple zeros (lanes converge), a constant (fp == 0), a
    quartic scaled to overflow (G and fp turn non-finite), exp(E) (no
    convergence: the 80-step cap), and a value whose Newton step is too
    large for abs() at integer Re E (the lane raises OverflowError)."""
    e = np.asarray(pts, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (e - (1 + 1j)) * (e + 2.0) * (e - (3 - 0.5j))
        out = np.where(e.real > 50.0, 1.0 + 0j, out)
        out = np.where(e.real < -50.0, 1e300 * e**4, out)
        out = np.where(e.imag > 100.0, np.exp(e - 100j), out)
        return np.where(
            e.imag < -100.0, np.where(e.real == np.round(e.real), 1.5e308 * (1 + 1j), e), out
        )


def _lane_outcome(value):
    if isinstance(value, Exception):
        return type(value), str(value)
    return None if value is None else (value.real.hex(), value.imag.hex())


@pytest.mark.parametrize("fake", [False, True])
def test_batched_newton_equals_the_per_cell_newton_lane_by_lane(monkeypatch, fake):
    rng = np.random.default_rng(20)
    if fake:
        monkeypatch.setattr(spectrum, "counting_determinant", _piecewise_g)
        params = ModelParams(Z=1.0, omega=0.1)
        starts = np.concatenate([
            rng.uniform(-8, 8, 40) + 1j * rng.uniform(-8, 8, 40),  # converge, or jump away
            rng.uniform(60, 200, 10) + 1j * rng.uniform(-50, 50, 10),  # fp == 0
            rng.uniform(-400, -60, 20) + 1j * rng.uniform(-50, 50, 20),  # overflow
            rng.uniform(-10, 10, 10) + 1j * rng.uniform(110, 200, 10),  # 80-step cap
            rng.integers(-10, 10, 10) + 1j * rng.uniform(-200, -110, 10),  # raises
        ])
    else:
        params = ModelParams(Z=float(rng.uniform(0.5, 1.5)), omega=float(rng.uniform(-0.2, 0.2)))
        starts = np.concatenate([
            rng.uniform(0, 3500, 60) + 1j * rng.uniform(-200, 200, 60),
            rng.uniform(-2e6, -1e6, 10) + 1j * rng.uniform(-40, 40, 10),  # G overflows
        ])
    starts = [complex(e) for e in rng.permutation(starts)]
    want = []
    with np.errstate(over="ignore", invalid="ignore"):
        for e in starts:
            try:
                want.append(_lane_outcome(_newton_complex(e, params)))
            except OverflowError as exc:
                want.append(_lane_outcome(exc))
        got = spectrum._newton_batch([spectrum._newton_lane(e) for e in starts], params)
    assert [_lane_outcome(v) for v in got] == want
    kinds = {type(v).__name__ for v in got}
    assert {"complex", "NoneType"} <= kinds
    if fake:
        assert "OverflowError" in kinds
        # the fp == 0 and overflow lanes
        assert got.count(None) >= 20
        # the exp(E) lanes stop at the 80-step cap, 80 steps to the left
        assert sum(isinstance(v, complex) and v.imag > 100.0 and v.real < -60.0 for v in got) == 10


def _refusing(predicate, refused):
    """A _cell_newton stand-in that finds no root in the cells predicate
    picks, and records them."""
    cell_newton = spectrum._cell_newton

    def cell_newton_unless(cell):
        if predicate(cell):
            refused.append(cell)
            return None
        return (yield from cell_newton(cell))

    return cell_newton_unless


def _same_roots(got, want):
    assert got.diagnostics == want.diagnostics
    assert _energies(got.real_levels) == pytest.approx(_energies(want.real_levels), rel=1e-12)
    assert got.complex_pairs == pytest.approx(want.complex_pairs, rel=1e-12)


def test_a_cell_no_newton_start_solves_is_split(monkeypatch):
    params, window = ModelParams(Z=1.0, omega=0.1), EnergyWindow(*_WINDOW_C5)
    want = complex_spectrum(params, window)
    refused = []
    wide = _refusing(lambda cell: cell.re1 - cell.re0 > 100.0, refused)
    monkeypatch.setattr(spectrum, "_cell_newton", wide)
    _same_roots(complex_spectrum(params, window), want)
    assert refused and all(cell.w == 1 for cell in refused)


def test_the_second_split_fraction_when_the_first_does_not_add_up(monkeypatch):
    # without the real-axis skip, the first split runs along Im E = 0
    # through the real levels, so both halves count them
    params, window = ModelParams(Z=1.0, omega=0.1), EnergyWindow(0.0, 400.0, -40.0, 40.0)
    want = complex_spectrum(params, window)
    counted = []
    counted_cell = spectrum._counted_cell

    def recording(re0, re1, im0, im1, params, edges):
        counted.append((re0, re1, im0, im1))
        return counted_cell(re0, re1, im0, im1, params, edges)

    monkeypatch.setattr(spectrum, "_real_axis_sign_change", lambda re0, re1, params: False)
    monkeypatch.setattr(spectrum, "_counted_cell", recording)
    _same_roots(complex_spectrum(params, window), want)
    # the whole window, the four children at 0.5, then the four at 0.55
    rm, im = 0.55 * 400.0, -40.0 + 0.55 * 80.0
    assert counted[1:9] == [
        (0.0, 200.0, -40.0, 0.0), (200.0, 400.0, -40.0, 0.0),
        (0.0, 200.0, 0.0, 40.0), (200.0, 400.0, 0.0, 40.0),
        (0.0, rm, -40.0, im), (rm, 400.0, -40.0, im), (0.0, rm, im, 40.0), (rm, 400.0, im, 40.0),
    ]


def _minimal_cell(monkeypatch, w):
    """A minimal cell around the lowest pair at (1, 0.1), counted as w."""
    root = 2289.984095011932 + 47.60968450917891j
    monkeypatch.setattr(spectrum, "_winding_count", lambda *args: w)
    rect = (root.real - 5e-4, root.real + 5e-4, root.imag - 5e-4, root.imag + 5e-4)
    cell = spectrum._counted_cell(*rect, ModelParams(Z=1.0, omega=0.1), {})
    assert spectrum._minimal(cell)
    return cell, root


def test_a_minimal_cell_holds_a_cluster_of_its_winding(monkeypatch):
    cell, root = _minimal_cell(monkeypatch, 2)
    roots = spectrum._find_zeros(cell, ModelParams(Z=1.0, omega=0.1))
    assert roots == [roots[0]] * 2
    assert roots[0] == pytest.approx(root, rel=1e-12)


def test_a_minimal_cell_no_start_solves_raises(monkeypatch):
    cell, _ = _minimal_cell(monkeypatch, 1)
    monkeypatch.setattr(spectrum, "_cell_newton", _refusing(lambda c: True, []))
    with pytest.raises(SolverError, match=r"Newton failed in the minimal cell .* with winding 1"):
        spectrum._find_zeros(cell, ModelParams(Z=1.0, omega=0.1))


def test_cells_isolated_before_a_counting_error_are_solved_first(monkeypatch):
    """The error is the one the first failing cell in depth-first order
    raises, as when each cell was solved in its turn."""
    params, window = ModelParams(Z=1.0, omega=0.1), EnergyWindow(*_WINDOW_C5)
    counted_cell = spectrum._counted_cell

    def failing_right(re0, re1, im0, im1, params, edges):
        # the grandchildren of the bottom-right quarter, counted after the
        # bottom-left quarter's cells are isolated
        if re0 >= 2800.0 and re1 - re0 < 500.0:
            raise WindowError("counting failed")
        return counted_cell(re0, re1, im0, im1, params, edges)

    monkeypatch.setattr(spectrum, "_counted_cell", failing_right)
    with pytest.raises(WindowError, match="counting failed"):
        complex_spectrum(params, window)
    # an earlier minimal cell that no start solves raises first
    monkeypatch.setattr(spectrum, "_minimal", lambda cell: cell.w == 1)
    monkeypatch.setattr(spectrum, "_cell_newton", _refusing(lambda c: True, []))
    with pytest.raises(SolverError, match=r"Newton failed in the minimal cell \[2100\.0"):
        complex_spectrum(params, window)


@pytest.mark.parametrize(
    "vals, change",
    [
        ([1.0, -2.0], True),
        ([1.0, 1e-200, -1e-200], True),  # the product underflows to -0.0
        ([1.0, math.inf, -1.0], False),  # a cell with an infinite end
        ([1.0, -math.inf], False),
        ([1.0, math.nan, -1.0], False),
        ([1.0, 0.0, -1.0], False),
        ([1.0, 2.0, 3.0], False),
    ],
)
def test_real_axis_sign_change_takes_finite_neighbours(monkeypatch, vals, change):
    """Re G sampled along the real axis counts a sign change only between
    finite neighbours of opposite sign, whatever their product."""

    def fake_g(pts, params):
        return np.array(vals + [vals[-1]] * (len(pts) - len(vals)), dtype=complex)

    monkeypatch.setattr(spectrum, "counting_determinant", fake_g)
    assert spectrum._real_axis_sign_change(0.0, 10.0, ModelParams(Z=1.0, omega=0.1)) is change


def test_complex_spectrum_overflow_is_a_window_error():
    # cosh overflows at E = -1e6, where |kappa*(1+|omega|)| is about 1100;
    # the error names the first side of the window, in order, that overflows
    with pytest.raises(WindowError) as err:
        complex_spectrum(ModelParams(Z=1.0, omega=0.1), EnergyWindow(-1e6, 0.0, -40.0, 40.0))
    assert str(err.value) == (
        "the counting determinant overflows on the edge from (-1000000-40j) to -40j: "
        "windows must keep |kappa*(1+|omega|)| below ~700"
    )


def test_complex_spectrum_leaves_out_sigma_star_without_crossover():
    params = ModelParams(Z=5.0, omega=0.5)
    with pytest.raises(SolverError):
        sigma_star(params)
    rep = _check_window(params, EnergyWindow(0.0, 100.0, -10.0, 10.0))
    assert "sigma_star" not in rep.diagnostics
    assert rep.real_levels


# ---------------------------------------------------------------------------
# exact pins: values captured with repr before the winding pre-check and the
# vectorized edge refinement and crossover scan, which must not move a bit


@pytest.mark.parametrize(
    "Z, om, want",
    [
        (1.0, 0.1, -9.880453922598624),
        (0.5, -0.2, 9.001088733957149),
        (3.0, 0.05, -10.240029866459782),
        (6.0, 0.02, -11.63421790801548),
        (0.1, 0.5, -8.71211193675082),
        (0.05, 0.6, -9.135148521802387),
    ],
)
def test_sigma_star_pinned(Z, om, want):
    assert sigma_star(ModelParams(Z=Z, omega=om)) == want


def test_sigma_star_no_crossover_pinned():
    with pytest.raises(SolverError) as err:
        sigma_star(ModelParams(Z=5.0, omega=0.5))
    assert str(err.value) == "no envelope/hyperbola crossover in [-50, -2] for Z=5.0, omega=0.5"


_WINDOW_C4 = (0.0, 400.0, -40.0, 40.0)
_WINDOW_C5 = (2100.0, 3500.0, -200.0, 200.0)


@pytest.mark.parametrize(
    "Z, om, window, levels, residual",
    [
        (1.5, 0.0, _WINDOW_C4, [
            2.701843952471896, 9.691627296438192, 22.232708947160095, 39.43536432247137,
            61.694253364909386, 88.80738515568098, 120.90733476202571, 157.90296670301387,
            199.86231404740073, 246.7332637666133, 298.5574219034839, 355.30100561637084,
        ], 9.531351402580768e-14),
        (1.5, 0.0, _WINDOW_C5, [
            2220.6602302504716, 2371.1726946610997, 2526.6180587239883, 2687.000007596251,
            2852.3150802383134, 3022.5665339798943, 3197.751298197128, 3377.872272834739,
        ], 4.4870232746366256e-13),
        (0.5, -0.2, _WINDOW_C4, [
            2.707557489656322, 9.808937286513578, 22.494632191368037, 39.312924319456855,
            62.17834961021605, 88.32291198459038, 121.98279999048114, 156.45721058943622,
            202.6688760762911, 242.56190948774127, 307.04165775413185, 342.97369921176454,
        ], 7.172040739078511e-14),
        (0.5, -0.2, _WINDOW_C5, [], 0.0),
    ],
)
def test_complex_spectrum_real_levels_pinned(Z, om, window, levels, residual):
    rep = complex_spectrum(ModelParams(Z=Z, omega=om), EnergyWindow(*window))
    assert _energies(rep.real_levels) == levels
    assert rep.complex_pairs == []
    assert rep.diagnostics["max_real_residual"] == residual


def test_complex_spectrum_pairs_pinned():
    rep = complex_spectrum(ModelParams(Z=1.0, omega=0.1), EnergyWindow(*_WINDOW_C5))
    assert rep.complex_pairs == [
        2289.984095011932 + 47.60968450917891j,
        2598.4036813864036 + 80.56104156098117j,
        2925.9889404015885 + 114.32959153166328j,
        3272.7555739763793 + 150.78121333665445j,
    ]
    assert rep.diagnostics == {
        "method": "argument-principle",
        "winding_total": 8,
        "n_real": 0,
        "n_pairs": 4,
        "max_real_residual": 0.0,
        "sigma_star": -9.880453922598624,
    }


# ---------------------------------------------------------------------------
# one root kernel: the end cells of a sweep grid, and exact pins captured
# with repr before the sign-change scans and bisections moved into
# ptwell.roots, which must not move a bit


def test_count_real_at_a_tiny_coupling():
    # s(e_max)^2 is about 1e-304 here, still above the underflow to 0
    assert count_real(ModelParams(1e-150, 0.1), 2000.0) == 28


def test_vanishing_coupling_is_a_window_error():
    with pytest.raises(WindowError, match=r"Z=1e-300 is too small for e_max=2000.0"):
        real_spectrum_bracket(ModelParams(1e-300, 0.1), e_max=2000.0)


def test_count_real_finds_a_merged_pair_in_the_first_grid_cell():
    # the pair sits in the bracket grid's first cell, which starts at
    # s(e_max) and holds no sign change
    params = ModelParams(Z=0.9544154493901749, omega=0.0075937939022338585)
    assert count_real(params, 1e6) == len(determinant_real_roots(params, 1e6)) == 637


def _est(states):
    return [(st.energy, st.wave.s, st.wave.t) for st in states]


@pytest.mark.parametrize(
    "Z, om, want",
    [
        (1.0, 0.1, [
            (2.3703998733595264, 0.31804254630784623, 1.5721167051531209),
            (9.79394071920508, 0.15956128198321817, 3.133592271166306),
            (22.010611646223012, 0.10654718515213284, 4.692756540551284),
            (39.47805042143333, 0.07957146090939608, 6.283659923867983),
            (61.45365436786949, 0.06377959752039344, 7.839497573501082),
            (88.87631131935835, 0.053035921761299495, 9.427572546968568),
            (120.61626890581852, 0.04552640189548059, 10.982638187570783),
        ]),
        (1.3, -0.07, [
            (2.8370004177314647, 0.3766085497465436, 1.7259300152305306),
            (9.716940946935255, 0.20805749049209354, 3.1241364993042673),
            (22.42651732957496, 0.13719878151336515, 4.73765140499211),
            (39.42280396229751, 0.10350959127386515, 6.279611309450863),
            (61.90397491977876, 0.08260953000187436, 7.868341582203069),
            (88.77261022053631, 0.06898619962450107, 9.422174341216307),
            (121.13957675749447, 0.05905600696483039, 11.006501004835874),
            (157.83943199624434, 0.05173708067276201, 12.563522942302486),
        ]),
    ],
)
def test_lattice_levels_pinned(Z, om, want):
    assert _est(real_spectrum_lattice(ModelParams(Z=Z, omega=om), k_max=3)) == want


def test_bracket_and_determinant_scan_pinned():
    params = ModelParams(Z=1.0, omega=0.1)
    assert _est(real_spectrum_bracket(params, e_max=400.0)) == [
        (2.3703998733595317, 0.31804254630784584, 1.5721167051531226),
        (9.793940719205128, 0.15956128198321778, 3.1335922711663136),
        (22.010611646222817, 0.1065471851521333, 4.6927565405512635),
        (39.47805042143315, 0.07957146090939626, 6.283659923867969),
        (61.45365436786911, 0.06377959752039364, 7.839497573501058),
        (88.87631131935915, 0.05303592176129926, 9.42757254696861),
        (120.61626890581925, 0.04552640189548045, 10.982638187570817),
        (158.0372912180552, 0.039772971791331435, 12.571351284064109),
        (199.4811840779178, 0.03540117454880125, 14.123825166047519),
        (246.98429193915896, 0.03181518462306128, 15.715766101120606),
        (298.0232453666275, 0.02896305195145204, 17.263374068385527),
        (355.75120825492337, 0.026509185460423083, 18.86138677276507),
    ]
    assert determinant_real_roots(params, 400.0) == [
        2.370399873359526, 9.79394071920508, 22.010611646223005, 39.47805042143335,
        61.453654367869476, 88.87631131935835, 120.61626890581859, 158.03729121805355,
        199.48118407791975, 246.98429193916172, 298.02324536663036, 355.7512082549299,
    ]


# ---------------------------------------------------------------------------
# batched Theta lines


def _random_lines(seed: int, n: int):
    rng = np.random.default_rng(seed)
    taus, Oms = [], []
    for _ in range(n):
        k, p, q = int(rng.integers(0, 17)), int(rng.choice([1, -1])), int(rng.choice([1, -1]))
        xi = float(rng.choice([rng.uniform(0.0, 1.0), 1.0 - 10.0 ** rng.uniform(-12, -1), 0.0]))
        taus.append(lattice_compose(LatticeIndex(k, p, q, xi)))
        Oms.append(omega_factor(p, xi))
    return taus, Oms


def _one_line_reference(tau_line, Om, om, sig_cap):
    """The per-line scan the batch replaced: split at the pole, 240 even
    samples plus the cluster offsets, each segment swept on its own."""
    pts, clusters = [-sig_cap, sig_cap], spectrum._cluster_offsets()
    if om != 0.0:
        pole = math.asinh(1.0 / (Om * om))
        if -sig_cap < pole < sig_cap:
            pts, clusters = [-sig_cap, pole, sig_cap], np.concatenate([clusters, pole + clusters])

    def f(x):
        return _theta_of_sinh(x, np.sinh(x), Om, om) - tau_line

    roots = []
    for a, b in zip(pts[:-1], pts[1:]):
        eps = 1e-12 * max(1.0, abs(a), abs(b))
        lo, hi = a + eps, b - eps
        if hi > lo:
            inside = clusters[(clusters > lo) & (clusters < hi)]
            roots += _sweep_roots(f, np.unique(np.concatenate([np.linspace(lo, hi, 240), inside])), dips=False)
    return sorted(roots)


@pytest.mark.parametrize("om", [0.0, 0.1, -0.23])
@pytest.mark.parametrize("sig_cap", [3.0, 25.0, 800.0])
def test_theta_lines_batch_equals_one_line_calls(om, sig_cap):
    """N lines at once give, bit for bit, the roots of N one-line calls and
    of the per-line scan, so chunk boundaries cannot matter."""
    n = 3 * spectrum._LINE_CHUNK + 5
    taus, Oms = _random_lines(int(1000 * (om + 1.0) + sig_cap), n)
    roots, line = spectrum._solve_theta_lines(taus, Oms, om, sig_cap)
    together = np.split(roots, np.cumsum(np.bincount(line, minlength=n))[:-1])
    assert len(together) == n and sum(len(r) for r in together) > 20
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            got = [x.hex() for x in together[j].tolist()]
            alone = spectrum._solve_theta_lines([taus[j]], [Oms[j]], om, sig_cap)[0]
            assert got == [x.hex() for x in alone.tolist()]
            assert got == [x.hex() for x in _one_line_reference(taus[j], Oms[j], om, sig_cap)]


def test_locus_points_one_array_per_xi():
    families = [(2, -1, 1), (0, 1, -1)]
    loci = spectrum._locus_points(families, ModelParams(Z=1.0, omega=0.1), 25.0)
    assert len(loci) == len(families)
    for locus in loci:
        assert 0.0 in locus and 1.0 - 1e-12 in locus
        for arr in locus.values():
            assert arr.shape[1] == 4 and list(arr[:, 0]) == sorted(arr[:, 0])


def test_lattice_tracer_memory_stays_bounded():
    """The Theta-line scan runs in chunks: all lines of a k_max = 16 solve
    at once held about 240 MB."""
    tracemalloc.start()
    try:
        real_spectrum_lattice(ModelParams(Z=4.0, omega=-0.2), k_max=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
