"""The bracketed-root kernel: batched bisection against the scalar one."""

import numpy as np
import pytest

from ptwell.matching import _theta_of_sinh
from ptwell.roots import _bisect_batch, _bisect_scalar


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
