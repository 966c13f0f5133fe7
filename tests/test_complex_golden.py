"""Golden output hashes of the argument-principle solver.

tests/golden/complex_sha256.json holds, for each solve in GOLDEN_SOLVES,
the SHA-256 of repr((real_levels, complex_pairs, diagnostics)) of its
complex_spectrum report: every bit of every root and diagnostic. The
solves are the 11 diagonal grid points (Z_GRID[i], OMEGA_GRID[i]) of each
of the three timed benchmark windows, plus four windows that once failed.

A change that alters solver output on purpose regenerates the file with
`PYTHONPATH=src python3 tests/test_complex_golden.py` and says so in
CHANGES.md. Any other change must leave every hash as it is.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

from ptwell import EnergyWindow, ModelParams, complex_spectrum

GOLDEN = pathlib.Path(__file__).with_name("golden") / "complex_sha256.json"

WINDOWS = {
    "criterion4": (0.0, 400.0, -40.0, 40.0),
    "criterion2": (0.0, 500.0, -20.0, 20.0),
    "criterion5": (2100.0, 3500.0, -200.0, 200.0),
}
Z_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)
OMEGA_GRID = (-0.2, -0.16, -0.12, -0.08, -0.04, 0.0, 0.04, 0.08, 0.12, 0.16, 0.2)

GOLDEN_SOLVES = [
    (rect, z, om) for rect in WINDOWS.values() for z, om in zip(Z_GRID, OMEGA_GRID)
] + [
    ((0.0, 2000.0, -200.0, 200.0), 1.0, 0.1),
    ((0.0, 400.0, -40.0, 40.0), 3.729, -0.0061),
    ((0.0, 500.0, -20.0, 20.0), 2.0, -0.2),
    ((2100.0, 3500.0, -200.0, 200.0), 1.1, -0.08),
]


def _key(rect, z: float, om: float) -> str:
    return f"Z={z} omega={om} window={','.join(f'{x:g}' for x in rect)}"


def _digests() -> dict[str, str]:
    out = {}
    for rect, z, om in GOLDEN_SOLVES:
        rep = complex_spectrum(ModelParams(Z=z, omega=om), EnergyWindow(*rect))
        text = repr((rep.real_levels, rep.complex_pairs, rep.diagnostics))
        out[_key(rect, z, om)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def test_complex_output_matches_golden_hashes():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _digests()
    assert list(got) == list(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"solver output changed for: {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
