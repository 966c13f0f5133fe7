"""Boundary tracing for the benchmark's traced mode.

Wrappers are installed from here, never from the package: each one
replaces a name that one ptwell module imported from another (or a public
solver the benchmark calls) and records a span with its name, start, end
and parent. Spans live in flat arrays in memory and are written out once,
at the end of the run. Self time is a span's duration minus the spans it
directly encloses; all calls are synchronous, so children nest inside
their parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


def _size(value) -> int:
    return 1 if isinstance(value, (int, float, complex)) else int(np.size(value))


def _points(args, kwargs):
    return _size(args[0])


def _levels(result):
    return len(result)


def _roots(report):
    return len(report.real_levels) + 2 * len(report.complex_pairs)


# (module, attribute, span name, points counted from the arguments,
#  result size counted from the return value)
BOUNDARIES = [
    # public solvers, as the benchmark and the solvers themselves call them
    ("ptwell.spectrum", "real_spectrum_lattice", "spectrum.lattice", None, _levels),
    ("ptwell.spectrum", "real_spectrum_bracket", "spectrum.bracket", None, _levels),
    ("ptwell.spectrum", "determinant_real_roots", "spectrum.detscan", None, _levels),
    ("ptwell.spectrum", "count_real", "spectrum.count", None, None),
    ("ptwell.spectrum", "critical_couplings", "spectrum.critical", None, _levels),
    ("ptwell.spectrum", "complex_spectrum", "spectrum.complex", None, _roots),
    # spectrum -> matching, spectrum -> constraint
    ("ptwell.spectrum", "_residual_real_st", "matching.residual", _points, None),
    ("ptwell.spectrum", "matching_determinant", "matching.matching_det", _points, None),
    ("ptwell.spectrum", "counting_determinant", "matching.counting_det", _points, None),
    ("ptwell.spectrum", "amplitude_A", "matching.amplitude", None, None),
    ("ptwell.spectrum", "sigma_star", "constraint.sigma_star", None, None),
    # constraint -> matching
    ("ptwell.constraint", "theta_curve", "matching.theta_curve", None, None),
    # cli -> spectrum, constraint, matching
    ("ptwell.cli", "real_spectrum_lattice", "spectrum.lattice", None, _levels),
    ("ptwell.cli", "real_spectrum_bracket", "spectrum.bracket", None, _levels),
    ("ptwell.cli", "count_real", "spectrum.count", None, None),
    ("ptwell.cli", "critical_couplings", "spectrum.critical", None, _levels),
    ("ptwell.cli", "complex_spectrum", "spectrum.complex", None, _roots),
    ("ptwell.cli", "_locus_points", "spectrum.locus", None, None),
    ("ptwell.cli", "xi_branch", "constraint.branch", None, None),
    ("ptwell.cli", "reflected_branch", "constraint.branch", None, None),
    ("ptwell.cli", "hyperbola_asymptote", "constraint.branch", None, None),
    ("ptwell.cli", "theta_curve", "matching.theta_curve", None, None),
    # the sweep's solves run in pool workers, out of this process's sight;
    # its span keeps the pool's wall time out of cli self time
    ("ptwell.cli", "_sweep_payload", "cli.sweep", None, None),
]


class Tracer:
    """Spans in parallel flat arrays; `parent` is an index or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.points = array("q")
        self.result = array("q")  # result size; -1 when the call raised
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, points: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.points.append(points)
        self.result.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, result: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.result[idx] = result
        self._stack.pop()

    def wrap(self, name: str, fn, points_of=None, result_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, points_of(args, kwargs) if points_of else 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, -1)
                raise
            self.close(idx, result_of(out) if result_of else 0)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name, points_of, result_of in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, points_of, result_of))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.asarray(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
            "result": np.frombuffer(self.result, dtype=np.int64).copy(),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def merge(self, path) -> None:
        """Append the spans another process dumped, keeping their tree."""
        with np.load(path) as data:
            offset = len(self.start)
            ids = [self._id(str(n)) for n in data["names"]]
            self.name_id.extend(int(ids[i]) for i in data["name_id"])
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(int(p) + offset if p >= 0 else -1 for p in data["parent"])
            self.points.extend(data["points"].tolist())
            self.result.extend(data["result"].tolist())


class SpanTable:
    """Read-side view of a trace: durations, self times and per-name sums."""

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        self.names = [str(n) for n in arrays["names"]]
        self.name_id = arrays["name_id"]
        self.parent = arrays["parent"]
        self.points = arrays["points"]
        self.result = arrays["result"]
        self.duration = arrays["end"] - arrays["start"]
        n = len(self.duration)
        has_parent = self.parent >= 0
        child_sum = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=n
        )
        self.self_time = self.duration - child_sum[:n]

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        return self.name_id == self.names.index(name)

    def under(self, name: str, parent_name: str) -> np.ndarray:
        """Spans called `name` whose direct parent is called `parent_name`."""
        m = self.mask(name) & (self.parent >= 0)
        out = np.zeros_like(m)
        out[m] = self.mask(parent_name)[self.parent[m]]
        return out

    def calls_under(self, name: str, parent_name: str) -> int:
        return int(self.under(name, parent_name).sum())

    def points_under(self, name: str, parent_name: str) -> int:
        return self.points_sum(self.under(name, parent_name))

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def points_sum(self, m: np.ndarray) -> int:
        return int(self.points[m].sum())

    def results_sum(self, name: str) -> int:
        r = self.result[self.mask(name)]
        return int(r[r > 0].sum())
