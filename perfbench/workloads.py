"""The two workloads: seeded input blocks, the operation each input
drives, and the check each output must pass.

Inputs come in blocks whose mix is fixed (the windows of a block, one of
each CLI command) while the values inside a block are drawn from the
seed. A run measures whole blocks, so two seeds differ in their values
but never in their mix.

Solve times depend strongly on (Z, omega): a window above the last real
level costs 0.006 s or 0.2 s depending on |omega|. Plain random draws
would make a run's mean depend on its luck, so each value comes from a
Kronecker sequence, frac(start + b*alpha) in block b, whose start is drawn
from the seed: every run covers the input range evenly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from pathlib import Path

from ptwell import EnergyWindow, ModelParams
from ptwell import spectrum as S

import checks as C
from children import run_child

E_MAX = 2000.0  # criterion 6's energy cap, the CLI's default e_max
# stripe cap of the CLI's lattice command: its levels reach E of about 500,
# and the command takes about 1.1 s, as long as the curve intersection
LATTICE_K_MAX = 3
COUNT_E_MAX = 1e6  # criterion 5's saturation cap
CRITICAL_OMEGAS = (0.0, 0.05, -0.05, 0.1, -0.1)
# `count --emax 1e6` runs at points of this menu, not at drawn ones: at
# rare drawn points it gives a wrong answer (COUNT_DEFECT below), which
# would end a run. Every count is still checked in the run.
COUNT_POINTS = tuple((z, om) for z in (0.75, 1.5, 2.5, 3.5) for om in (-0.16, -0.04, 0.0, 0.1))


# fractional parts of sqrt(p) for the first primes: one per input slot
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
ALPHAS = [math.sqrt(p) % 1.0 for p in PRIMES]


def blocks(workload: "Workload", seed: int):
    """The workload's input blocks for a seed, without end."""
    assert workload.slots <= len(ALPHAS)
    rng = random.Random(seed)
    starts = [rng.random() for _ in range(workload.slots)]
    b = 0
    while True:
        block = workload.block(iter([(s + b * a) % 1.0 for s, a in zip(starts, ALPHAS)]), rng)
        yield block
        if workload.repeat_blocks:
            again = [dict(op, repeat=1) for op in block]
            rng.shuffle(again)
            yield again
        b += 1


def _z(u) -> float:
    return 0.5 + 3.5 * next(u)


def _omega(u) -> float:
    return -0.2 + 0.4 * next(u)


def _pick(u, choices):
    return choices[int(next(u) * len(choices))]


class Workload:
    name = ""
    slots = 0  # uniform draws one block consumes
    repeat_blocks = False  # each block is followed by the same inputs, reshuffled
    tracer = None  # in traced mode, where spans from child processes are merged

    def block(self, u, rng) -> list[dict]:
        """One block of inputs from the slot values `u`; `rng` shuffles it."""
        raise NotImplementedError

    def run(self, op: dict):
        """Execute one operation; a typed PTWellError propagates."""
        raise NotImplementedError

    def check(self, op: dict, out) -> None:
        raise NotImplementedError

    def fingerprint(self, out):
        """What two runs of one input must both return."""
        return out

    def check_records(self, records: list[dict]) -> None:
        for r in records:
            if r["status"] == "ok":
                self.check(r["op"], r["out"])


WINDOWS = {
    "cli_default": (0.0, 2000.0, -200.0, 200.0),
    "criterion4": (0.0, 400.0, -40.0, 40.0),
    "criterion2": (0.0, 500.0, -20.0, 20.0),
    "criterion5": (2100.0, 3500.0, -200.0, 200.0),
}
# A timed operation must not fail: the run's failure count would then
# depend on how many operations fit in its time. So the timed windows
# leave out the CLI default, which fails at every point tried, and take
# (Z, omega) from a grid on which the seed commit succeeds everywhere but
# at the points listed in DEFECT_WINDOWS. From Z = 2 up, criteria 2 and 4
# fail at many points. The failures run untimed in every run
# (defect_probes), so a fix shows.
TIMED_WINDOWS = ("criterion4", "criterion2", "criterion5")
Z_GRID = tuple(round(0.5 + 0.1 * i, 2) for i in range(11))
OMEGA_GRID = tuple(round(-0.2 + 0.04 * i, 2) for i in range(11))
DEFECT_WINDOWS = [
    {"window": "cli_default", "Z": 1.0, "omega": 0.1},
    {"window": "criterion4", "Z": 3.729, "omega": -0.0061},
    {"window": "criterion2", "Z": 2.0, "omega": -0.2},
    {"window": "criterion5", "Z": 1.1, "omega": -0.08},
]
COMPLEX_POINTS = {
    w: [(z, om) for z in Z_GRID for om in OMEGA_GRID
        if {"window": w, "Z": z, "omega": om} not in DEFECT_WINDOWS]
    for w in TIMED_WINDOWS
}


class ComplexWindows(Workload):
    name = "complex_windows"
    slots = len(TIMED_WINDOWS)

    def block(self, u, rng):
        ops = []
        for w in TIMED_WINDOWS:
            z, om = _pick(u, COMPLEX_POINTS[w])
            ops.append({"window": w, "Z": z, "omega": om})
        rng.shuffle(ops)
        return ops

    def run(self, op):
        p = ModelParams(Z=op["Z"], omega=op["omega"])
        rep = S.complex_spectrum(p, EnergyWindow(*WINDOWS[op["window"]]))
        return {
            "real": C.energies(rep.real_levels),
            "pairs": [[e.real, e.imag] for e in rep.complex_pairs],
            "winding": rep.diagnostics["winding_total"],
        }

    def check(self, op, out):
        p = ModelParams(Z=op["Z"], omega=op["omega"])
        re0, re1, im0, im1 = WINDOWS[op["window"]]
        pairs = [complex(a, b) for a, b in out["pairs"]]
        C.require(
            len(out["real"]) + 2 * len(pairs) == out["winding"],
            f"{op}: {len(out['real'])} real + 2*{len(pairs)} pairs != winding {out['winding']}",
        )
        for e in pairs:
            C.require(re0 <= e.real <= re1 and 0.0 < e.imag <= im1, f"{op}: pair {e} outside")
        C.agree(out["real"], S.determinant_real_roots(p, e_max=re1, e_min=re0), f"window real levels at {op}")
        C.oracle(out["real"] + pairs + [e.conjugate() for e in pairs], p, f"window at {op}")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class CliSession(Workload):
    name = "cli_session"
    slots = 12
    # every command runs twice, in consecutive blocks, so each run checks repeats
    repeat_blocks = True

    def __init__(self, root: Path, env: dict, tracer_main: Path, spans_path: Path) -> None:
        self.root = root
        self.env = env
        self.tracer_main = tracer_main
        self.spans_path = spans_path

    def block(self, u, rng):
        (z, om), (z2, om2) = [(_fmt(_z(u)), _fmt(_omega(u))) for _ in range(2)]
        sweep_z = ",".join(_fmt(_z(u)) for _ in range(2))
        sweep_om = ",".join(_fmt(_omega(u)) for _ in range(2))
        (cz, com), (cz2, com2) = [_pick(u, COUNT_POINTS) for _ in range(2)]
        # --k=v, so that negative values are not read as flags. The curve
        # intersection (about 1 s, the slowest command) is 2 of the 10
        # operations: the tail percentile, about p90 for the 80-120
        # operations of a run, then falls inside its latencies rather than
        # on the edge of a command's, where it would move with the run's
        # operation count.
        cmds = [
            ["spectrum", f"--Z={z}", f"--omega={om}"],
            ["spectrum", f"--Z={z2}", f"--omega={om2}", "--method=lattice", f"--kmax={LATTICE_K_MAX}"],
            ["count", f"--Z={_fmt(cz)}", f"--omega={_fmt(com)}", "--emax=1e6"],
            ["count", f"--Z={_fmt(cz2)}", f"--omega={_fmt(com2)}", "--emax=1e6"],
            ["critical", f"--omega={_fmt(_pick(u, CRITICAL_OMEGAS))}", f"--n={_pick(u, (1, 2))}"],
            ["curves", f"--Z={z}", f"--omega={om}", "--family=theta"],
            ["curves", f"--Z={z}", f"--omega={om}", "--family=oval"],
            ["curves", f"--Z={z}", f"--omega={om}", "--family=intersection"],
            ["curves", f"--Z={z2}", f"--omega={om2}", "--family=intersection"],
            ["sweep", f"--Z={sweep_z}", f"--omega={sweep_om}", "--jobs=2"],
        ]
        rng.shuffle(cmds)
        return [{"argv": c, "repeat": 0} for c in cmds]

    def run(self, op):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "ptwell", *op["argv"]]
        else:
            cmd = [sys.executable, str(self.tracer_main), str(self.spans_path), *op["argv"]]
        proc = run_child(cmd, self.root, self.env, timeout=150)
        if self.tracer is not None and self.spans_path.exists():
            self.tracer.merge(self.spans_path)
            self.spans_path.unlink()
        if proc.returncode == 3:
            raise CliSolverError(proc.stderr.decode(errors="replace").strip())
        C.require(
            proc.returncode == 0,
            f"{op['argv']}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}",
        )
        return {"bytes": len(proc.stdout), "sha256": hashlib.sha256(proc.stdout).hexdigest(),
                "text": proc.stdout.decode()}

    def fingerprint(self, out):
        return None if out is None else out["sha256"]

    def check_records(self, records):
        super().check_records(records)
        first = {}
        for r in records:
            seen = first.setdefault(tuple(r["op"]["argv"]), r)
            C.require(
                (r["status"], self.fingerprint(r["out"])) == (seen["status"], self.fingerprint(seen["out"])),
                f"repeated command {r['op']['argv']} gave different output",
            )

    def check(self, op, out):
        argv = op["argv"]
        doc = json.loads(out["text"])
        flags = dict(a.split("=", 1) for a in argv[1:])
        command = argv[0]
        if command in ("spectrum", "count", "curves"):
            p = ModelParams(Z=float(flags["--Z"]), omega=float(flags["--omega"]))
        if command == "spectrum":
            got = [lv["E"] for lv in doc["real_levels"]]
            want = S.determinant_real_roots(p, e_max=E_MAX)
            if flags.get("--method") == "lattice":
                # the stripe cap limits the levels the tracer reaches
                C.require(len(got) >= 3, f"cli {argv}: {len(got)} levels")
                C.subset(got, want, f"cli {argv}")
            else:
                C.agree(got, want, f"cli {argv}")
            C.oracle(got, p, f"cli {argv}")
        elif command == "count":
            C.check_count(p, COUNT_E_MAX, doc["count"])
        elif command == "critical":
            om = float(flags["--omega"])
            C.require(len(doc["criticals"]) == int(flags["--n"]), f"cli {argv}: {doc}")
            C.check_criticals(om, doc["criticals"])
        elif command == "curves":
            _check_curves(doc, p, argv)
        elif command == "sweep":
            zs = [float(v) for v in flags["--Z"].split(",")]
            oms = [float(v) for v in flags["--omega"].split(",")]
            C.require(len(doc["runs"]) == len(zs) * len(oms), f"cli {argv}: {len(doc['runs'])} runs")
            for run, (z, om) in zip(doc["runs"], [(z, om) for z in zs for om in oms]):
                q = ModelParams(Z=z, omega=om)
                got = [lv["E"] for lv in run["real_levels"]]
                C.agree(got, S.determinant_real_roots(q, e_max=E_MAX), f"cli {argv} at Z={z}, omega={om}")


class CliSolverError(Exception):
    """The CLI exited with code 3, its typed solver-failure status."""


def _check_curves(doc: dict, p: ModelParams, argv) -> None:
    segs = doc["segments"]
    C.require(len(segs) > 0, f"cli {argv}: no segments")
    Z, om = p.Z, p.omega
    for seg in segs:
        pts = seg["points"]
        C.require(len(pts) >= 2, f"cli {argv}: segment {seg['name']} has {len(pts)} points")
        C.require(all(math.isfinite(x) and math.isfinite(y) for x, y in pts), f"cli {argv}: non-finite")
        if seg["name"] != "hyperbola":
            continue
        # every hyperbola sample must satisfy 2st = Z after the inverse
        # rotation; for omega < 0 the CLI draws the mirrored sheet sigma -> -sigma
        d = 2.0 * (1.0 + om * om)
        mirror = -1.0 if om < 0.0 else 1.0
        for sg, tau in pts:
            s, t = (mirror * sg + tau * om) / d, (tau - mirror * sg * om) / d
            C.require(
                abs(2.0 * s * t - Z) <= 1e-7 * max(1.0, abs(sg), abs(tau)) ** 2,
                f"cli {argv}: hyperbola point ({sg}, {tau}) off 2st = Z",
            )


def all_workloads(root: Path, env: dict, out_dir: Path) -> dict[str, Workload]:
    here = Path(__file__).resolve().parent
    cli = CliSession(root, env, here / "cli_trace.py", out_dir / f"cli-spans-{os.getpid()}.npz")
    return {w.name: w for w in (ComplexWindows(), cli)}


# count_real misses a nearly merged pair in the first cell of its bracket
# grid: it gives 635 where the determinant scan and the oracle give 637
COUNT_DEFECT = {"Z": 0.9544154493901749, "omega": 0.0075937939022338585, "e_max": COUNT_E_MAX, "levels": 637}


def defect_probes(typed_errors) -> list[str]:
    """Known defects of the seed commit, run once per run after the loop,
    untimed and not counted, and reported beside the metrics until a fix
    lands, whose answer must then pass the same checks."""
    notes = []
    windows = ComplexWindows()
    for op in DEFECT_WINDOWS:
        try:
            out = windows.run(op)
        except typed_errors as exc:
            notes.append(f"known defect: complex_spectrum at {op} still raises {type(exc).__name__}")
            continue
        windows.check(op, out)
        notes.append(f"known defect fixed: complex_spectrum at {op} passes its checks")
    d = COUNT_DEFECT
    n = S.count_real(ModelParams(Z=d["Z"], omega=d["omega"]), d["e_max"])
    state = "fixed" if n == d["levels"] else "not fixed"
    notes.append(f"known defect: count_real at Z={d['Z']}, omega={d['omega']}, e_max={d['e_max']:g} "
                 f"gives {n}, the determinant scan {d['levels']} ({state})")
    return notes
