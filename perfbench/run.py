"""ptwell benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, and the run fails at once if that directory is missing.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass; the last line of standard output is
the JSON result, printed (with exit status 0) whenever the run got that
far, so a wrong answer shows as "correct": false rather than as a crash.
Inputs, per-operation results and spans go to
`.perfbench_out/` in the checkout. --replay FILE re-runs the inputs saved
in an earlier result file instead of drawing them from the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from children import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 4  # fresh interpreters timed before the measured loop, and again after it
SETUP_ARGV = ["count", "--Z", "0", "--omega", "0", "--emax", "10"]
SETUP_OUTPUT = b'{"params":{"Z":0,"omega":0},"e_max":10,"count":2}\n'
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it

# the workloads' reasons and the metrics' names and units are declared once, here
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(values: dict[str, float], kind: str) -> dict:
    """Attach the units BENCHMARK.json declares for the metrics of `kind`."""
    units = {m["name"]: m["unit"] for m in BENCH[kind]}
    if set(values) != set(units):
        fail(f"{kind} metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}", 1)
    return {k: {"value": values[k], "unit": unit} for k, unit in units.items()}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PTWELL_LOG", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_stamp() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


def measure_setup(env: dict, warm_up: bool) -> list[float]:
    """Wall times of fresh interpreters that import ptwell and answer one
    trivial CLI request. A warm-up run, which may compile bytecode, is not kept."""
    times = []
    for i in range(SETUP_RUNS + warm_up):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-m", "ptwell", *SETUP_ARGV], ROOT, env, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != SETUP_OUTPUT:
            fail(f"set-up request failed: exit {proc.returncode}, {proc.stdout!r} {proc.stderr[-300:]!r}", 1)
        if i or not warm_up:
            times.append(dt)
    return times


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_ops(workload, ops, typed_errors) -> list[dict]:
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, status = workload.run(op), "ok"
        except typed_errors as exc:
            out, status = None, f"fail.{type(exc).__name__}"
        records.append({"op": op, "latency_s": time.perf_counter() - t0, "status": status, "out": out})
    return records


def run_blocks(workload, blocks, seconds: float, typed_errors) -> tuple[list[dict], float, list[dict]]:
    """Closed loop of whole blocks, at least one; no block starts after
    `seconds`. Returns the records, the loop's wall time, and each
    block's operation count, passing count, wall time and CPU time."""
    records, timed = [], []
    t0 = time.perf_counter()
    while not timed or time.perf_counter() - t0 < seconds:
        cpu_b, t_b = cpu_seconds(), time.perf_counter()
        block = run_ops(workload, next(blocks), typed_errors)
        timed.append({"n": len(block), "ok": sum(r["status"] == "ok" for r in block),
                      "wall": time.perf_counter() - t_b, "cpu": cpu_seconds() - cpu_b})
        records += block
    return records, time.perf_counter() - t0, timed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile of the sorted samples
    with TAIL_BEYOND samples beyond it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(n - 1 - TAIL_BEYOND, n // 2)
    return xs[rank], 100.0 * rank / max(n - 1, 1), n


def quartile(xs: list[float], upper: bool) -> float:
    """The lower or upper quartile of `xs`, interpolated; a single value is its own."""
    return statistics.quantiles(xs, n=4, method="inclusive")[2 if upper else 0] if len(xs) > 1 else xs[0]


def end_to_end(records, wall, timed, setup_times, rss_mb) -> tuple[dict, list[str]]:
    n = len(records)
    ok = [r["latency_s"] for r in records if r["status"] == "ok"]
    tail_s, tail_q, tail_n = tail(ok) if ok else (wall, 0.0, 0)
    # The machine runs in slow phases and phases about 1.7x faster, each
    # lasting seconds to minutes, and up to a third of whole runs fall mostly in
    # a fast one. A median or mean over a run moves with the share of fast
    # time; the slow end of the run does not, as long as a quarter of it is
    # slow. So throughput and CPU cost are taken from the run's slower
    # blocks, whose mix is fixed, and latency from its tail.
    values = {
        "sustained_ops_per_s": quartile([b["ok"] / b["wall"] for b in timed], upper=False),
        "op_tail_s": tail_s,
        "cpu_s_per_op_p75": quartile([b["cpu"] / b["n"] for b in timed], upper=True),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    # a failed operation misses every latency limit: +inf in the median
    p50 = statistics.median_low(r["latency_s"] if r["status"] == "ok" else math.inf for r in records)
    notes = [
        f"op_tail_s is p{tail_q:.1f} of the {tail_n} passing operations" if ok
        else "op_tail_s is the loop's wall time: no operation passed",
        f"fail_frac = {(n - len(ok)) / n:.6g} ({n - len(ok)} of {n} attempted)",
        f"not metrics: median operation {p50:.6g} s; over the whole loop "
        f"{len(ok) / wall:.6g} passing operations/s and {sum(b['cpu'] for b in timed) / n:.6g} CPU s/op; "
        f"{len(timed)} blocks",
    ]
    return with_units(values, "end_to_end"), notes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_pass(workload, records, typed_errors, spans_path: Path) -> dict:
    """Replay the inputs with the wrappers on and return the per-layer
    metrics. The pass-to-pass difference is the tracing overhead, and the
    outputs must not change."""
    import checks
    from layers import per_layer
    from spans import SpanTable, Tracer

    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        traced = run_ops(workload, [r["op"] for r in records], typed_errors)
    finally:
        tracer.uninstall()
        workload.tracer = None
    tracer.dump(spans_path)
    for a, b in zip(records, traced):
        checks.require(
            (a["status"], workload.fingerprint(a["out"])) == (b["status"], workload.fingerprint(b["out"])),
            f"traced pass changed the result of {a['op']}",
        )
    return with_units(per_layer(SpanTable(tracer.arrays()), records, traced), "per_layer")


def summarize(workload, records) -> list[dict]:
    """Each operation's input with its latency, status and output, as saved."""
    return [
        {"op": r["op"], "latency_s": r["latency_s"], "status": r["status"],
         "output": workload.fingerprint(r["out"])}
        for r in records
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", type=Path, default=None, help="result file whose inputs to re-run")
    args = ap.parse_args()

    if not (SRC / "ptwell" / "__init__.py").is_file():
        fail(f"no ptwell sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ptwell

    if Path(ptwell.__file__).resolve().parent != (SRC / "ptwell").resolve():
        fail(f"imported ptwell from {ptwell.__file__}, not from {SRC}")
    import checks
    import workloads as W
    from ptwell.errors import PTWellError

    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    registry = W.all_workloads(ROOT, env, OUT_DIR)
    names = [w["name"] for w in BENCH["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    workload = registry[args.workload]
    why = next(w["why"] for w in BENCH["workloads"] if w["name"] == args.workload)
    typed_errors = (PTWellError, W.CliSolverError)
    stamp = machine_stamp()

    if args.replay is not None:
        blocks = iter([[r["op"] for r in json.loads(args.replay.read_text())["records"]]])
        seconds = 0.0  # exactly the saved block
    else:
        blocks = W.blocks(workload, args.seed)
        # a traced run measures a third of the time untraced, then replays it traced
        seconds = args.seconds / (3 if args.trace else 1)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records, wall, setup_times, notes, metrics = [], 0.0, [], [], {}
    try:
        setup_times = measure_setup(env, warm_up=True)
        checks.frozen_references()
        records, wall, timed = run_blocks(workload, blocks, seconds, typed_errors)
        rss = peak_rss_mb(children=isinstance(workload, W.CliSession))
        # machine speed drifts over tens of seconds: sample set-up on both sides of the loop
        setup_times += measure_setup(env, warm_up=False)
        if args.trace:
            metrics = traced_pass(workload, records, typed_errors, OUT_DIR / f"{tag}-spans.npz")
        else:
            metrics, notes = end_to_end(records, wall, timed, setup_times, rss)
        workload.check_records(records)
        notes += W.defect_probes(typed_errors)
        correct = True
    except checks.CheckFailure as exc:
        # a wrong answer ends the run: no further checks, "correct": false
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        correct = False

    failures: dict[str, int] = {}
    for r in records:
        if r["status"] != "ok":
            failures[r["status"]] = failures.get(r["status"], 0) + 1
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": stamp,
        "setup_s": setup_times, "wall_s": wall, "failures": failures, "notes": notes,
        "result": result, "records": summarize(workload, records),
    }, indent=1))

    print(f"machine {json.dumps(stamp)}")
    print(f"workload {args.workload} (seed {args.seed}): {why}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    for status, count in sorted(failures.items()):
        print(f"  {status} = {count}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
