"""Record one commit's point of the benchmark trajectory.

    python3 perfbench/record.py --commit ABC1234 [--seeds 101-110] [--sets 2]

Runs every workload of BENCHMARK.json once per seed, untraced, for
`--sets` sets in a row (all workloads of one set before the next set, so
drift of the machine between sets shows), then one traced run per
workload on the first seed. Writes `perfbench/trajectory/<commit>.json`:
for each set and workload the median, quartiles and quartile spread (as a
share of the median) of every end-to-end metric, how far each later
set's median moved from the first set's, the per-layer metrics of the
traced runs, and any run that gave a wrong answer or no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}", flush=True)
    if proc.returncode != 0 or not lines:
        return None
    saved = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": json.loads(lines[-1]), "saved": saved}


def summary(runs: list[dict]) -> dict:
    metrics = {}
    for name in runs[0]["result"]["metrics"]:
        xs = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        metrics[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    failures: dict[str, int] = {}
    for r in runs:
        for status, count in r["saved"]["failures"].items():
            failures[status] = failures.get(status, 0) + count
    return {
        "metrics": metrics,
        "attempted_per_run": [r["result"]["attempted"] for r in runs],
        "failures_total": failures,
        "tail_notes": sorted({r["saved"]["notes"][0] for r in runs}),
        "loop_wall_s_max": max(r["saved"]["wall_s"] for r in runs),
    }


def drift(first: dict, later: dict, declared: list[dict]) -> dict:
    """How far each median of `later` moved from `first`, as a share, and
    which moved the worse way by more than the metric's bound."""
    rules = {m["name"]: m for m in declared}
    change, beyond = {}, []
    for w, one in first.items():
        if not one or not later.get(w):
            continue
        change[w] = {}
        for m, v in one["metrics"].items():
            if not v["median"]:
                continue
            rel = later[w]["metrics"][m]["median"] / v["median"] - 1.0
            change[w][m] = rel
            worse = -rel if rules[m]["better"] == "higher" else rel
            if worse > rules[m]["bound"]:
                beyond.append(f"{w} {m} {rel:+.3f}")
    return {"median_change": change, "worse_beyond_bound": beyond}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True, help="the commit measured, as it names the output file")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    sets, wrong, machine = [], {}, None
    for _ in range(args.sets):
        one = {}
        for w in names:
            runs = []
            for seed in args.seeds:
                r = run(w, seed, seconds, 0)
                if r is None or not r["result"]["correct"]:
                    wrong.setdefault(w, []).append(seed)
                if r is not None and r["result"]["correct"]:
                    runs.append(r)
                    machine = r["saved"]["machine"]
            one[w] = summary(runs) if len(runs) >= 2 else {}
        sets.append(one)
    moved = [drift(sets[0], s, bench["end_to_end"]) for s in sets[1:]]
    traced = {}
    for w in names:
        r = run(w, args.seeds[0], seconds, 1)
        if r is not None:
            traced[w] = {"seed": args.seeds[0], "metrics": {k: m["value"] for k, m in r["result"]["metrics"].items()}}

    path = HERE / "trajectory" / f"{args.commit}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "commit": args.commit,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0|1",
        "seeds": args.seeds,
        "machine": machine,
        "sets": sets,
        "later_sets_against_first": moved,
        "per_layer": traced,
        "wrong_or_no_result": wrong,
    }, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
