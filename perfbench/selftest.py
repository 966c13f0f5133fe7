"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each
run passes its correctness checks and prints, as its last line, a result
with exactly the keys a result must have and every metric of
BENCHMARK.json with its unit. It also checks that a directory holding
only the benchmark (no package sources) makes the run fail without a
result, and that a saved run replays its inputs. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def check_result(proc, workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    got = {k: m.get("unit") for k, m in result.get("metrics", {}).items()}
    if got != expected:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))} "
                      f"or units {[(k, got[k], expected[k]) for k in got if k in expected and got[k] != expected[k]]}")
    for k, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {k} value {m.get('value')!r}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, w["name"], trace)
            errors += check_result(proc, w["name"], trace, expected[trace])
            print(f"{w['name']} --trace {trace}: exit {proc.returncode}", flush=True)

    # a saved run replays the same inputs
    saved = ROOT / ".perfbench_out" / "complex_windows-seed1-trace0.json"
    want = [r["op"] for r in json.loads(saved.read_text())["records"]]
    proc = run(ROOT, "complex_windows", 0, "--replay", str(saved))
    errors += check_result(proc, "complex_windows --replay", 0, expected[0])
    got = [r["op"] for r in json.loads(saved.read_text())["records"]]
    if got != want:
        errors.append("complex_windows --replay: ran other inputs than the saved run")

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for e in errors:
        print(f"FAIL {e}")
    print("selftest ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
