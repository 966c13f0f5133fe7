"""The lazy package namespace and the CLI entry point, each in a fresh
interpreter: numpy stays unloaded until a public name is read, and the
CLI keeps OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is set."""

import os
import subprocess
import sys

import pytest

# imports the package in a fresh interpreter and checks its namespace
_LAZY_PROBE = """
import sys
import ptwell
import ptwell.errors
assert "numpy" not in sys.modules, "import ptwell loaded numpy"
assert set(ptwell.__all__) <= set(dir(ptwell)), "dir(ptwell) misses a public name"
for name in ptwell.__all__:
    value = getattr(ptwell, name)
    if name != "__version__":
        assert value is getattr(sys.modules[value.__module__], name), name
        assert vars(ptwell)[name] is value, name + " was not cached"
try:
    ptwell.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
star = {}
exec("from ptwell import *", star)
assert set(ptwell.__all__) <= set(star), "from ptwell import * missed a name"
print("ok")
"""

# runs `python -m ptwell ARGS` through runpy; each pool worker reports its
# OPENBLAS_NUM_THREADS on stderr, and the last stderr line gives the exit
# code, the thread count at exit (-1 without /proc) and the variable
_ENTRY_PROBE = """
import concurrent.futures, os, runpy, sys


def _report():
    # one write, so that the lines of two workers do not interleave
    os.write(2, f"worker {os.environ.get('OPENBLAS_NUM_THREADS')}\\n".encode())


class _Pool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers, initializer=_report)


if __name__ == "__main__":
    concurrent.futures.ProcessPoolExecutor = _Pool
    sys.argv = ["ptwell", *sys.argv[1:]]
    try:
        runpy.run_module("ptwell", run_name="__main__")
    except SystemExit as exc:
        rc = exc.code
    sys.stdout.flush()
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1
    print(rc, tasks, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


def _run_entry(tmp_path, *argv, blas=None):
    probe = tmp_path / "entry_probe.py"
    probe.write_text(_ENTRY_PROBE)
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    proc = subprocess.run(
        [sys.executable, str(probe), *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *workers, last = proc.stderr.splitlines()
    rc, tasks, value = last.split()
    return int(rc), int(tasks), value, workers, proc.stdout


def test_import_ptwell_is_lazy():
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_lazy_map_holds_every_public_name():
    """ptwell._SUBMODULE maps exactly the public names of the library
    modules to the module that defines them; errors has no __all__, so
    its public names are its exception classes."""
    import ptwell
    from ptwell import constraint, errors, matching, model, spectrum

    want = {name: mod.__name__.rsplit(".", 1)[1]
            for mod in (constraint, matching, model, spectrum) for name in mod.__all__}
    want.update(
        (name, "errors") for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
        and value.__module__ == errors.__name__
    )
    assert ptwell._SUBMODULE == want
    assert ptwell.state_kappas is matching.state_kappas


def test_cli_entry_runs_one_blas_thread(tmp_path):
    rc, tasks, value, _, out = _run_entry(tmp_path, "count", "--Z=0", "--omega=0", "--emax=10")
    assert (rc, value) == (0, "1")
    assert '"count":' in out
    if tasks == -1:
        pytest.skip("no /proc/self/task to count threads")
    assert tasks == 1


def test_cli_entry_keeps_a_preset_thread_count(tmp_path):
    rc, _, value, _, _ = _run_entry(tmp_path, "count", "--Z=0", "--omega=0", "--emax=10", blas="2")
    assert (rc, value) == (0, "2")


def test_sweep_workers_start_after_the_entry(tmp_path):
    base = ["sweep", "--Z", "0.5,1", "--omega", "0.1", "--emax", "100"]
    rc, _, value, workers, serial = _run_entry(tmp_path, *base, "--jobs", "1")
    assert (rc, value, workers) == (0, "1", [])
    rc, _, value, workers, pooled = _run_entry(tmp_path, *base, "--jobs", "2")
    assert (rc, value, workers) == (0, "1", ["worker 1", "worker 1"])
    assert pooled == serial
