"""Child processes that never outlive the benchmark."""

from __future__ import annotations

import os
import signal
import subprocess


def run_child(cmd: list[str], cwd, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run `cmd` in its own process group and wait for it. On timeout the
    whole group (a CLI sweep's pool workers too) is killed and reaped."""
    with subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)
