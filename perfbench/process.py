"""Run one child process to completion and collect its resource usage.

The child is reaped with ``os.wait4``, whose rusage covers the child and
every descendant it waited for, so ``ru_maxrss`` is the peak resident set
of the processes that did the work. Waiting blocks on a pidfd, so the
parent neither polls nor starts a thread. Linux only.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Finished:
    code: int
    wall: float
    peak_rss_mb: float
    stderr: str


def run(argv: list[str], env: dict, timeout: float, stderr_path: Path,
        own_group: bool = False) -> Finished:
    """Run ``argv`` with stdout discarded; kill it if ``timeout`` seconds pass.

    With ``own_group`` the child leads a new process group, and a timeout or
    an interrupt of the caller kills the whole group, so no grandchild
    outlives the run.
    """
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=own_group)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            if own_group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()

    pidfd = os.pidfd_open(proc.pid)
    status = None
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        if not ready:
            kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if status is None:  # interrupted while waiting
            kill()
            os.wait4(proc.pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(stderr_path).read_text(encoding="utf-8", errors="replace")
    if not ready:
        stderr += f"\nkilled after {timeout:g} s"
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)
