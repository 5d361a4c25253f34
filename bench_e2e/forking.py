"""Run one job in a forked child under an optional CPU-second budget.

The child inherits the parent's imports (and, in traced runs, the
benchmark's layer wrappers), runs the job, and sends its JSON result back
over a pipe.  The parent reads the child's exact CPU time from
``os.wait4``, so every timing here is CPU of a reaped child.

A job that exceeds its budget receives ``SIGXCPU`` (``RLIMIT_CPU``),
which the child turns into :class:`BudgetExceeded` so the job can still
report what it has; the hard limit a few seconds later kills a child
stuck inside one native call.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

__all__ = ["BudgetExceeded", "ForkResult", "ForkedJob", "run_forked"]

#: Seconds between the soft limit (SIGXCPU) and the hard kill.
HARD_LIMIT_GRACE = 5


class BudgetExceeded(Exception):
    """Raised inside a forked job when its CPU budget runs out."""


@dataclass(frozen=True)
class ForkResult:
    payload: "dict | None"  # None when the child was killed before replying
    cpu_s: float


def _on_xcpu(signum, frame):
    raise BudgetExceeded()


class ForkedJob:
    """One started child; :meth:`result` reads its reply and reaps it."""

    def __init__(
        self, job: Callable[..., dict], args: tuple, cpu_budget: "int | None"
    ):
        self.name = job.__name__
        self.cpu_budget = cpu_budget
        read_fd, write_fd = os.pipe()
        # Unflushed parent output would otherwise be written twice.
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:  # child
            code = 0
            try:
                os.close(read_fd)
                if cpu_budget is not None:
                    resource.setrlimit(
                        resource.RLIMIT_CPU,
                        (cpu_budget, cpu_budget + HARD_LIMIT_GRACE),
                    )
                    signal.signal(signal.SIGXCPU, _on_xcpu)
                payload = job(*args)
                # Past the job, a late SIGXCPU must not lose the reply.
                signal.signal(signal.SIGXCPU, signal.SIG_IGN)
                with os.fdopen(write_fd, "wb") as out:
                    out.write(json.dumps(payload).encode("utf-8"))
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        os.close(write_fd)
        self._read_fd = read_fd

    def result(self) -> ForkResult:
        """Wait for the child.  A child that failed makes this raise."""
        with os.fdopen(self._read_fd, "rb") as inp:
            data = inp.read()
        _, status, usage = os.wait4(self.pid, 0)
        cpu_s = usage.ru_utime + usage.ru_stime
        killed_by = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
        over_budget = self.cpu_budget is not None and (
            cpu_s >= self.cpu_budget
            or killed_by in (signal.SIGXCPU, signal.SIGKILL)
        )
        if killed_by is None and os.WEXITSTATUS(status) != 0:
            raise RuntimeError(f"forked job {self.name} failed (see stderr)")
        if killed_by is not None and not over_budget:
            raise RuntimeError(
                f"forked job {self.name} died by signal {killed_by}"
            )
        payload = json.loads(data) if data else None
        return ForkResult(payload=payload, cpu_s=cpu_s)


def run_forked(
    job: Callable[..., dict], *args, cpu_budget: "int | None" = None
) -> ForkResult:
    """Run ``job(*args)`` in a forked child; return its payload and CPU.

    ``job`` must return a JSON-serialisable dict.
    """
    return ForkedJob(job, args, cpu_budget).result()
