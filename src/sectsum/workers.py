"""Forked workers: the CPUs a process may use and one fork lifecycle.

`cli` spreads the documents of `label` and `summarize` over the usable
CPUs, each share in a :class:`Child`: one that dies fails the call with a
:class:`WorkerError`, and leaving the call, by return or by exception, kills
and reaps it.  `train` runs in one process, as each document's update feeds
the next.
"""

from __future__ import annotations

import os
import signal


class WorkerError(RuntimeError):
    """A worker process ended, or failed, without returning its results."""


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class Child:
    """A forked process that runs ``body(*args)``, ignoring SIGINT (the parent
    decides when it stops), and exits 0 if the body returns, 1 if it raises;
    :meth:`kill` it on the way out."""

    def __init__(self, body, *args):
        self.pid = os.fork()  # None once reaped
        if self.pid == 0:  # the child never returns from here
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                body(*args)
                code = 0
            finally:
                os._exit(code)

    def reap(self) -> None:
        """Wait for the child to end; a WorkerError unless it exited 0."""
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if status != 0:
            how = f"was killed by signal {-status}" if status < 0 else f"exited {status}"
            raise WorkerError(f"a worker process {how} before returning its documents' results")

    def kill(self) -> None:
        """Kill and reap the child, busy or not, unless it was reaped already."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
