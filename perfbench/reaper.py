"""Ending the processes a run starts.

A run starts tier hosts, which fork the tier's workers, and
``multiprocessing`` starts a resource tracker for the shared segments.
Every one of them must have ended before the run exits, on every path
out of it: a process left behind could serve the next run.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time
from multiprocessing import resource_tracker

#: ``prctl`` option that makes a process the parent of its descendants'
#: orphans (Linux).
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of any descendant whose own parent ends first,
    so a tier worker that outlives its host is still this run's to stop.
    Where the call is unavailable, orphans go to init as usual."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    """Processes whose parent is this one, ended ones included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # The fields after the command name: state, then parent pid.
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reap(pid: int, deadline: float) -> None:
    """Wait for *pid* until *deadline*, then kill it and wait again."""
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped


def end_children(grace: float = 10.0) -> None:
    """Stop every process this one started or adopted, and wait for each.

    Tier hosts are joined through ``multiprocessing``; their workers, if
    any outlived them, are killed after *grace* seconds.  The resource
    tracker that ``multiprocessing`` started for the shared segments
    ends when the last holder of its pipe closes it, which otherwise
    happens only as this process exits, so it is closed and waited for
    here last.
    """
    for proc in multiprocessing.active_children():
        proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    deadline = time.monotonic() + grace
    for pid in _children():
        if pid != tracker._pid:
            _reap(pid, deadline)
    if tracker._pid is not None:
        tracker._stop()
    for pid in _children():
        _reap(pid, time.monotonic())
