"""Making sure no process a run starts outlives it.

A run starts more processes than it creates directly: the
multiprocessing resource tracker (a helper started the first time a
shared-memory block is made, and left running by the interpreter at
exit), a tracker per pool worker that attaches a block before the
parent's tracker existed, and the ``repro serve`` daemon's own workers
and tracker.  Grandchildren are orphaned when their parent exits.

:func:`adopt_orphans` makes this process a child subreaper (Linux), so
orphaned descendants become its children instead of init's, and
:func:`stop_all` then stops the tracker and waits for every child,
killing any that has not ended by the deadline.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from multiprocessing import resource_tracker
from typing import List, NamedTuple

PR_SET_CHILD_SUBREAPER = 36


class Proc(NamedTuple):
    pid: int
    ppid: int
    pgid: int
    state: str


def adopt_orphans() -> bool:
    """Become the reaper of orphaned descendants; False where the
    platform has no such thing."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def processes() -> List[Proc]:
    """Every process ``/proc`` lists (empty without ``/proc``)."""
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended while listing
        # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
        fields = stat[stat.rindex(")") + 2:].split()
        found.append(Proc(int(entry), int(fields[1]), int(fields[2]),
                          fields[0]))
    return found


def reap(pids) -> None:
    """Collect the exit status of any of ``pids`` that has ended."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def reap_group(pgid: int) -> None:
    """Reap this process's ended children in process group ``pgid``
    (orphans adopted from a stopped daemon)."""
    me = os.getpid()
    reap(p.pid for p in processes()
         if p.ppid == me and p.pgid == pgid and p.state == "Z")


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it
    started one, and wait for it to end."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def stop_all(timeout: float = 20.0) -> None:
    """Stop the resource tracker, then wait for every child to end,
    killing those still running after ``timeout`` seconds.

    Call only once every pool and daemon is closed: ended children are
    reaped here, whoever started them.
    """
    stop_resource_tracker()
    me = os.getpid()
    deadline = time.monotonic() + timeout
    while True:
        children = [p for p in processes() if p.ppid == me]
        if not children:
            return
        reap(p.pid for p in children if p.state == "Z")
        if time.monotonic() > deadline:
            for child in children:
                try:
                    os.kill(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
