"""Independent jobs on forked lanes, one more than the cores, with the caller
as lane 0.

:func:`run_lanes` splits a list of zero-argument callables into contiguous
chunks, one per lane. Chunk 0 runs in the calling process; each other chunk
runs in a child made with ``os.fork``, which sends its pickled results (or
its exception) back through a pipe and ends with ``os._exit``. Which lane
runs which job depends only on the job and lane counts, never on timing, so
the caller runs the same jobs on every run.

fanav runs here ``collect``'s episodes, the pipeline's training and
evaluation jobs, and ``collect_to_ratio``'s episodes in batches: that
collection stops at an episode that depends on what the earlier ones kept,
so it consumes each batch's results in job order and drops those past the
stop.

On more than one core (``taskset`` limits them) there is one lane more than
the cores the process may run on, and never more lanes than jobs. Chunks of
unequal cost would leave a core idle once its lane ends; with one runnable
lane to spare, the kernel's scheduler fills that core. Chunk sizes are
rounded up, so the caller takes the larger first chunk: four jobs on two
cores run as jobs 0 and 1 in the caller and jobs 2 and 3 in a child each.
On one core there is one lane: every job runs in the caller and nothing
forks.

No child outlives the call: the caller reaps every child before it returns
or raises, killing any that still run when it raises (an error in its own
chunk or in an earlier lane, or ``KeyboardInterrupt``), and on Linux a child
is killed when the caller dies, whatever the cause.

Fork copies the caller's memory, so jobs see every object built before the
call and need not pickle their inputs; only results travel back. A child
holds none of the caller's threads, so jobs must not need any (fanav starts
none). Callers import this module where they run jobs, not at their own
import, so that ``import fanav.cli`` loads nothing more for it.
"""
from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import traceback
from typing import Callable, Sequence

PR_SET_PDEATHSIG = 1  # prctl option: signal this process when its parent dies


def available_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def lane_count() -> int:
    """Lanes to run jobs on: ``available_cores() + 1`` on more than one
    core, else 1."""
    cores = available_cores()
    return cores + 1 if cores > 1 else 1


def run_lanes(jobs: Sequence[Callable[[], object]]) -> list:
    """Run ``jobs`` on the lanes; return their results in job order.

    The lane count is ``min(lane_count(), len(jobs))``. Of ``n`` jobs, lane
    ``k`` runs ``[ceil(n * k / lanes), ceil(n * (k + 1) / lanes))`` in order
    and stops at its first error; lane 0, the caller, takes the largest
    chunk. The first error in job order is raised here, as the serial loop
    would raise it; an error that cannot be pickled comes back as a
    ``RuntimeError`` carrying the child's traceback text.

    Lanes may share a core, so a job's own wall time includes the time it
    waited for one.
    """
    jobs = list(jobs)
    lanes = min(lane_count(), len(jobs))
    if lanes <= 1:
        return [job() for job in jobs]
    bounds = [-(-len(jobs) * k // lanes) for k in range(lanes + 1)]
    for stream in (sys.stdout, sys.stderr):
        stream.flush()  # so that no child holds a copy of pending output
    pids: list[int] = []  # lanes 1.. not yet reaped
    fds: list[int] = []   # read ends of their result pipes
    try:
        for k in range(1, lanes):
            pid, fd = _fork_lane(jobs[bounds[k]:bounds[k + 1]], fds)
            pids.append(pid)
            fds.append(fd)
        results = [job() for job in jobs[:bounds[1]]]
        for pid, fd in zip(list(pids), fds):
            with os.fdopen(fd, "rb", closefd=False) as fh:
                blob = fh.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            lane_results, error = _unpack(blob, pid, status)
            if error is not None:
                raise error
            results += lane_results
        return results
    finally:
        for pid in pids:  # only left when raising
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _fork_lane(jobs: list, inherited: list[int]) -> tuple[int, int]:
    """Start a child that runs ``jobs``; returns its pid and the read end of
    its result pipe. ``inherited`` are earlier lanes' read ends, which the
    child closes."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:  # the child: never return into the caller's stack
        os.close(read_fd)
        for fd in inherited:
            os.close(fd)
        _die_with(parent)
        _run_and_send(jobs, write_fd)
    finally:
        os._exit(0)


def _die_with(parent: int) -> None:
    """Have the kernel SIGKILL this child when its parent dies: the parent's
    ``finally`` does not run when it is killed or stopped by SIGTERM."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (AttributeError, OSError):  # no prctl: not Linux
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before prctl took effect
        os._exit(1)


def _run_and_send(jobs: list, write_fd: int) -> None:
    results, error = [], None
    try:
        for job in jobs:
            results.append(job())
    except BaseException as exc:  # KeyboardInterrupt too: the parent re-raises
        error = exc
    try:
        if error is not None:
            pickle.loads(pickle.dumps(error))  # it must also unpickle
        blob = pickle.dumps((results, error), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        bad = error if error is not None else exc
        blob = pickle.dumps(([], RuntimeError(
            "a lane's results or error cannot be pickled:\n"
            + "".join(traceback.format_exception(
                type(bad), bad, bad.__traceback__)))))
    with os.fdopen(write_fd, "wb") as fh:
        fh.write(blob)


def _unpack(blob: bytes, pid: int,
            status: int) -> tuple[list, BaseException | None]:
    """A lane's (results, error), or an error if it sent nothing whole."""
    try:
        return pickle.loads(blob)
    except Exception:
        return [], RuntimeError(f"lane process {pid} ended without a result "
                                f"(wait status {status})")
