"""Run independent tasks on every CPU this process may use.

The one fork fan-out the repository has: the Fig. 7/8 sweep stripes its
schedules over it (``repro.experiments.multi``) and the journal's
validating scan its byte ranges (``repro.core.scheduler.journal``).  A
serving process imports this module with the journal, so it imports
nothing beyond the standard library, and ``multiprocessing`` and
``pickle`` only once a fan-out is wider than one process.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable

#: cgroup v2's CPU bandwidth limit: ``"<quota> <period>"`` or ``"max <period>"``.
CPU_MAX = "/sys/fs/cgroup/cpu.max"
#: cgroup v1's CPU bandwidth limit, in microseconds (quota ``-1``: none).
CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _read_words(path: str) -> list[str] | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().split()
    except (OSError, ValueError):
        return None


def cpu_quota() -> int | None:
    """The CPUs this process's cgroup lets it use, ``ceil(quota / period)``,
    or ``None`` when no quota is set (``max`` on v2, ``-1`` on v1) or none
    can be read.  v2's ``cpu.max`` is read first, then v1's pair."""
    words = _read_words(CPU_MAX)
    if words is not None and len(words) == 2:
        quota, period = words
    else:
        quota_words, period_words = _read_words(CFS_QUOTA), _read_words(CFS_PERIOD)
        if not quota_words or not period_words:
            return None
        quota, period = quota_words[0], period_words[0]
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max"
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return math.ceil(quota_us / period_us)


def width(tasks: int) -> int:
    """How many processes :func:`fan_out` runs ``tasks`` independent tasks
    in: one per CPU this process may run on, capped at its cgroup CPU quota
    (:func:`cpu_quota`) and at ``tasks``, or 1 (in-process) where forking
    is unavailable or unsafe (another Python thread is alive).

    Threads a C library starts on its own are not counted.  Such a library
    keeps itself fork-safe with ``pthread_atfork``: numpy's OpenBLAS joins
    its pool before every fork, so the process forks with one thread and
    Python 3.12's fork-with-threads warning, which counts the threads after
    the fork, stays quiet.  A native thread that outlives the fork is what
    that warning reports, and it is left to report it.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    quota = cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, min(cpus, tasks))


def fan_out(fn: Callable, tasks: list, width: int) -> list:
    """``[fn(task) for task in tasks]``, striped round-robin over ``width``
    processes: this one runs stripe 0, a forked child each other stripe.

    Results come back in task order and a stripe's exception is raised
    here.  Every child is reaped before this returns or raises, the others
    killed first when a stripe fails.  No thread is started, so no fork
    races one (a ``ProcessPoolExecutor``'s exiting threads do).
    """
    if width == 1:
        return [fn(task) for task in tasks]
    from multiprocessing import get_context

    fork = get_context("fork")
    stripes = [tasks[index::width] for index in range(width)]
    children = []  # (process, read end of its pipe)
    results: list = [None] * len(tasks)
    try:
        for index in range(1, width):
            reader, writer = fork.Pipe(duplex=False)
            child = fork.Process(target=_run_stripe, args=(fn, stripes[index], writer))
            try:
                child.start()
            finally:
                writer.close()
            children.append((child, reader))
        results[0::width] = [fn(task) for task in stripes[0]]
        for index, (child, reader) in enumerate(children, 1):
            try:
                ok, value = reader.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"fan-out child {child.pid} sent no results (exit code {child.exitcode})"
                ) from None
            if not ok:
                raise value
            results[index::width] = value
    except BaseException:
        # Nobody will read the other stripes: stop them now.
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, reader in children:
            reader.close()
            child.join()
    return results


def _run_stripe(fn: Callable, stripe: list, writer) -> None:
    """A forked child's side of :func:`fan_out`: send back the stripe's
    results, or its exception."""
    import pickle  # here, not at the top: a serving process never loads it

    try:
        writer.send((True, [fn(task) for task in stripe]))
    except BaseException as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # one the parent could not rebuild: keep its text
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        writer.send((False, exc))
