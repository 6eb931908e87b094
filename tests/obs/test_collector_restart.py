"""Regression: in-process daemon restart cycles must not stack collectors.

An in-process ``kill()`` then ``SchedulerDaemon.recover`` cycle (what the
fault-injection harness does) builds a *new* daemon object per recovery
while the caller may keep the old one referenced.  Before the fix, every
``__init__`` registered a gauge collector and ``kill()`` never removed it,
so each restart left one more collector behind whose stale scheduler
re-published gauge rows at every scrape — the metrics double-counting bug.
"""

from __future__ import annotations

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.journal import SchedulerJournal
from repro.core.scheduler.policies import make_policy
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.obs.metrics import REGISTRY
from repro.units import MiB


def _registered(daemons) -> list[bool]:
    """Whether each daemon's gauge collector is currently registered.

    Other subsystems (the IoLoop) register collectors of their own, so the
    assertion must identify collectors by callback, not count the registry.
    """
    callbacks = [callback for callback, _ref in REGISTRY._collectors]
    return [
        any(callback is daemon._collector for callback in callbacks)
        for daemon in daemons
    ]


def _reserved_rows(container_id: str) -> list[float]:
    family = REGISTRY.get("convgpu_container_reserved_bytes")
    REGISTRY.run_collectors()
    return [
        sample["value"]
        for values, sample in family.samples()
        if values == (container_id,)
    ]


def test_kill_recover_cycles_do_not_stack_collectors(tmp_path):
    journal_path = tmp_path / "daemon.journal"
    scheduler = GpuMemoryScheduler(1024 * MiB, make_policy("FIFO"))
    journal = SchedulerJournal(str(journal_path))
    journal.attach(scheduler)
    daemon = SchedulerDaemon(
        scheduler, journal=journal, base_dir=str(tmp_path / "sock")
    )
    daemon.start()
    with UnixSocketClient(daemon.control_path, timeout=10.0) as control:
        reply = control.call(
            protocol.MSG_REGISTER_CONTAINER, container_id="cont-a",
            limit=256 * MiB,
        )
        assert reply["status"] == "ok"
    assert _registered([daemon]) == [True]

    # Keep every dead incarnation referenced, as a restart harness may:
    # garbage collection must not be what saves us.
    incarnations = [daemon]
    for _ in range(3):
        incarnations[-1].kill()
        # kill() must deregister even though the object stays alive.
        assert not any(_registered(incarnations))
        revived = SchedulerDaemon.recover(
            str(journal_path), base_dir=str(tmp_path / "sock")
        )
        revived.start()
        incarnations.append(revived)
        # Exactly the live incarnation is registered — never the dead ones.
        assert _registered(incarnations) == [False] * (
            len(incarnations) - 1
        ) + [True]

    # Recovery restored the registration and it is scraped exactly once.
    assert _reserved_rows("cont-a") == [256 * MiB]

    # The live incarnation retires the container, which removes its gauge
    # rows.  A leftover collector from a dead incarnation — whose scheduler
    # still has cont-a open — would resurrect the row on the next scrape.
    live = incarnations[-1]
    with UnixSocketClient(live.control_path, timeout=10.0) as control:
        reply = control.call(
            protocol.MSG_CONTAINER_EXIT, container_id="cont-a"
        )
        assert reply["status"] == "ok"
    assert _reserved_rows("cont-a") == []

    for incarnation in incarnations:
        incarnation.stop()
    assert not any(_registered(incarnations))


def test_stop_then_start_reregisters_same_daemon(tmp_path):
    scheduler = GpuMemoryScheduler(1024 * MiB, make_policy("FIFO"))
    daemon = SchedulerDaemon(scheduler, base_dir=str(tmp_path / "sock"))
    daemon.start()
    assert _registered([daemon]) == [True]
    daemon.kill()
    assert _registered([daemon]) == [False]
    # An in-process kill-then-start of the *same* object must come back.
    daemon.start()
    assert _registered([daemon]) == [True]
    daemon.stop()
    assert _registered([daemon]) == [False]
