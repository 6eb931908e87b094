"""A notification the daemon does not act on leaves a trace (DESIGN.md §8).

A notification gets no reply, so the error reply a refused or failed
one would carry is dropped by the transport.  Its one trace is a warning
on the daemon's log: ``notification_refused`` for a verb turned away
(the control socket takes no data verbs; a container socket speaks only
for its container), ``notification_failed`` for a handler that raised.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.policies import make_policy
from repro.core.scheduler.service import SchedulerService
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.obs import log as obs_log
from repro.units import MiB

CONTAINER = "cont-a"

#: One valid payload per notification verb.
NOTIFICATIONS = {
    protocol.MSG_ALLOC_COMMIT: {"pid": 7, "address": 0xA000, "size": MiB},
    protocol.MSG_ALLOC_ABORT: {"pid": 7, "size": MiB},
    protocol.MSG_ALLOC_RELEASE: {"pid": 7, "address": 0xA000},
    protocol.MSG_PROCESS_EXIT: {"pid": 7},
    protocol.MSG_HEARTBEAT: {},
}
assert set(NOTIFICATIONS) == set(protocol.NOTIFICATION_TYPES)


@pytest.fixture
def warnings(monkeypatch):
    """The structured warnings logged during the test, as parsed JSON."""
    buffer = io.StringIO()
    monkeypatch.setattr(obs_log._CONFIG, "stream", buffer)
    monkeypatch.setattr(obs_log._CONFIG, "threshold", obs_log.LEVELS["warning"])
    monkeypatch.setattr(obs_log._CONFIG, "json_mode", True)
    return lambda: [json.loads(line) for line in buffer.getvalue().splitlines()]


@pytest.fixture
def daemon(tmp_path):
    scheduler = GpuMemoryScheduler(100 * MiB, make_policy("FIFO"), context_overhead=0)
    daemon = SchedulerDaemon(scheduler, base_dir=str(tmp_path / "convgpu")).start()
    try:
        with UnixSocketClient(daemon.control_path, timeout=10.0) as control:
            reply = control.call(
                protocol.MSG_REGISTER_CONTAINER, container_id=CONTAINER, limit=40 * MiB
            )
            assert reply["status"] == "ok", reply
        yield daemon
    finally:
        daemon.stop()


def _notify_then_sync(path: str, verb: str, sync_verb: str) -> dict:
    """Send one notification, then a request on the same connection;
    returns the request's reply (the next frame the daemon sends)."""
    with UnixSocketClient(path, timeout=10.0) as client:
        client.notify(verb, container_id=CONTAINER, **NOTIFICATIONS[verb])
        if sync_verb == protocol.MSG_MEM_GET_INFO:
            return client.call(sync_verb, container_id=CONTAINER, pid=7)
        return client.call(sync_verb, container_id="sync-only", limit=MiB)


@pytest.mark.parametrize("verb", sorted(NOTIFICATIONS))
def test_a_data_notification_on_the_control_socket_is_logged(daemon, warnings, verb):
    before = daemon.scheduler.container(CONTAINER)
    before = (before.used, before.inflight, before.assigned)
    sync = _notify_then_sync(
        daemon.control_path, verb, protocol.MSG_REGISTER_CONTAINER
    )
    assert sync["type"] == "register_container_reply"  # the notification got none
    record = daemon.scheduler.container(CONTAINER)
    assert (record.used, record.inflight, record.assigned) == before
    refusals = [w for w in warnings() if w["event"] == "notification_refused"]
    assert [(w["type"], w["container_id"]) for w in refusals] == [(verb, CONTAINER)]
    assert "not accepted on the control socket" in refusals[0]["error"]
    assert refusals[0]["level"] == "warning"


def test_a_notification_whose_handler_raises_is_logged(daemon, warnings, monkeypatch):
    real_handle = SchedulerService.handle

    def failing(service, message, reply_handle):
        if message["type"] == protocol.MSG_ALLOC_RELEASE:
            raise RuntimeError("planted handler bug")
        return real_handle(service, message, reply_handle)

    monkeypatch.setattr(SchedulerService, "handle", failing)
    sync = _notify_then_sync(
        daemon.container_socket_path(CONTAINER),
        protocol.MSG_ALLOC_RELEASE,
        protocol.MSG_MEM_GET_INFO,
    )
    assert sync["type"] == "mem_get_info_reply"
    failures = [w for w in warnings() if w["event"] == "notification_failed"]
    assert [(w["type"], w["container_id"]) for w in failures] == [
        (protocol.MSG_ALLOC_RELEASE, CONTAINER)
    ]
    assert failures[0]["error"] == "internal error: planted handler bug"


def test_a_request_whose_handler_raises_still_gets_the_error_reply(
    daemon, warnings, monkeypatch
):
    def failing(service, message, reply_handle):
        raise RuntimeError("planted handler bug")

    monkeypatch.setattr(SchedulerService, "handle", failing)
    with UnixSocketClient(
        daemon.container_socket_path(CONTAINER), timeout=10.0
    ) as client:
        reply = client.call(protocol.MSG_MEM_GET_INFO, container_id=CONTAINER, pid=7)
    assert reply["status"] == "error"
    assert reply["error"] == "internal error: planted handler bug"
    assert [w for w in warnings() if w["event"] == "notification_failed"] == []
