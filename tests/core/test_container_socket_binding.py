"""A container's socket speaks only for that container (DESIGN.md §8).

The daemon bind-mounts one directory per container into that container
(§III-B), so the socket in it is the tenant's identity.  These tests send
every verb naming the socket's own container, another live container and
an unknown one, over the host's control socket and over a container
socket, and check which frames reach the scheduler service and what the
sender gets back.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.journal import serialize_state
from repro.core.scheduler.policies import make_policy
from repro.core.scheduler.service import SchedulerService
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.obs import log as obs_log
from repro.units import MiB

OWN, FOREIGN, UNKNOWN = "cont-a", "cont-b", "phantom-c"
LIMIT = 40 * MiB
HELD = 20 * MiB
CONTROL_VERBS = (protocol.MSG_REGISTER_CONTAINER, protocol.MSG_CONTAINER_EXIT)

#: One valid payload per verb (the container id is added per cell).
PAYLOADS = {
    protocol.MSG_REGISTER_CONTAINER: {"limit": 30 * MiB},
    protocol.MSG_CONTAINER_EXIT: {},
    protocol.MSG_ALLOC_REQUEST: {"pid": 7, "size": MiB, "api": "cudaMalloc"},
    protocol.MSG_ALLOC_COMMIT: {"pid": 7, "address": 0xA000, "size": MiB},
    protocol.MSG_ALLOC_ABORT: {"pid": 7, "size": MiB},
    protocol.MSG_ALLOC_RELEASE: {"pid": 7, "address": 0xA000},
    protocol.MSG_MEM_GET_INFO: {"pid": 7},
    protocol.MSG_PROCESS_EXIT: {"pid": 7},
    protocol.MSG_HEARTBEAT: {},
}
assert set(PAYLOADS) == set(protocol.REQUEST_FIELDS) - {protocol.MSG_HELLO}


@contextlib.contextmanager
def serving(base_dir: str, reached: list):
    """A live daemon on a 100 MiB device: containers A and B (40 MiB each),
    B holding a committed 20 MiB grant; ``reached`` collects every
    ``(verb, container_id)`` the scheduler service handles after setup."""
    scheduler = GpuMemoryScheduler(100 * MiB, make_policy("FIFO"), context_overhead=0)
    daemon = SchedulerDaemon(scheduler, base_dir=base_dir).start()
    try:
        with UnixSocketClient(daemon.control_path, timeout=10.0) as control:
            for container_id in (OWN, FOREIGN):
                reply = control.call(
                    protocol.MSG_REGISTER_CONTAINER,
                    container_id=container_id,
                    limit=LIMIT,
                )
                assert reply["status"] == "ok", reply
        with UnixSocketClient(
            daemon.container_socket_path(FOREIGN), timeout=10.0
        ) as holder:
            reply = holder.call(
                protocol.MSG_ALLOC_REQUEST,
                container_id=FOREIGN, pid=1, size=HELD, api="cudaMalloc",
            )
            assert reply["decision"] == "grant", reply
            holder.notify(
                protocol.MSG_ALLOC_COMMIT,
                container_id=FOREIGN, pid=1, address=0xB000, size=HELD,
            )
            holder.call(protocol.MSG_MEM_GET_INFO, container_id=FOREIGN, pid=1)
        assert daemon.scheduler.container(FOREIGN).used == HELD
        reached.clear()
        yield daemon
    finally:
        daemon.stop()


@pytest.fixture
def reached(monkeypatch):
    """Record every message the scheduler service is handed."""
    seen: list[tuple[str, str]] = []
    real_handle = SchedulerService.handle

    def recording(service, message, reply_handle):
        seen.append((message["type"], message.get("container_id")))
        return real_handle(service, message, reply_handle)

    monkeypatch.setattr(SchedulerService, "handle", recording)
    return seen


@pytest.fixture
def warnings(monkeypatch):
    """The daemon's structured warnings, as parsed JSON records."""
    buffer = io.StringIO()
    # Patched, not configure_logging(): that cannot restore stream=None.
    monkeypatch.setattr(obs_log._CONFIG, "stream", buffer)
    monkeypatch.setattr(obs_log._CONFIG, "threshold", obs_log.LEVELS["warning"])
    monkeypatch.setattr(obs_log._CONFIG, "json_mode", True)
    return lambda: [json.loads(line) for line in buffer.getvalue().splitlines()]


def records(daemon) -> dict[str, str]:
    """container id -> its serialized record, byte for byte."""
    return {
        record["container_id"]: json.dumps(record, sort_keys=True)
        for record in serialize_state(daemon.scheduler)["containers"]
    }


def test_a_container_socket_cannot_exit_or_register_another_container(
    tmp_path, reached
):
    """On A's own socket, ``container_exit`` for B and ``register_container``
    for a phantom C are refused, and nothing changes: B keeps its record,
    its 20 MiB and its socket, and C does not exist."""
    with serving(str(tmp_path / "convgpu"), reached) as daemon:
        before = serialize_state(daemon.scheduler)
        with UnixSocketClient(
            daemon.container_socket_path(OWN), timeout=10.0
        ) as own:
            exit_reply = own.call(protocol.MSG_CONTAINER_EXIT, container_id=FOREIGN)
            register_reply = own.call(
                protocol.MSG_REGISTER_CONTAINER, container_id=UNKNOWN, limit=30 * MiB
            )
        assert exit_reply["status"] == "error", exit_reply
        assert exit_reply["type"] == "container_exit_reply"
        assert "reclaimed" not in exit_reply
        assert register_reply["status"] == "error", register_reply
        assert register_reply["type"] == "register_container_reply"
        assert "assigned" not in register_reply
        assert serialize_state(daemon.scheduler) == before
        assert daemon.scheduler.container(FOREIGN).used == HELD
        assert os.path.exists(daemon.container_socket_path(FOREIGN))
        assert reached == []
        daemon.scheduler.check_invariants()


@pytest.mark.parametrize("socket_kind", ("control", "data"))
def test_verb_by_id_by_socket_matrix(tmp_path, reached, warnings, socket_kind):
    """Every verb x {own, foreign, unknown id} on one socket kind.

    The control socket (the host's, never mounted into a container) takes
    the control verbs for any id and refuses the rest.  A container socket
    takes every other verb, and only for its own container.  A refused
    request gets an error reply of its own type, a refused notification no
    reply, and neither changes any state.
    """
    cell = 0
    for verb, payload in PAYLOADS.items():
        for container_id in (OWN, FOREIGN, UNKNOWN):
            cell += 1
            where = f"{verb} for {container_id} on the {socket_kind} socket"
            with serving(str(tmp_path / f"c{cell}"), reached) as daemon:
                path = (
                    daemon.control_path
                    if socket_kind == "control"
                    else daemon.container_socket_path(OWN)
                )
                before = records(daemon)
                with UnixSocketClient(path, timeout=10.0) as client:
                    if verb in protocol.NOTIFICATION_TYPES:
                        client.notify(verb, container_id=container_id, **payload)
                        # The next reply on the connection is this call's:
                        # the notification got none.
                        sync = client.call(
                            protocol.MSG_MEM_GET_INFO, container_id=OWN, pid=7
                        )
                        assert sync["type"] == "mem_get_info_reply", where
                        reply = None
                    else:
                        reply = client.call(verb, container_id=container_id, **payload)
                handled = list(reached)
                if reply is None and socket_kind == "data":
                    # The sync call, last on the connection, is A's own.
                    assert handled.pop() == (protocol.MSG_MEM_GET_INFO, OWN), where
                if socket_kind == "control":
                    accepted = verb in CONTROL_VERBS
                else:
                    accepted = container_id == OWN and verb not in CONTROL_VERBS
                assert handled == ([(verb, container_id)] if accepted else []), where
                if socket_kind == "data":
                    # A's socket never touches another container's record.
                    after = records(daemon)
                    assert {k: v for k, v in after.items() if k != OWN} == {
                        k: v for k, v in before.items() if k != OWN
                    }, where
                if accepted:
                    continue
                assert records(daemon) == before, where
                if reply is not None:
                    assert reply["status"] == "error", where
                    assert reply["type"] == f"{verb}_reply", where
                elif socket_kind == "data":
                    (refusal,) = [
                        record for record in warnings()
                        if record["event"] == "notification_refused"
                        and record["type"] == verb
                        and record["container_id"] == container_id
                        and "does not speak for" in record["error"]
                    ]
                    assert refusal["level"] == "warning", where
    assert cell == len(PAYLOADS) * 3


_FRAMES = st.lists(
    st.tuples(
        st.sampled_from(sorted(PAYLOADS)),
        st.sampled_from((OWN, FOREIGN, UNKNOWN)),
        st.integers(min_value=1, max_value=3),  # pid
        st.sampled_from((MiB, 5 * MiB, 50 * MiB)),  # size
        st.sampled_from((0xA000, 0xB000)),  # address (B holds 0xB000)
    ),
    max_size=8,
)


def test_frames_on_a_socket_leave_every_other_record_untouched(tmp_path, reached):
    """Whatever A sends on its own socket — any verb, naming any id —
    every other container's serialized record stays byte-identical and no
    container appears or disappears.  One daemon serves every example, so
    B's record must survive all of them."""
    with serving(str(tmp_path / "convgpu"), reached) as daemon:
        initial = records(daemon)

        @settings(max_examples=25, deadline=None)
        @given(frames=_FRAMES)
        def check(frames):
            with UnixSocketClient(
                daemon.container_socket_path(OWN), timeout=10.0
            ) as own:
                for verb, container_id, pid, size, address in frames:
                    values = {"pid": pid, "size": size, "address": address}
                    payload = {
                        key: values.get(key, value)
                        for key, value in PAYLOADS[verb].items()
                    }
                    if verb in protocol.NOTIFICATION_TYPES:
                        own.notify(verb, container_id=container_id, **payload)
                    else:
                        own.call(verb, container_id=container_id, **payload)
                own.call(protocol.MSG_MEM_GET_INFO, container_id=OWN, pid=1)
            after = records(daemon)
            assert set(after) == {OWN, FOREIGN}
            assert after[FOREIGN] == initial[FOREIGN]
            assert {container_id for _verb, container_id in reached} <= {OWN}
            daemon.scheduler.check_invariants()

        check()
