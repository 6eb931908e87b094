"""Tests for the scheduler protocol service and the live daemon."""

import io
import json
import os
import socket
import threading
import time

import pytest

from repro.core.scheduler.core import CONTEXT_OVERHEAD_CHARGE, GpuMemoryScheduler
import repro.core.scheduler.journal as journal_mod
from repro.core.scheduler.daemon import (
    CONTAINER_SOCKET_NAME,
    WRAPPER_SONAME,
    SchedulerDaemon,
)
from repro.core.scheduler.journal import SchedulerJournal
from repro.core.scheduler.policies import make_policy
from repro.core.scheduler.service import SchedulerService
from repro.errors import SchedulerError
from repro.ipc import protocol
from repro.ipc.channel import InProcessChannel
from repro.ipc.unix_socket import REPLY_DEADLINE_S, DEFER, UnixSocketClient
from repro.obs import log as obs_log
from repro.units import GiB, MiB


@pytest.fixture
def service():
    scheduler = GpuMemoryScheduler(5 * GiB, make_policy("FIFO"))
    return SchedulerService(scheduler)


@pytest.fixture
def channel(service):
    return InProcessChannel(service.handle)


class TestServiceHandlers:
    def test_register_reports_assignment(self, channel):
        reply = channel.call_sync(
            protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=GiB
        )
        assert reply["status"] == "ok"
        assert reply["assigned"] == GiB
        assert reply["limit"] == GiB

    def test_register_over_capacity_is_error_reply(self, channel):
        reply = channel.call_sync(
            protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=6 * GiB
        )
        assert reply["status"] == "error"
        assert "capacity" in reply["error"]

    def test_grant_flow(self, channel):
        channel.call_sync(protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=GiB)
        reply = channel.call_sync(
            protocol.MSG_ALLOC_REQUEST,
            container_id="c1",
            pid=1,
            size=100 * MiB,
            api="cudaMalloc",
        )
        assert reply["decision"] == "grant"

    def test_reject_flow_carries_reason(self, channel):
        channel.call_sync(protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=256 * MiB)
        reply = channel.call_sync(
            protocol.MSG_ALLOC_REQUEST,
            container_id="c1",
            pid=1,
            size=300 * MiB,
            api="cudaMalloc",
        )
        assert reply["decision"] == "reject"
        assert "limit" in reply["reason"]

    def test_pause_defers_and_resumes_on_exit(self, service, channel):
        channel.call_sync(protocol.MSG_REGISTER_CONTAINER, container_id="big", limit=5 * GiB)
        channel.call_sync(protocol.MSG_REGISTER_CONTAINER, container_id="late", limit=GiB)
        pending = channel.call(
            protocol.MSG_ALLOC_REQUEST,
            container_id="late",
            pid=2,
            size=100 * MiB,
            api="cudaMalloc",
        )
        assert not pending.ready  # paused: reply withheld
        channel.call_sync(protocol.MSG_CONTAINER_EXIT, container_id="big")
        assert pending.ready
        assert pending.reply["decision"] == "grant"

    def test_unknown_message_type(self, service):
        reply = service.handle({"type": "bogus", "seq": 1}, None)
        assert reply["status"] == "error"

    def test_scheduler_errors_are_in_band(self, channel):
        reply = channel.call_sync(
            protocol.MSG_MEM_GET_INFO, container_id="ghost", pid=1
        )
        assert reply["status"] == "error"
        assert "unknown container" in reply["error"]

    def test_notifications_return_none(self, service):
        service.scheduler.register_container("c1", GiB)
        service.scheduler.request_allocation("c1", 1, MiB)
        message = protocol.make_request(
            protocol.MSG_ALLOC_COMMIT,
            container_id="c1",
            pid=1,
            address=0x1,
            size=MiB,
        )
        assert service.handle(message, None) is None
        assert service.scheduler.container("c1").used == MiB + CONTEXT_OVERHEAD_CHARGE

    def test_refused_notification_is_logged(self, service, monkeypatch):
        """No reply goes out for a notification, so the structured warning
        is the only trace of a refusal."""
        buffer = io.StringIO()
        # Patched, not configure_logging(): that cannot restore stream=None.
        monkeypatch.setattr(obs_log._CONFIG, "stream", buffer)
        monkeypatch.setattr(obs_log._CONFIG, "threshold", obs_log.LEVELS["warning"])
        monkeypatch.setattr(obs_log._CONFIG, "json_mode", True)
        service.scheduler.register_container("c1", GiB)
        message = protocol.make_request(
            protocol.MSG_ALLOC_RELEASE, container_id="c1", pid=1, address=0xDEAD
        )
        assert service.handle(message, None) is None
        (record,) = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert record["level"] == "warning"
        assert record["event"] == "notification_refused"
        assert record["type"] == protocol.MSG_ALLOC_RELEASE
        assert record["container_id"] == "c1"
        assert "unknown address" in record["error"]

    def test_mem_get_info_payload(self, channel):
        channel.call_sync(protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=GiB)
        reply = channel.call_sync(protocol.MSG_MEM_GET_INFO, container_id="c1", pid=1)
        assert (reply["free"], reply["total"]) == (GiB, GiB)


class TestDaemon:
    @pytest.fixture
    def daemon(self, tmp_path):
        scheduler = GpuMemoryScheduler(5 * GiB, make_policy("BF"))
        daemon = SchedulerDaemon(scheduler, base_dir=str(tmp_path / "convgpu"))
        daemon.start()
        yield daemon
        daemon.stop()

    def test_registration_prepares_directory(self, daemon):
        with UnixSocketClient(daemon.control_path) as control:
            reply = control.call(
                protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=GiB
            )
        assert reply["status"] == "ok"
        directory = reply["socket_dir"]
        # §III-D: directory + socket + wrapper copy.
        assert os.path.isdir(directory)
        assert os.path.exists(os.path.join(directory, WRAPPER_SONAME))
        assert os.path.exists(os.path.join(directory, CONTAINER_SOCKET_NAME))

    def test_container_socket_serves_allocations(self, daemon):
        with UnixSocketClient(daemon.control_path) as control:
            control.call(protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=GiB)
        with UnixSocketClient(daemon.container_socket_path("c1")) as wrapper_conn:
            reply = wrapper_conn.call(
                protocol.MSG_ALLOC_REQUEST,
                container_id="c1",
                pid=7,
                size=MiB,
                api="cudaMalloc",
            )
        assert reply["decision"] == "grant"

    def test_exit_tears_directory_down(self, daemon):
        with UnixSocketClient(daemon.control_path) as control:
            reply = control.call(
                protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=GiB
            )
            directory = reply["socket_dir"]
            control.call(protocol.MSG_CONTAINER_EXIT, container_id="c1")
        assert not os.path.exists(directory)
        with pytest.raises(SchedulerError):
            daemon.container_socket_path("c1")

    def test_wrapper_traffic_rejected_on_control_socket(self, daemon):
        with UnixSocketClient(daemon.control_path) as control:
            reply = control.call(
                protocol.MSG_ALLOC_REQUEST,
                container_id="c1",
                pid=1,
                size=MiB,
                api="cudaMalloc",
            )
        assert reply["status"] == "error"
        assert "control socket" in reply["error"]

    def test_double_start_rejected(self, daemon):
        with pytest.raises(SchedulerError):
            daemon.start()

    def test_registration_reply_names_the_socket_dir_only(self, daemon):
        with UnixSocketClient(daemon.control_path) as control:
            reply = control.call(
                protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=GiB
            )
        assert reply["status"] == "ok"
        assert "socket_dir" in reply
        assert "host" not in reply and "port" not in reply

    def test_only_the_unix_transport_is_accepted(self, tmp_path):
        scheduler = GpuMemoryScheduler(5 * GiB, make_policy("BF"))
        with pytest.raises(SchedulerError, match="transport"):
            SchedulerDaemon(scheduler, base_dir=str(tmp_path), transport="tcp")
        # The benchmark launcher's frozen spelling still builds a daemon.
        daemon = SchedulerDaemon(
            scheduler, base_dir=str(tmp_path), io="loop", transport="unix"
        )
        with daemon:
            assert os.path.exists(daemon.control_path)
        assert not hasattr(daemon, "transport")

    def test_only_the_loop_io_value_is_accepted(self, tmp_path):
        scheduler = GpuMemoryScheduler(5 * GiB, make_policy("BF"))
        with pytest.raises(SchedulerError):
            SchedulerDaemon(scheduler, base_dir=str(tmp_path), io="threads")


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def _register(daemon, ids, limit):
    with UnixSocketClient(daemon.control_path) as control:
        for container_id in ids:
            reply = control.call(
                protocol.MSG_REGISTER_CONTAINER,
                container_id=container_id, limit=limit,
            )
            assert reply["status"] == "ok"


class TestOneDispatchThread:
    def test_concurrent_depth1_requests_share_fsyncs(self, tmp_path, monkeypatch):
        """Eight containers each block in one `alloc_request` against an
        fsync journal.  A dispatch turn takes every connection with frames
        queued and commits them together, so the eight decisions ride at
        most three fsyncs; served one connection per commit they pay
        eight."""
        scheduler = GpuMemoryScheduler(16 * GiB, make_policy("FIFO"))
        journal = SchedulerJournal(str(tmp_path / "j.wal"), fsync=True)
        journal.attach(scheduler)
        daemon = SchedulerDaemon(
            scheduler, base_dir=str(tmp_path / "sock"), journal=journal
        ).start()
        ids = [f"c{i}" for i in range(8)]
        clients = []
        try:
            _register(daemon, ids, GiB)
            clients = [
                UnixSocketClient(daemon.container_socket_path(cid), timeout=10.0)
                for cid in ids
            ]
            real_fsync = os.fsync
            fsyncs = []

            def slow_fsync(fd):
                fsyncs.append(fd)
                time.sleep(0.05)
                real_fsync(fd)

            monkeypatch.setattr(journal_mod.os, "fsync", slow_fsync)
            start = threading.Barrier(len(ids))
            replies = {}

            def request(client, container_id):
                start.wait(timeout=10.0)
                replies[container_id] = client.call(
                    protocol.MSG_ALLOC_REQUEST,
                    container_id=container_id, pid=1, size=MiB, api="cudaMalloc",
                )

            threads = [
                threading.Thread(target=request, args=pair)
                for pair in zip(clients, ids)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
                assert not thread.is_alive()
            assert sorted(replies) == ids
            assert all(r["decision"] == "grant" for r in replies.values())
            assert 1 <= len(fsyncs) <= 3, fsyncs
        finally:
            for client in clients:
                client.close()
            daemon.stop()

    def test_a_tenant_that_never_reads_is_hung_up_on(self, tmp_path):
        """Tenant A pipelines queries and never reads a reply.  Its socket
        buffer fills and the reply write stalls the one dispatch thread —
        for at most REPLY_DEADLINE_S: then the daemon hangs up on A, which
        is left as a crashed client leaves it, and tenant B's blocking
        calls are answered throughout."""
        scheduler = GpuMemoryScheduler(4 * GiB, make_policy("FIFO"))
        daemon = SchedulerDaemon(scheduler, base_dir=str(tmp_path / "sock")).start()
        flooder = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            _register(daemon, ("a", "b"), GiB)
            server_a = daemon._container_servers["a"]
            flooder.connect(daemon.container_socket_path("a"))
            frame = protocol.encode(protocol.make_request(
                protocol.MSG_MEM_GET_INFO, seq=1, container_id="a", pid=1
            ))
            burst = frame * ((1 << 20) // len(frame))  # about 1 MiB of queries
            sent = threading.Event()

            def flood():
                try:
                    flooder.sendall(burst)
                except OSError:
                    pass  # hung up on mid-burst
                sent.set()

            threading.Thread(target=flood, daemon=True).start()
            worst = 0.0
            with UnixSocketClient(
                daemon.container_socket_path("b"), timeout=10.0
            ) as tenant_b:
                until = time.monotonic() + 2 * REPLY_DEADLINE_S + 1.0
                while time.monotonic() < until:
                    began = time.monotonic()
                    reply = tenant_b.call(
                        protocol.MSG_MEM_GET_INFO, container_id="b", pid=1
                    )
                    worst = max(worst, time.monotonic() - began)
                    assert reply["status"] == "ok"
            assert worst < REPLY_DEADLINE_S + 2.0, worst
            assert sent.wait(5.0)
            _wait_until(lambda: server_a._conns == [])
            flooder.settimeout(5.0)
            while flooder.recv(1 << 20):
                pass  # what was written before the hang-up, then EOF
            scheduler.check_invariants()
            assert [r.container_id for r in scheduler.containers()] == ["a", "b"]
        finally:
            flooder.close()
            daemon.stop()
