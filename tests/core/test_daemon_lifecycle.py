"""Daemon connection/teardown lifecycle regressions.

Covers the control-plane races the reaper introduced: a synthesized
``container_exit`` racing a real one, teardown idempotency, error replies
skipping teardown, and — the user-visible symptom — a wrapper whose
container is reaped *while its allocation request is paused* unblocking
cleanly instead of hanging in ``recv`` forever.
"""

import os
import threading
import time

import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import CONTAINER_SOCKET_NAME, SchedulerDaemon
from repro.core.scheduler.journal import SchedulerJournal
from repro.core.scheduler.liveness import HeartbeatMonitor
from repro.core.scheduler.policies import make_policy
from repro.errors import IpcDisconnected, SchedulerError, UnknownContainerError
from repro.ipc import protocol
from repro.ipc.loop import SELECT_TIMEOUT_S
from repro.ipc.unix_socket import ReplyHandle, UnixSocketClient
from repro.units import MiB

TOTAL = 100 * MiB


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_daemon(tmp_path, io, monitor=None):
    scheduler = GpuMemoryScheduler(TOTAL, make_policy("FIFO"), context_overhead=0)
    return SchedulerDaemon(
        scheduler,
        base_dir=str(tmp_path / f"convgpu-{io}"),
        io=io,
        monitor=monitor,
        reap_interval=999.0,  # sweeps are driven explicitly by the tests
    )


def wait_until_paused(daemon, container_id):
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if daemon.scheduler.container(container_id).pending:
            return
        time.sleep(0.01)
    raise AssertionError("request never paused")


# One value: the only I/O model left; the param keeps the ``[loop]`` test ids.
@pytest.mark.parametrize("io", ("loop",))
class TestReapWhilePaused:
    def test_paused_client_unblocks_cleanly_on_reap(self, tmp_path, io):
        """A container reaped mid-pause never leaves its wrapper hanging.

        The client either receives the in-band reject ("container exited")
        that ``container_exit`` delivers to pending requests, or — when the
        socket goes down before the reply crosses — a typed
        :class:`IpcDisconnected`.  Anything else (a hang, a raw OSError) is
        a regression.
        """
        clock = FakeClock()
        monitor = HeartbeatMonitor(timeout=5.0, clock=clock)
        daemon = make_daemon(tmp_path, io, monitor=monitor).start()
        try:
            with UnixSocketClient(daemon.control_path) as control:
                control.call(
                    protocol.MSG_REGISTER_CONTAINER, container_id="c2", limit=TOTAL
                )
                control.call(
                    protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=TOTAL
                )
            # c2 registered first holds the whole pool's assignment, so c1's
            # request is within its limit but over its assignment: it pauses.
            assert daemon.scheduler.container("c1").assigned < 80 * MiB
            outcome = {}

            def blocked_alloc():
                client = UnixSocketClient(daemon.container_socket_path("c1"))
                try:
                    outcome["reply"] = client.call(
                        protocol.MSG_ALLOC_REQUEST,
                        container_id="c1", pid=1, size=80 * MiB, api="cudaMalloc",
                    )
                except Exception as exc:  # noqa: BLE001 - captured for assert
                    outcome["error"] = exc
                finally:
                    client.close()

            thread = threading.Thread(target=blocked_alloc)
            thread.start()
            wait_until_paused(daemon, "c1")

            # c1 goes silent past the heartbeat timeout; c2 stays live.
            clock.now = 6.0
            monitor.beat("c2")
            assert daemon.reap_orphans() == ["c1"]

            thread.join(timeout=10.0)
            assert not thread.is_alive(), "paused client hung after the reap"
            if "reply" in outcome:
                assert outcome["reply"]["decision"] == "reject"
                assert "exited" in outcome["reply"]["reason"]
            else:
                assert isinstance(outcome["error"], IpcDisconnected)
            # The reaped container is fully torn down, the live one intact.
            assert "c1" not in daemon._container_dirs
            assert os.path.exists(daemon.container_socket_path("c2"))
        finally:
            daemon.stop()

    def test_call_after_reap_is_disconnect_not_hang(self, tmp_path, io):
        clock = FakeClock()
        monitor = HeartbeatMonitor(timeout=5.0, clock=clock)
        daemon = make_daemon(tmp_path, io, monitor=monitor).start()
        try:
            with UnixSocketClient(daemon.control_path) as control:
                control.call(
                    protocol.MSG_REGISTER_CONTAINER, container_id="c1", limit=TOTAL
                )
            client = UnixSocketClient(daemon.container_socket_path("c1"))
            clock.now = 6.0
            assert daemon.reap_orphans() == ["c1"]
            with pytest.raises(IpcDisconnected):
                client.call(
                    protocol.MSG_ALLOC_REQUEST,
                    container_id="c1", pid=1, size=MiB, api="cudaMalloc",
                )
            client.close()
        finally:
            daemon.stop()


class TestTeardownIdempotency:
    @pytest.fixture
    def daemon(self, tmp_path):
        daemon = make_daemon(tmp_path, "loop").start()
        yield daemon
        daemon.stop()

    def _register(self, daemon, container_id):
        with UnixSocketClient(daemon.control_path) as control:
            return control.call(
                protocol.MSG_REGISTER_CONTAINER,
                container_id=container_id,
                limit=TOTAL,
            )

    def test_teardown_twice_is_noop(self, daemon):
        reply = self._register(daemon, "c1")
        directory = reply["socket_dir"]
        daemon._teardown_container_dir("c1")
        assert not os.path.exists(directory)
        daemon._teardown_container_dir("c1")  # reaper racing a real exit
        assert "c1" not in daemon._container_dirs
        assert "c1" not in daemon._container_servers

    def test_concurrent_exits_single_teardown(self, daemon):
        self._register(daemon, "c1")
        stops = []
        server = daemon._container_servers["c1"]
        original_stop = server.stop

        def counting_stop():
            stops.append(1)
            original_stop()

        server.stop = counting_stop
        message = protocol.make_request(
            protocol.MSG_CONTAINER_EXIT, seq=0, container_id="c1"
        )
        threads = [
            threading.Thread(target=daemon._handle_control, args=(message, None))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert all(not t.is_alive() for t in threads)
        assert len(stops) == 1, "container server stopped more than once"
        assert "c1" not in daemon._container_dirs

    def test_exit_error_reply_skips_teardown(self, daemon, monkeypatch):
        reply = self._register(daemon, "c1")
        directory = reply["socket_dir"]

        def raising_exit(container_id):
            raise UnknownContainerError(f"unknown container {container_id!r}")

        monkeypatch.setattr(daemon.scheduler, "container_exit", raising_exit)
        torn = []
        monkeypatch.setattr(
            daemon, "_teardown_container_dir", lambda cid: torn.append(cid)
        )
        with UnixSocketClient(daemon.control_path) as control:
            error_reply = control.call(
                protocol.MSG_CONTAINER_EXIT, container_id="c1"
            )
        assert error_reply["status"] == "error"
        assert torn == [], "teardown ran despite the error reply"
        assert os.path.isdir(directory)

    def test_unknown_container_exit_is_harmless(self, daemon):
        reply = self._register(daemon, "c1")
        directory = reply["socket_dir"]
        with UnixSocketClient(daemon.control_path) as control:
            control.call(protocol.MSG_CONTAINER_EXIT, container_id="ghost")
        # The stranger's exit touched nothing that exists.
        assert os.path.isdir(directory)
        assert "c1" in daemon._container_dirs


class TestContainerDirectories:
    """A container's socket directory is named by its whole id: two ids
    that share their first 12 characters get two sockets, and either exit
    leaves the other one serving."""

    IDS = ("tenant-alpha-1", "tenant-alpha-2")

    def _register_pair(self, daemon):
        with UnixSocketClient(daemon.control_path) as control:
            return {
                cid: control.call(
                    protocol.MSG_REGISTER_CONTAINER,
                    container_id=cid,
                    limit=TOTAL // 2,
                )
                for cid in self.IDS
            }

    def test_shared_prefix_ids_get_their_own_sockets(self, tmp_path):
        daemon = make_daemon(tmp_path, "loop").start()
        try:
            replies = self._register_pair(daemon)
            first, second = (replies[cid]["socket_dir"] for cid in self.IDS)
            assert first != second
            with UnixSocketClient(daemon.control_path) as control:
                reply = control.call(
                    protocol.MSG_CONTAINER_EXIT, container_id=self.IDS[0]
                )
                assert reply["status"] == "ok"
            assert not os.path.exists(first)
            survivor = os.path.join(second, CONTAINER_SOCKET_NAME)
            with UnixSocketClient(survivor) as client:
                info = client.call(
                    protocol.MSG_MEM_GET_INFO, container_id=self.IDS[1], pid=7
                )
            assert info["status"] == "ok"
        finally:
            daemon.stop()

    def test_recover_rebinds_each_socket_at_its_reply_path(self, tmp_path):
        journal_path = str(tmp_path / "daemon.journal")
        base_dir = str(tmp_path / "sock")
        scheduler = GpuMemoryScheduler(
            TOTAL, make_policy("FIFO"), context_overhead=0
        )
        journal = SchedulerJournal(journal_path)
        journal.attach(scheduler)
        daemon = SchedulerDaemon(
            scheduler, journal=journal, base_dir=base_dir
        ).start()
        replies = self._register_pair(daemon)
        assert len({reply["socket_dir"] for reply in replies.values()}) == 2
        daemon.kill()
        revived = SchedulerDaemon.recover(journal_path, base_dir=base_dir).start()
        try:
            for cid in self.IDS:
                path = os.path.join(replies[cid]["socket_dir"], CONTAINER_SOCKET_NAME)
                assert revived.container_socket_path(cid) == path
                with UnixSocketClient(path) as client:
                    info = client.call(
                        protocol.MSG_MEM_GET_INFO, container_id=cid, pid=7
                    )
                assert info["status"] == "ok"
                assert info["total"] == TOTAL // 2
        finally:
            revived.stop()
            daemon.stop()


class _RecordingConn:
    """Stands in for the control connection: logs each reply flush."""

    def __init__(self, conn, events):
        self._conn = conn
        self._events = events

    def sendall(self, data):
        self._events.append("exit_reply")
        self._conn.sendall(data)


class TestExitEffectOrder:
    """``container_exit`` effect order is a contract (DESIGN.md §10):
    journal durable → resume deliveries → tear-down of the exiting
    container's server → exit reply, batched and unbatched alike.  Pinned
    by recorded sequences, never by the clock."""

    @pytest.fixture
    def paused(self, tmp_path, monkeypatch):
        """A daemon where ``waiter`` is paused behind ``holder``; yields
        ``(daemon, monitor clock, events)`` with every spy armed."""
        clock = FakeClock()
        monitor = HeartbeatMonitor(timeout=5.0, clock=clock)
        scheduler = GpuMemoryScheduler(
            TOTAL, make_policy("FIFO"), context_overhead=0
        )
        journal = SchedulerJournal(str(tmp_path / "wal.jsonl"), mode="group")
        journal.attach(scheduler)
        daemon = SchedulerDaemon(
            scheduler,
            base_dir=str(tmp_path / "convgpu"),
            journal=journal,
            monitor=monitor,
            reap_interval=999.0,
        ).start()
        events = []
        replies = []

        def blocked_alloc():
            with UnixSocketClient(daemon.container_socket_path("waiter")) as c:
                replies.append(
                    c.call(
                        protocol.MSG_ALLOC_REQUEST,
                        container_id="waiter", pid=1, size=80 * MiB,
                        api="cudaMalloc",
                    )
                )

        thread = threading.Thread(target=blocked_alloc)
        try:
            with UnixSocketClient(daemon.control_path) as control:
                for container_id in ("holder", "waiter"):
                    control.call(
                        protocol.MSG_REGISTER_CONTAINER,
                        container_id=container_id, limit=TOTAL,
                    )
            thread.start()
            wait_until_paused(daemon, "waiter")

            original_wait = journal.wait_durable
            original_send = ReplyHandle.send
            server = daemon._container_servers["holder"]
            original_stop = server.stop
            control_server = daemon._control_server
            original_dispatch = control_server._dispatch_batch

            def spy_wait():
                events.append("wait_durable")
                original_wait()

            def spy_send(handle, reply):
                events.append("resume_send")
                original_send(handle, reply)

            def spy_stop():
                events.append("stop")
                original_stop()

            monkeypatch.setattr(journal, "wait_durable", spy_wait)
            monkeypatch.setattr(ReplyHandle, "send", spy_send)
            monkeypatch.setattr(server, "stop", spy_stop)
            monkeypatch.setattr(
                control_server,
                "_dispatch_batch",
                lambda conn, lock, ctx, frames: original_dispatch(
                    _RecordingConn(conn, events), lock, ctx, frames
                ),
            )
            yield daemon, clock, events
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "paused client never resumed"
            assert [r["decision"] for r in replies] == ["grant"]
        finally:
            monkeypatch.undo()
            daemon.stop()

    def test_batched_control_exit(self, paused):
        daemon, _clock, events = paused
        directory = daemon._container_dirs["holder"]
        # codec="json": no hello round trip, so the only control flush the
        # spy can see is the exit reply's.
        with UnixSocketClient(daemon.control_path, codec="json") as control:
            reply = control.call(
                protocol.MSG_CONTAINER_EXIT, container_id="holder"
            )
            assert reply["status"] == "ok"
            # The reply follows the tear-down: nothing of the container is
            # left when the caller's container_exit returns.
            assert not os.path.exists(directory)
            assert events == [
                "wait_durable", "resume_send", "stop", "exit_reply"
            ]
            # A repeated exit finds nothing to tear down.
            control.call(protocol.MSG_CONTAINER_EXIT, container_id="holder")
        assert events.count("stop") == 1

    def test_reaper_exit_records_the_same_sequence(self, paused):
        daemon, clock, events = paused
        directory = daemon._container_dirs["holder"]
        clock.now = 6.0
        daemon.monitor.beat("waiter")
        assert daemon.reap_orphans() == ["holder"]
        # No reply on this path; the sweep returning is its analogue.
        assert events == ["wait_durable", "resume_send", "stop"]
        assert not os.path.exists(directory)


class TestNumericOptions:
    """Non-positive intervals are refused up front: a zero reap interval
    would spin the reaper, and a zero watchdog interval would dump after
    any tick."""

    @pytest.mark.parametrize("option", ("reap_interval", "watchdog_interval"))
    @pytest.mark.parametrize("value", (0, -1))
    def test_constructor_refuses_non_positive(self, tmp_path, option, value):
        scheduler = GpuMemoryScheduler(TOTAL, make_policy("FIFO"))
        base_dir = tmp_path / "base"
        with pytest.raises(SchedulerError, match=option):
            SchedulerDaemon(scheduler, base_dir=str(base_dir), **{option: value})
        assert not base_dir.exists()

    @pytest.mark.parametrize("value", (0.5, SELECT_TIMEOUT_S))
    def test_constructor_refuses_a_watchdog_interval_within_the_select_timeout(
        self, tmp_path, value
    ):
        """An idle selector ticks once per select timeout: a watchdog no
        longer than that would dump an idle daemon."""
        scheduler = GpuMemoryScheduler(TOTAL, make_policy("FIFO"))
        base_dir = tmp_path / "base"
        with pytest.raises(SchedulerError, match="select timeout"):
            SchedulerDaemon(
                scheduler, base_dir=str(base_dir), watchdog_interval=value
            )
        assert not base_dir.exists()

    def test_recover_refuses_a_watchdog_interval_before_compacting(self, tmp_path):
        path = tmp_path / "j.wal"
        scheduler = GpuMemoryScheduler(TOTAL, make_policy("FIFO"))
        with SchedulerJournal(str(path)) as journal:
            journal.attach(scheduler)
            scheduler.register_container("c", 10 * MiB)
        before = path.read_bytes()
        with pytest.raises(SchedulerError, match="watchdog_interval"):
            SchedulerDaemon.recover(
                str(path), watchdog_interval=SELECT_TIMEOUT_S,
                base_dir=str(tmp_path / "base"),
            )
        assert path.read_bytes() == before

    def test_recover_refuses_before_compacting_the_journal(self, tmp_path):
        path = tmp_path / "j.wal"
        scheduler = GpuMemoryScheduler(TOTAL, make_policy("FIFO"))
        with SchedulerJournal(str(path)) as journal:
            journal.attach(scheduler)
            scheduler.register_container("c", 10 * MiB)
        before = path.read_bytes()
        with pytest.raises(SchedulerError, match="reap_interval"):
            SchedulerDaemon.recover(
                str(path), reap_interval=0, base_dir=str(tmp_path / "base")
            )
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "flag",
        ("--heartbeat-timeout", "--reap-interval", "--watchdog-interval"),
    )
    def test_cli_refuses_before_touching_disk(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        from repro.cli import main

        def never_start(self):
            raise AssertionError("the daemon must not start")

        monkeypatch.setattr(SchedulerDaemon, "start", never_start)
        journal = tmp_path / "j.wal"
        base_dir = tmp_path / "base"
        rc = main([
            "daemon", "--journal-path", str(journal),
            "--base-dir", str(base_dir), "--no-metrics", flag, "0",
        ])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{flag} must be positive, got 0"]
        assert not journal.exists()
        assert not base_dir.exists()

    def test_cli_refuses_a_watchdog_interval_within_the_select_timeout(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        def never_start(self):
            raise AssertionError("the daemon must not start")

        monkeypatch.setattr(SchedulerDaemon, "start", never_start)
        base_dir = tmp_path / "base"
        rc = main([
            "daemon", "--base-dir", str(base_dir), "--no-metrics",
            "--watchdog-interval", "1",
        ])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "--watchdog-interval must exceed the I/O loop's 1 s select "
            "timeout, got 1"
        ]
        assert not base_dir.exists()
