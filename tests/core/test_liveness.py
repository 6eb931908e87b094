"""Tests for heartbeat tracking and orphan reaping (`repro.core.scheduler.liveness`).

The monitor is clock-injected, so staleness is tested deterministically;
the daemon-level tests drive :meth:`SchedulerDaemon.reap_orphans` directly
(the background sweep thread is exercised by the integration suite).
"""

import pytest

from repro.core.scheduler import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    GpuMemoryScheduler,
    HeartbeatMonitor,
    SchedulerDaemon,
    make_policy,
)
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.units import GiB, MiB

from tests.conftest import ManualClock


class TestHeartbeatMonitor:
    def test_beat_and_staleness(self):
        clock = ManualClock()
        monitor = HeartbeatMonitor(timeout=10.0, clock=clock)
        monitor.beat("a")
        monitor.beat("b")
        assert monitor.stale() == []
        clock.advance(8.0)
        monitor.beat("b")           # b stays fresh
        clock.advance(5.0)          # a silent for 13s, b for 5s
        assert monitor.stale() == ["a"]
        clock.advance(10.0)
        assert monitor.stale() == ["a", "b"]

    def test_boundary_is_exclusive(self):
        # Exactly `timeout` seconds of silence is still alive: only
        # *longer* silence is stale (no reap on the edge).
        clock = ManualClock()
        monitor = HeartbeatMonitor(timeout=10.0, clock=clock)
        monitor.beat("a")
        clock.advance(10.0)
        assert monitor.stale() == []
        clock.advance(0.001)
        assert monitor.stale() == ["a"]

    def test_forget_stops_tracking(self):
        clock = ManualClock()
        monitor = HeartbeatMonitor(timeout=1.0, clock=clock)
        monitor.beat("a")
        monitor.forget("a")
        clock.advance(100.0)
        assert monitor.stale() == []
        assert monitor.tracked == []
        monitor.forget("never-seen")  # idempotent

    def test_last_beat_and_tracked(self):
        clock = ManualClock()
        monitor = HeartbeatMonitor(timeout=1.0, clock=clock)
        assert monitor.last_beat("a") is None
        monitor.beat("a")
        stamp = monitor.last_beat("a")
        clock.advance(1.0)
        monitor.beat("b")
        assert monitor.last_beat("a") == stamp
        assert monitor.tracked == ["a", "b"]

    def test_explicit_now_overrides_clock(self):
        monitor = HeartbeatMonitor(timeout=5.0, clock=lambda: 0.0)
        monitor.beat("a")
        assert monitor.stale(now=100.0) == ["a"]
        assert monitor.stale(now=1.0) == []

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            HeartbeatMonitor(timeout=0.0)

    def test_default_timeout_is_generous(self):
        # A container blocked in a long kernel launch must survive missing
        # a few beats; the default encodes that.
        assert DEFAULT_HEARTBEAT_TIMEOUT >= 10.0


@pytest.mark.integration
class TestDaemonReaping:
    @pytest.fixture
    def daemon(self, manual_clock):
        scheduler = GpuMemoryScheduler(
            4 * GiB, make_policy("FIFO"), clock=manual_clock
        )
        monitor = HeartbeatMonitor(timeout=10.0, clock=manual_clock)
        daemon = SchedulerDaemon(
            scheduler,
            monitor=monitor,
            reap_interval=3600.0,  # sweeps driven manually via reap_orphans()
        )
        daemon.start()
        yield daemon
        daemon.stop()

    def _register(self, daemon, container_id, limit):
        with UnixSocketClient(daemon.control_path) as control:
            reply = control.call(
                protocol.MSG_REGISTER_CONTAINER,
                container_id=container_id,
                limit=limit,
            )
        assert reply["status"] == "ok"
        return reply

    def test_silent_container_is_reaped_and_closed(self, daemon, manual_clock):
        self._register(daemon, "orphan", 1 * GiB)
        scheduler = daemon.scheduler

        # Allocate so the reap has a real reservation to reclaim.
        with UnixSocketClient(daemon.container_socket_path("orphan")) as client:
            reply = client.call(
                protocol.MSG_ALLOC_REQUEST, container_id="orphan", pid=1,
                size=100 * MiB, api="cudaMalloc",
            )
            assert reply["decision"] == "grant"
            client.notify(
                protocol.MSG_ALLOC_COMMIT, container_id="orphan", pid=1,
                address=0x1, size=100 * MiB,
            )
            # Round-trip once so the fire-and-forget commit is processed
            # before the clock jumps past the heartbeat timeout.
            client.call(protocol.MSG_MEM_GET_INFO, container_id="orphan", pid=1)

        manual_clock.advance(11.0)
        assert daemon.reap_orphans() == ["orphan"]
        assert daemon.reaped == ["orphan"]
        assert [r.container_id for r in scheduler.containers()] == []
        assert scheduler.reserved == 0
        # Reap went through the container_exit path: socket dir torn down,
        # monitor no longer tracks it, second sweep is a no-op.
        assert daemon.monitor.tracked == []
        assert daemon.reap_orphans() == []

    def test_any_message_counts_as_heartbeat(self, daemon, manual_clock):
        self._register(daemon, "busy", 1 * GiB)
        with UnixSocketClient(daemon.container_socket_path("busy")) as client:
            manual_clock.advance(8.0)
            # Ordinary traffic (not MSG_HEARTBEAT) refreshes the beat.
            client.call(protocol.MSG_MEM_GET_INFO, container_id="busy", pid=1)
            manual_clock.advance(8.0)
            assert daemon.reap_orphans() == []  # 8s < 10s since last message
            manual_clock.advance(3.0)
            assert daemon.reap_orphans() == ["busy"]

    def test_explicit_heartbeat_keeps_idle_container_alive(self, daemon, manual_clock):
        self._register(daemon, "idle", 1 * GiB)
        with UnixSocketClient(daemon.container_socket_path("idle")) as client:
            for _ in range(3):
                manual_clock.advance(8.0)
                client.notify(protocol.MSG_HEARTBEAT, container_id="idle")
                # notify() is fire-and-forget: round-trip once so the beat
                # has definitely been processed before advancing the clock.
                client.call(protocol.MSG_MEM_GET_INFO, container_id="idle", pid=1)
                assert daemon.reap_orphans() == []
        assert [r.container_id for r in daemon.scheduler.containers()] == ["idle"]

    def test_reap_triggers_redistribution_to_paused_container(
        self, daemon, manual_clock
    ):
        # "hog" holds everything; "waiter" is paused.  Reaping the silent
        # hog must resume the waiter exactly like a clean exit would.
        self._register(daemon, "hog", 4 * GiB)
        self._register(daemon, "waiter", 1 * GiB)
        resumed = []
        with UnixSocketClient(daemon.container_socket_path("hog")) as hog:
            reply = hog.call(
                protocol.MSG_ALLOC_REQUEST, container_id="hog", pid=1,
                size=3 * GiB, api="cudaMalloc",
            )
            assert reply["decision"] == "grant"
            hog.notify(
                protocol.MSG_ALLOC_COMMIT, container_id="hog", pid=1,
                address=0x1, size=3 * GiB,
            )

            waiter = UnixSocketClient(daemon.container_socket_path("waiter"))
            try:
                import threading

                def blocked_request():
                    resumed.append(
                        waiter.call(
                            protocol.MSG_ALLOC_REQUEST, container_id="waiter",
                            pid=2, size=900 * MiB, api="cudaMalloc",
                        )
                    )

                thread = threading.Thread(target=blocked_request)
                thread.start()
                # The waiter's request is withheld (paused), not answered.
                thread.join(timeout=0.3)
                assert thread.is_alive() and resumed == []

                # hog goes silent past the timeout; waiter just talked.
                manual_clock.advance(11.0)
                daemon.monitor.beat("waiter")
                assert daemon.reap_orphans() == ["hog"]
                thread.join(timeout=2.0)
                assert not thread.is_alive()
                assert resumed[0]["decision"] == "grant"
            finally:
                waiter.close()
        # The reaped hog left no record; the waiter is still registered.
        assert [r.container_id for r in daemon.scheduler.containers()] == ["waiter"]
