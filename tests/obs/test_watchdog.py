"""The daemon's stall watchdog (DESIGN.md §13): it dumps the flight
recorder when the I/O loop's selector stops ticking or its dispatch thread
stays in one turn longer than ``watchdog_interval``, and never for an idle
loop."""

import json
import time

import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.policies import make_policy
from repro.errors import SchedulerError
from repro.ipc import protocol
from repro.ipc.loop import SELECT_TIMEOUT_S
from repro.ipc.unix_socket import UnixSocketClient
from repro.units import MiB

TOTAL = 100 * MiB


class TestWatchdog:
    """The watchdog sees both I/O loop threads, and never an idle loop."""

    @staticmethod
    def make(tmp_path, interval):
        scheduler = GpuMemoryScheduler(TOTAL, make_policy("FIFO"), context_overhead=0)
        return SchedulerDaemon(
            scheduler,
            base_dir=str(tmp_path / "base"),
            reap_interval=999.0,
            flight_dump=str(tmp_path / "flight.jsonl"),
            watchdog_interval=interval,
        )

    def test_a_wedged_handler_is_dumped_as_a_stall(self, tmp_path):
        """Every handler runs on the one dispatch thread while the selector
        keeps ticking: the stall is the turn's."""
        dump = tmp_path / "flight.jsonl"
        daemon = self.make(tmp_path, 1.2).start()
        try:
            with UnixSocketClient(daemon.control_path) as control:
                control.call(
                    protocol.MSG_REGISTER_CONTAINER, container_id="c", limit=TOTAL
                )
            answer = daemon.scheduler.mem_get_info

            def wedged(*args):
                # Hold the dispatch thread until the dump appears (or 10 s).
                deadline = time.monotonic() + 10.0
                while not dump.exists() and time.monotonic() < deadline:
                    time.sleep(0.05)
                return answer(*args)

            daemon.scheduler.mem_get_info = wedged
            with UnixSocketClient(daemon.container_socket_path("c")) as client:
                client.call(protocol.MSG_MEM_GET_INFO, container_id="c", pid=1)
        finally:
            daemon.stop()
        assert dump.exists(), "no stall dump for a wedged handler"
        meta = json.loads(dump.read_text().splitlines()[0])
        assert meta["reason"] == "watchdog-stall"

    @pytest.mark.parametrize("interval", (0.5, SELECT_TIMEOUT_S, 1.5))
    def test_an_idle_daemon_is_no_stall(self, tmp_path, interval):
        """Whatever interval the daemon accepts, an idle loop dumps nothing:
        an idle selector ticks once per select timeout."""
        try:
            daemon = self.make(tmp_path, interval)
        except SchedulerError as exc:
            assert interval <= SELECT_TIMEOUT_S
            assert "select timeout" in str(exc)
            return
        daemon.start()
        try:
            time.sleep(2.0)
        finally:
            daemon.stop()
        assert not (tmp_path / "flight.jsonl").exists()
