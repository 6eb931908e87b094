"""Tests for live-mode experiments (real sockets) and the hybrid clock."""

import socket
import statistics
import threading
import time

import pytest

from repro.errors import SimulationError
from repro.experiments.live import HybridClock
from repro.experiments.single import api_response_experiment, creation_time_experiment


class TestHybridClock:
    def test_tracks_wall_clock(self):
        clock = HybridClock()
        t1 = clock.now()
        time.sleep(0.01)
        assert clock.now() - t1 >= 0.009

    def test_advance_adds_virtual_time(self):
        clock = HybridClock()
        t1 = clock.now()
        clock.advance(100.0)
        assert clock.now() - t1 >= 100.0

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            HybridClock().advance(-1.0)

    def test_callable_protocol(self):
        clock = HybridClock()
        assert clock() == pytest.approx(clock.now(), abs=0.01)


def _echo_round_trip(samples: int = 50) -> float:
    """Mean bare AF_UNIX echo round trip (seconds) on this host, right now.

    Each round trip starts from idle on both sides, so it pays the thread
    wake-ups a daemon round trip pays — the cost that swings between host
    phases — and nothing of the middleware.
    """
    near, far = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)

    def echo():
        while data := far.recv(4096):
            far.sendall(data)

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    total = 0.0
    try:
        for _ in range(samples):
            time.sleep(0.0005)
            began = time.perf_counter()
            near.sendall(b"x" * 64)
            near.recv(4096)
            total += time.perf_counter() - began
    finally:
        near.close()
        thread.join(timeout=2.0)
        far.close()
    return total / samples


#: A daemon round trip (client -> selector -> worker -> reply, JSON both
#: ways) measures 4-20x the bare echo on an idle host; an absolute cap
#: failed on slow host phases, a multiple of the echo follows them.
MAX_ECHO_MULTIPLE = 100


#: Live Fig. 4 runs, one sample of each API apiece, each preceded (and the
#: last followed) by a bare echo sample: a burst of CPU contention lands on
#: both sides of the comparison, and the medians leave it out.
LIVE_RUNS = 5


@pytest.mark.integration
class TestLiveFig4:
    @pytest.fixture(scope="class")
    def live_fig4(self):
        """(live Fig. 4 results, bare echo round trips interleaved with them)."""
        echoes = [_echo_round_trip()]
        results = []
        for _ in range(LIVE_RUNS):
            results.append(api_response_experiment(repeats=1, mode="live"))
            echoes.append(_echo_round_trip())
        return results, statistics.median(echoes)

    def test_alloc_overhead_is_real_socket_cost(self, live_fig4):
        """With-minus-without cudaMalloc == one real round-trip + sends."""
        results, echo = live_fig4
        overhead = statistics.median(r.overhead("cudaMalloc") for r in results)
        # A genuine AF_UNIX round-trip: never under 10 us, and within a
        # fixed multiple of what a bare echo costs on this host right now.
        assert 10e-6 < overhead < MAX_ECHO_MULTIPLE * echo

    def test_qualitative_shape_holds_live(self, live_fig4):
        results, _echo = live_fig4
        overhead = {
            api: statistics.median(r.overhead(api) for r in results)
            for api in ("cudaMalloc", "cudaFree")
        }
        assert overhead["cudaMalloc"] > 0
        # cudaFree adds only a send (no reply wait): much cheaper than the
        # blocking alloc overhead.
        assert overhead["cudaFree"] < overhead["cudaMalloc"]

    def test_mem_get_info_live(self, live_fig4):
        # Live mode: one measured round-trip vs the modelled native query;
        # the with-ConVGPU path must at least stay in the same magnitude.
        results, echo = live_fig4
        mem_get_info = statistics.median(r.with_convgpu["cudaMemGetInfo"] for r in results)
        assert mem_get_info < MAX_ECHO_MULTIPLE * echo


@pytest.mark.integration
class TestLiveFig5:
    def test_live_creation_overhead_positive(self):
        result = creation_time_experiment(repeats=3, mode="live")
        assert result.overhead > 0
        # Real handshake cost is tiny here (sub-ms) compared to the
        # modelled docker work, so the percentage is small but positive.
        assert 0 < result.overhead_percent < 30
