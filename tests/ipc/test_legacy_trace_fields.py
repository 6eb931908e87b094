"""Older wrappers stamped ``trace_id``/``span_id`` on every request.

They are ordinary unknown fields now (docs/PROTOCOL.md "Legacy trace
fields"): a daemon serves a request that carries them, whatever their
value, exactly as it serves the same request without them, on both codecs.
"""

import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.policies import make_policy
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.units import GiB, MiB

pytestmark = pytest.mark.integration

LEGACY = (
    {"trace_id": "aaaa0001", "span_id": "bbbb0001"},
    {"trace_id": 123, "span_id": 5.5},
    {"trace_id": None, "span_id": ["x"]},
)


def _conversation(daemon, codec: str, extra: dict) -> tuple[str, list[dict]]:
    """One container's life, every request carrying ``extra``: the
    negotiated codec and the replies, without their ``seq``."""
    with UnixSocketClient(daemon.control_path, codec=codec) as control:
        replies = [control.call(
            "register_container", container_id="c1", limit=512 * MiB, **extra
        )]
        with UnixSocketClient(daemon.container_socket_path("c1"), codec=codec) as client:
            negotiated = client.codec
            replies.append(client.call(
                "alloc_request", container_id="c1", pid=1, size=64 * MiB,
                api="cudaMalloc", **extra,
            ))
            client.notify(
                "alloc_commit", container_id="c1", pid=1, address=0x1000,
                size=64 * MiB, **extra,
            )
            replies.append(client.call("mem_get_info", container_id="c1", pid=1, **extra))
        replies.append(control.call("container_exit", container_id="c1", **extra))
    return negotiated, [{k: v for k, v in r.items() if k != "seq"} for r in replies]


@pytest.mark.parametrize("codec", [protocol.CODEC_JSON, "auto"])
def test_legacy_fields_get_the_same_replies(codec):
    daemon = SchedulerDaemon(GpuMemoryScheduler(1 * GiB, make_policy("FIFO"))).start()
    try:
        negotiated, plain = _conversation(daemon, codec, {})
        assert negotiated == (protocol.CODEC_JSON if codec == protocol.CODEC_JSON
                              else protocol.CODEC_BINARY)
        # The commit landed: mem_get_info sees the grant plus the context charge.
        assert plain[1]["decision"] == "grant"
        assert plain[2]["free"] < 512 * MiB - 64 * MiB
        for extra in LEGACY:
            assert _conversation(daemon, codec, extra) == (negotiated, plain), extra
    finally:
        daemon.stop()

