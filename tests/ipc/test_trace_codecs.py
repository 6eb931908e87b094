"""Cross-codec trace context: identical span trees under json and binary.

The trace satellite of the binary wire codec: ``trace_id``/``span_id``
ride the binary frames as typed extension TLVs, so a daemon serving a
binary-negotiated wrapper must produce exactly the span tree a JSON
wrapper produces — same span names, same trace ids, same wire-parent
edges (docs/PROTOCOL.md).
"""

import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.policies import make_policy
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.obs.trace import Tracer
from repro.units import GiB, MiB

pytestmark = pytest.mark.integration

#: (trace_id, span_id) pairs the "wrapper" sends per call — fixed, so the
#: two codec runs are comparable span for span.
_CALLS = (
    ("alloc_request", "aaaa0001", "bbbb0001"),
    ("alloc_commit", "aaaa0002", "bbbb0002"),
    ("mem_get_info", "aaaa0003", "bbbb0003"),
)


def _run_workload(codec: str) -> tuple[str, list]:
    """Drive a fixed traced workload with client ``codec``; returns spans."""
    tracer = Tracer()
    scheduler = GpuMemoryScheduler(1 * GiB, make_policy("FIFO"))
    daemon = SchedulerDaemon(scheduler, tracer=tracer).start()
    try:
        control = UnixSocketClient(daemon.control_path, codec=codec)
        try:
            control.call(
                "register_container", container_id="c1", limit=512 * MiB,
                trace_id="aaaa0000", span_id="bbbb0000",
            )
        finally:
            control.close()
        client = UnixSocketClient(
            daemon.container_socket_path("c1"), codec=codec
        )
        negotiated = client.codec
        try:
            reply = client.call(
                "alloc_request", container_id="c1", pid=1, size=64 * MiB,
                api="cudaMalloc", request_id="r1",
                trace_id=_CALLS[0][1], span_id=_CALLS[0][2],
            )
            assert reply["decision"] == "grant"
            # Commit is a one-way notification (no reply to wait for),
            # but it still carries trace context on the wire.
            client.notify(
                "alloc_commit", container_id="c1", pid=1,
                address=0x1000, size=64 * MiB,
                trace_id=_CALLS[1][1], span_id=_CALLS[1][2],
            )
            client.call(
                "mem_get_info", container_id="c1", pid=1,
                trace_id=_CALLS[2][1], span_id=_CALLS[2][2],
            )
        finally:
            client.close()
    finally:
        daemon.stop()
    return negotiated, tracer.finished()


def _span_tree(spans) -> set:
    """The codec-independent shape: (name, trace_id, wire parent)."""
    return {(s.name, s.context.trace_id, s.parent_id) for s in spans}


class TestCrossCodecSpanTree:
    def test_binary_and_json_produce_identical_span_trees(self):
        json_codec, json_spans = _run_workload(protocol.CODEC_JSON)
        binary_codec, binary_spans = _run_workload("auto")
        # The runs really took different wires.
        assert json_codec == protocol.CODEC_JSON
        assert binary_codec == protocol.CODEC_BINARY
        assert _span_tree(json_spans) == _span_tree(binary_spans)
        assert len(json_spans) == len(binary_spans)

    def test_spans_parent_on_the_wire_context(self):
        _, spans = _run_workload("auto")
        by_trace = {s.context.trace_id: s for s in spans}
        for _msg, trace_id, span_id in _CALLS:
            span = by_trace[trace_id]
            # Parented on the span id the client injected into the frame.
            assert span.parent_id == span_id

    def test_binary_frames_carry_trace_tlvs_verbatim(self):
        message = protocol.make_request(
            "mem_get_info", seq=1, container_id="c1", pid=1,
            trace_id="aaaa0002", span_id="bbbb0002",
        )
        decoded = protocol.decode_binary(protocol.encode_binary(message))
        assert decoded["trace_id"] == "aaaa0002"
        assert decoded["span_id"] == "bbbb0002"
