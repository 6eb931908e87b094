"""Direct timings of single layers on their public functions, with the
frames the live workloads put on the wire (one decision = alloc_request +
alloc_commit + alloc_release in, one grant reply out)."""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from _common import MiB, median

from repro.ipc import protocol
from repro.ipc.loop import IoLoop
from repro.ipc.unix_socket import UnixSocketClient, UnixSocketServer

CODECS = (protocol.CODEC_BINARY, protocol.CODEC_JSON)


def decision_frames(container_id: str = "c0", pid: int = 4242) -> list[dict[str, Any]]:
    common = {"container_id": container_id, "pid": pid}
    return [
        {"type": protocol.MSG_ALLOC_REQUEST, "seq": 7, **common,
         "size": 3 * MiB + 17, "api": "cudaMalloc"},
        {"type": protocol.MSG_ALLOC_COMMIT, "seq": 8, **common,
         "address": 0x7F00_0000_1000, "size": 3 * MiB + 17},
        {"type": protocol.MSG_ALLOC_RELEASE, "seq": 9, **common,
         "address": 0x7F00_0000_1000},
    ]


def _ns_per_call(fn: Callable[[], Any], *, rounds: int = 7, calls: int = 2000) -> float:
    """Median over ``rounds`` of the mean ns of ``calls`` back-to-back calls."""
    samples = []
    for _ in range(rounds):
        began = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - began) / calls * 1e9)
    return median(samples)


def protocol_micro() -> dict[str, float]:
    """Encode/decode cost and frame size per codec, frame splitting cost."""
    request = decision_frames()[0]
    reply = protocol.make_reply(request, decision="grant")
    out: dict[str, float] = {}
    for codec in CODECS:
        request_frame = protocol.encode_as(request, codec)
        reply_frame = protocol.encode_as(reply, codec)
        out[f"protocol.encode_request_ns.{codec}"] = _ns_per_call(
            lambda: protocol.encode_as(request, codec))
        out[f"protocol.decode_request_ns.{codec}"] = _ns_per_call(
            lambda: protocol.decode_any(request_frame))
        out[f"protocol.encode_reply_ns.{codec}"] = _ns_per_call(
            lambda: protocol.encode_as(reply, codec))
        out[f"protocol.decode_reply_ns.{codec}"] = _ns_per_call(
            lambda: protocol.decode_any(reply_frame))
        out[f"protocol.request_bytes.{codec}"] = float(len(request_frame))
        out[f"protocol.reply_bytes.{codec}"] = float(len(reply_frame))
    window = b"".join(
        protocol.encode_as(frame, protocol.CODEC_BINARY)
        for _ in range(32)
        for frame in decision_frames()
    )
    out["protocol.split_frames_ns_per_frame"] = (
        _ns_per_call(lambda: protocol.split_frames(window), calls=200) / 96
    )
    return out


def bare_round_trip_us(work_dir: str, calls: int = 3000) -> float:
    """Median blocking round trip against a handler that does nothing:
    the socket, the selector loop and the codec, no scheduler."""

    def handler(message, reply_handle):
        return protocol.make_reply(message, free=0, total=0)

    path = os.path.join(work_dir, "bare.sock")
    loop = IoLoop().start()
    server = UnixSocketServer(path, handler, loop=loop)
    server.start()
    try:
        with UnixSocketClient(path, timeout=10.0) as client:
            samples = []
            for index in range(calls + 200):
                began = time.perf_counter()
                client.call(protocol.MSG_MEM_GET_INFO, container_id="c0", pid=1)
                if index >= 200:
                    samples.append(time.perf_counter() - began)
    finally:
        server.stop()
        loop.stop()
    return median(samples) * 1e6
