"""The ConVGPU wire protocol: JSON messages over UNIX domain sockets.

§III: "These components (including NVIDIA Docker) are connected and
communicating using UNIX Domain Socket (UNIX socket) with JSON (JavaScript
Object Notation) format."  This module defines the message vocabulary and
validation; transports live in :mod:`repro.ipc.unix_socket` (real sockets)
and :mod:`repro.ipc.channel` (in-process).

Message flows, matching §III-B/C/D:

======================  =======================================  =============================
type                    sender → receiver                         purpose
======================  =======================================  =============================
``register_container``  nvidia-docker → scheduler                 declare limit before create;
                                                                  reply carries the per-container
                                                                  socket directory path
``container_exit``      nvidia-docker-plugin → scheduler          dummy-volume unmount detected
``alloc_request``       wrapper → scheduler                       size check before real malloc;
                                                                  **reply may be withheld: pause**
``alloc_commit``        wrapper → scheduler                       address+pid+size after malloc
``alloc_release``       wrapper → scheduler                       address on cudaFree
``mem_get_info``        wrapper → scheduler                       container-view free/total
``process_exit``        wrapper → scheduler                       __cudaUnregisterFatBinary
======================  =======================================  =============================

Every request carries ``seq`` (per-connection monotonic) echoed in the
reply, so a transport can correlate deferred replies with requests.

A field a message type does not declare is ignored on both codecs (the
binary one carries it in the extension section).  That includes the
``trace_id``/``span_id`` fields older wrappers sent, whatever their value.

Two codecs carry the same message vocabulary (see ``docs/PROTOCOL.md``):

- **json** — one compact JSON object per ``\\n``-terminated line; the
  paper's format, the fallback for old peers, and the trace-friendly
  debug mode;
- **binary** — a versioned, length-prefixed frame (magic, version, flags,
  msg-type tag, payload length) whose tag and field tables are *derived*
  from ``REQUEST_FIELDS`` at import time, so the schema module stays the
  single source of truth and reprolint's ``protocol-drift`` coverage
  extends to the binary layer by construction.

Codec choice is negotiated per connection with the ``hello`` handshake
(always exchanged as JSON); both sides must treat JSON as the floor.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Mapping

from repro.errors import ProtocolError

__all__ = [
    "MSG_REGISTER_CONTAINER",
    "MSG_CONTAINER_EXIT",
    "MSG_ALLOC_REQUEST",
    "MSG_ALLOC_COMMIT",
    "MSG_ALLOC_ABORT",
    "MSG_ALLOC_RELEASE",
    "MSG_MEM_GET_INFO",
    "MSG_PROCESS_EXIT",
    "MSG_HEARTBEAT",
    "MSG_HELLO",
    "MAX_FRAME_BYTES",
    "REQUEST_FIELDS",
    "NOTIFICATION_TYPES",
    "CODEC_JSON",
    "CODEC_BINARY",
    "SUPPORTED_CODECS",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "HEADER_SIZE",
    "MESSAGE_TAGS",
    "TAG_MESSAGES",
    "BINARY_FIELDS",
    "make_request",
    "make_reply",
    "make_error_reply",
    "validate_request",
    "encode",
    "decode",
    "encode_binary",
    "decode_binary",
    "encode_as",
    "decode_any",
    "split_frames",
    "negotiate_codec",
]

MSG_REGISTER_CONTAINER = "register_container"
MSG_CONTAINER_EXIT = "container_exit"
MSG_ALLOC_REQUEST = "alloc_request"
MSG_ALLOC_COMMIT = "alloc_commit"
MSG_ALLOC_ABORT = "alloc_abort"
MSG_ALLOC_RELEASE = "alloc_release"
MSG_MEM_GET_INFO = "mem_get_info"
MSG_PROCESS_EXIT = "process_exit"
MSG_HEARTBEAT = "heartbeat"
#: Connection handshake: the client offers its codec preference list and
#: the server's reply names the codec both sides will use from then on.
#: Handled entirely at the transport layer — it never reaches the
#: scheduler service.  Always exchanged as JSON, in both directions.
MSG_HELLO = "hello"

#: Hard cap on one encoded frame.  Real ConVGPU messages are well under a
#: kilobyte; anything larger is a protocol violation or an attack, and a
#: server must reject it instead of buffering without bound.
MAX_FRAME_BYTES = 64 * 1024

#: Message types that are fire-and-forget notifications: the sender does
#: not wait and the server sends no reply.  Keeping bookkeeping traffic
#: one-way is what keeps cudaFree at native speed under ConVGPU (Fig. 4).
NOTIFICATION_TYPES: frozenset[str] = frozenset(
    {MSG_ALLOC_COMMIT, MSG_ALLOC_ABORT, MSG_ALLOC_RELEASE, MSG_PROCESS_EXIT,
     MSG_HEARTBEAT}
)

#: Required payload fields (and their types) per request type.
REQUEST_FIELDS: dict[str, dict[str, type]] = {
    MSG_REGISTER_CONTAINER: {"container_id": str, "limit": int},
    MSG_HEARTBEAT: {"container_id": str},
    MSG_CONTAINER_EXIT: {"container_id": str},
    MSG_ALLOC_REQUEST: {"container_id": str, "pid": int, "size": int, "api": str},
    MSG_ALLOC_COMMIT: {"container_id": str, "pid": int, "address": int, "size": int},
    MSG_ALLOC_ABORT: {"container_id": str, "pid": int, "size": int},
    MSG_ALLOC_RELEASE: {"container_id": str, "pid": int, "address": int},
    MSG_MEM_GET_INFO: {"container_id": str, "pid": int},
    MSG_PROCESS_EXIT: {"container_id": str, "pid": int},
    MSG_HELLO: {"codecs": list},
}

# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

#: The paper's newline-delimited JSON; the compatibility floor every peer
#: must speak, and the trace-friendly debug mode (``--codec=json``).
CODEC_JSON = "json"
#: The versioned, length-prefixed struct-packed codec (the fast path).
CODEC_BINARY = "binary"
#: What this implementation can speak, in preference order.
SUPPORTED_CODECS: tuple[str, ...] = (CODEC_BINARY, CODEC_JSON)

#: First bytes of every binary frame.  JSON frames always start with
#: ``{`` so the two codecs are distinguishable per frame on one stream,
#: which is what lets a JSON-only legacy peer skip the handshake entirely.
WIRE_MAGIC = b"CVGP"
#: Bumped whenever the header layout, the tag assignment rule, or any
#: per-type field table changes shape.  A receiver rejects frames from a
#: different version with a typed error; the sender falls back to JSON.
WIRE_VERSION = 1
#: Header: magic (4s) | version (B) | flags (B) | msg-type tag (H) |
#: payload length (I).  Network byte order throughout.
_HEADER = struct.Struct("!4sBBHI")
HEADER_SIZE = _HEADER.size

#: Header flag marking a reply frame (payload: seq + status + extensions).
_FLAG_REPLY = 0x01

#: Tag tables *generated* from the schema above — never hand-written, so
#: adding a message type to REQUEST_FIELDS extends the binary codec and
#: the ``protocol-drift`` lint coverage in one edit.  Tags are assigned
#: by sorted type name starting at 1; tag 0 is reserved for replies whose
#: request could not be decoded (``unknown_reply``).  The assignment is
#: part of the wire contract: reordering requires a WIRE_VERSION bump.
MESSAGE_TAGS: dict[str, int] = {
    name: index + 1 for index, name in enumerate(sorted(REQUEST_FIELDS))
}
TAG_MESSAGES: dict[int, str] = {tag: name for name, tag in MESSAGE_TAGS.items()}

#: Per-type field layout for the binary codec, derived from the schema in
#: declaration order: ints are packed as u64, strings as u32-length-prefixed
#: UTF-8, lists as u16-counted strings.  Anything beyond the declared
#: fields (unknown fields from newer or older peers) rides in the
#: tagged extension section, preserving the unknown-fields-are-ignored
#: versioning rule across both codecs.
BINARY_FIELDS: dict[str, tuple[tuple[str, type], ...]] = {
    name: tuple(fields.items()) for name, fields in REQUEST_FIELDS.items()
}

_U64 = struct.Struct("!Q")
_U32 = struct.Struct("!I")
_U16 = struct.Struct("!H")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

#: An empty extension section (count = 0) — the common case for requests.
_NO_EXTENSIONS = _U16.pack(0)

# Extension-value type tags (one byte each, before the value bytes).
_EXT_STR = 0     # u32 length + UTF-8
_EXT_INT = 1     # i64
_EXT_FLOAT = 2   # f64 (non-finite rejected, matching JSON's allow_nan=False)
_EXT_TRUE = 3    # no value bytes
_EXT_FALSE = 4   # no value bytes
_EXT_NULL = 5    # no value bytes
_EXT_JSON = 6    # u32 length + UTF-8 JSON (lists, dicts, big ints)


def make_request(msg_type: str, seq: int = 0, **payload: Any) -> dict[str, Any]:
    """Build and validate a request message."""
    message = {"type": msg_type, "seq": seq, **payload}
    validate_request(message)
    return message


def make_reply(request: Mapping[str, Any], **payload: Any) -> dict[str, Any]:
    """Build a success reply echoing the request's seq."""
    return {"type": f"{request['type']}_reply", "seq": request.get("seq", 0),
            "status": "ok", **payload}


def make_error_reply(request: Mapping[str, Any], error: str) -> dict[str, Any]:
    """Build an error reply."""
    return {"type": f"{request.get('type', 'unknown')}_reply",
            "seq": request.get("seq", 0), "status": "error", "error": error}


def validate_request(message: Mapping[str, Any]) -> None:
    """Check a decoded request against the schema.

    Raises:
        ProtocolError: on missing type, unknown type, missing/ill-typed
            fields, or negative sizes/addresses.
    """
    msg_type = message.get("type")
    if not isinstance(msg_type, str):
        raise ProtocolError(f"message has no string 'type': {message!r}")
    fields = REQUEST_FIELDS.get(msg_type)
    if fields is None:
        raise ProtocolError(f"unknown message type {msg_type!r}")
    seq = message.get("seq", 0)
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ProtocolError(f"bad seq in {msg_type}: {seq!r}")
    for name, expected in fields.items():
        if name not in message:
            raise ProtocolError(f"{msg_type} missing field {name!r}")
        value = message[name]
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ProtocolError(
                f"{msg_type}.{name} must be {expected.__name__}, got {value!r}"
            )
        if expected is int and name in ("limit", "size", "address", "pid") and value < 0:
            raise ProtocolError(f"{msg_type}.{name} must be >= 0, got {value}")
        if expected is list and not all(isinstance(item, str) for item in value):
            raise ProtocolError(f"{msg_type}.{name} must be a list of str")


def encode(message: Mapping[str, Any]) -> bytes:
    """Serialize one message as a newline-terminated JSON frame."""
    try:
        text = json.dumps(message, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message: {exc}") from exc
    if "\n" in text:
        raise ProtocolError("encoded message contains a newline")
    frame = text.encode("utf-8") + b"\n"
    if len(frame) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return frame


def decode(frame: bytes) -> dict[str, Any]:
    """Parse one newline-terminated JSON frame."""
    if len(frame) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    try:
        message = json.loads(frame.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame is not a JSON object: {message!r}")
    return message


# ---------------------------------------------------------------------------
# binary codec
# ---------------------------------------------------------------------------


def _encode_extensions(items: list[tuple[str, Any]]) -> list[bytes]:
    """Encode the tagged extension section (sorted for determinism)."""
    parts = [_U16.pack(len(items))]
    for key, value in items:
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > 0xFFFF:
            raise ProtocolError(f"extension key too long: {key[:32]!r}…")
        parts.append(_U16.pack(len(key_bytes)))
        parts.append(key_bytes)
        if value is True:
            parts.append(b"\x03")  # _EXT_TRUE
        elif value is False:
            parts.append(b"\x04")  # _EXT_FALSE
        elif value is None:
            parts.append(b"\x05")  # _EXT_NULL
        elif isinstance(value, str):
            data = value.encode("utf-8")
            parts.append(b"\x00" + _U32.pack(len(data)))  # _EXT_STR
            parts.append(data)
        elif isinstance(value, int):
            if -(2**63) <= value < 2**63:
                parts.append(b"\x01" + _I64.pack(value))  # _EXT_INT
            else:
                data = json.dumps(value).encode("utf-8")
                parts.append(b"\x06" + _U32.pack(len(data)))  # _EXT_JSON
                parts.append(data)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise ProtocolError(f"unserializable message: non-finite {key}")
            parts.append(b"\x02" + _F64.pack(value))  # _EXT_FLOAT
        else:
            try:
                data = json.dumps(
                    value, separators=(",", ":"), allow_nan=False
                ).encode("utf-8")
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"unserializable message: {exc}") from exc
            parts.append(b"\x06" + _U32.pack(len(data)))  # _EXT_JSON
            parts.append(data)
    return parts


def _require_seq(message: Mapping[str, Any]) -> int:
    seq = message.get("seq", 0)
    if not isinstance(seq, int) or isinstance(seq, bool) or not 0 <= seq < 2**64:
        raise ProtocolError(f"bad seq: {seq!r}")
    return seq


def encode_binary(message: Mapping[str, Any]) -> bytes:
    """Serialize one message as a length-prefixed binary frame."""
    msg_type = message.get("type")
    if not isinstance(msg_type, str):
        raise ProtocolError(f"message has no string 'type': {message!r}")
    if msg_type.endswith("_reply"):
        return _encode_binary_reply(message, msg_type)
    tag = MESSAGE_TAGS.get(msg_type)
    if tag is None:
        raise ProtocolError(f"unknown message type {msg_type!r}")
    parts = [_U64.pack(_require_seq(message))]
    layout = BINARY_FIELDS[msg_type]
    declared = REQUEST_FIELDS[msg_type]
    for name, expected in layout:
        if name not in message:
            raise ProtocolError(f"{msg_type} missing field {name!r}")
        value = message[name]
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ProtocolError(
                f"{msg_type}.{name} must be {expected.__name__}, got {value!r}"
            )
        if expected is int:
            if not 0 <= value < 2**64:
                raise ProtocolError(f"{msg_type}.{name} out of u64 range: {value}")
            parts.append(_U64.pack(value))
        elif expected is str:
            data = value.encode("utf-8")
            parts.append(_U32.pack(len(data)))
            parts.append(data)
        else:  # list of str
            if not all(isinstance(item, str) for item in value):
                raise ProtocolError(f"{msg_type}.{name} must be a list of str")
            parts.append(_U16.pack(len(value)))
            for item in value:
                data = item.encode("utf-8")
                parts.append(_U32.pack(len(data)))
                parts.append(data)
    if len(message) == 2 + len(layout) and "seq" in message:
        # The loop above proved every declared field (plus "type") is
        # present, so an exact key count means there is nothing else.
        parts.append(_NO_EXTENSIONS)
    else:
        extras = sorted(
            (key, value)
            for key, value in message.items()
            if key not in declared and key not in ("type", "seq")
        )
        parts.extend(_encode_extensions(extras))
    return _pack_frame(tag, 0, parts)


def _encode_binary_reply(message: Mapping[str, Any], msg_type: str) -> bytes:
    base = msg_type[: -len("_reply")]
    tag = MESSAGE_TAGS.get(base, 0)
    if tag == 0 and base != "unknown":
        raise ProtocolError(f"unknown message type {msg_type!r}")
    status = message.get("status")
    if status == "ok":
        status_byte = b"\x00"
    elif status == "error":
        status_byte = b"\x01"
    else:
        raise ProtocolError(f"reply has no valid status: {status!r}")
    parts = [_U64.pack(_require_seq(message)), status_byte]
    extras = sorted(
        (key, value)
        for key, value in message.items()
        if key not in ("type", "seq", "status")
    )
    parts.extend(_encode_extensions(extras))
    return _pack_frame(tag, _FLAG_REPLY, parts)


def _pack_frame(tag: int, flags: int, parts: list[bytes]) -> bytes:
    payload = b"".join(parts)
    frame = _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, flags, tag, len(payload)) + payload
    if len(frame) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return frame


# Decoding works on an inline (buffer, cursor) pair rather than a reader
# object: the per-field bounds check plus ``unpack_from`` compiles to a
# handful of bytecodes, which matters because decode sits on the hot path
# of every batched frame the servers and clients process.


def _decode_text(data: bytes, pos: int, end: int) -> tuple[str, int]:
    """Decode one u32-length-prefixed UTF-8 string; returns (value, cursor)."""
    if pos + 4 > end:
        raise ProtocolError("truncated binary payload")
    length = _U32.unpack_from(data, pos)[0]
    pos += 4
    if pos + length > end:
        raise ProtocolError("truncated binary payload")
    try:
        value = data[pos:pos + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad UTF-8 in binary frame: {exc}") from exc
    return value, pos + length


def _decode_extensions(
    data: bytes, pos: int, end: int, message: dict[str, Any]
) -> int:
    """Decode the tagged extension section; returns the new cursor."""
    if pos + 2 > end:
        raise ProtocolError("truncated binary payload")
    count = _U16.unpack_from(data, pos)[0]
    pos += 2
    for _ in range(count):
        if pos + 2 > end:
            raise ProtocolError("truncated binary payload")
        key_length = _U16.unpack_from(data, pos)[0]
        pos += 2
        if pos + key_length + 1 > end:
            raise ProtocolError("truncated binary payload")
        try:
            key = data[pos:pos + key_length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad UTF-8 in binary frame: {exc}") from exc
        pos += key_length
        kind = data[pos]
        pos += 1
        if kind == _EXT_STR:
            message[key], pos = _decode_text(data, pos, end)
        elif kind == _EXT_INT:
            if pos + 8 > end:
                raise ProtocolError("truncated binary payload")
            message[key] = _I64.unpack_from(data, pos)[0]
            pos += 8
        elif kind == _EXT_FLOAT:
            if pos + 8 > end:
                raise ProtocolError("truncated binary payload")
            message[key] = _F64.unpack_from(data, pos)[0]
            pos += 8
        elif kind == _EXT_TRUE:
            message[key] = True
        elif kind == _EXT_FALSE:
            message[key] = False
        elif kind == _EXT_NULL:
            message[key] = None
        elif kind == _EXT_JSON:
            if pos + 4 > end:
                raise ProtocolError("truncated binary payload")
            length = _U32.unpack_from(data, pos)[0]
            pos += 4
            if pos + length > end:
                raise ProtocolError("truncated binary payload")
            try:
                message[key] = json.loads(data[pos:pos + length].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"bad JSON extension value: {exc}") from exc
            pos += length
        else:
            raise ProtocolError(f"unknown extension value tag {kind}")
    return pos


def decode_binary(frame: bytes) -> dict[str, Any]:
    """Parse one complete binary frame (header included)."""
    end = len(frame)
    if end < HEADER_SIZE:
        raise ProtocolError(
            f"truncated binary header: {end} < {HEADER_SIZE} bytes"
        )
    magic, version, flags, tag, length = _HEADER.unpack_from(frame)
    if magic != WIRE_MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {WIRE_MAGIC!r})")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {version} (this peer speaks {WIRE_VERSION})"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"binary frame declares {length} bytes, exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    if end != HEADER_SIZE + length:
        raise ProtocolError(
            f"binary frame length mismatch: header declares {length}, "
            f"got {end - HEADER_SIZE} payload bytes"
        )
    pos = HEADER_SIZE
    if flags & _FLAG_REPLY:
        if pos + 9 > end:
            raise ProtocolError("truncated binary payload")
        base = TAG_MESSAGES.get(tag, "unknown") if tag else "unknown"
        message: dict[str, Any] = {
            "type": base + "_reply",
            "seq": _U64.unpack_from(frame, pos)[0],
        }
        status = frame[pos + 8]
        pos += 9
        if status == 0:
            message["status"] = "ok"
        elif status == 1:
            message["status"] = "error"
        else:
            raise ProtocolError(f"unknown reply status byte {status}")
        pos = _decode_extensions(frame, pos, end, message)
    else:
        msg_type = TAG_MESSAGES.get(tag)
        if msg_type is None:
            raise ProtocolError(f"unknown message tag {tag}")
        if pos + 8 > end:
            raise ProtocolError("truncated binary payload")
        message = {"type": msg_type, "seq": _U64.unpack_from(frame, pos)[0]}
        pos += 8
        for name, expected in BINARY_FIELDS[msg_type]:
            if expected is int:
                if pos + 8 > end:
                    raise ProtocolError("truncated binary payload")
                message[name] = _U64.unpack_from(frame, pos)[0]
                pos += 8
            elif expected is str:
                message[name], pos = _decode_text(frame, pos, end)
            else:  # list of str
                if pos + 2 > end:
                    raise ProtocolError("truncated binary payload")
                count = _U16.unpack_from(frame, pos)[0]
                pos += 2
                items = []
                for _ in range(count):
                    item, pos = _decode_text(frame, pos, end)
                    items.append(item)
                message[name] = items
        pos = _decode_extensions(frame, pos, end, message)
    if pos != end:
        raise ProtocolError(f"{end - pos} trailing bytes in binary frame")
    return message


# ---------------------------------------------------------------------------
# codec-agnostic helpers (what the transports call)
# ---------------------------------------------------------------------------


def encode_as(message: Mapping[str, Any], codec: str) -> bytes:
    """Serialize under the named codec."""
    if codec == CODEC_BINARY:
        return encode_binary(message)
    if codec == CODEC_JSON:
        return encode(message)
    raise ProtocolError(f"unknown codec {codec!r}")


def decode_any(frame: bytes) -> dict[str, Any]:
    """Parse one frame of either codec, sniffed by the magic prefix."""
    if frame[:4] == WIRE_MAGIC:
        return decode_binary(frame)
    return decode(frame)


def split_frames(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Split every complete frame (either codec) off the front of ``buffer``.

    Returns ``(frames, rest)`` where each frame is complete and
    self-describing for :func:`decode_any`.  Raises :class:`ProtocolError`
    only for *unrecoverable* binary framing errors — a version skew or a
    declared length over the cap leaves the stream position meaningless,
    so the connection must be torn down; JSON-side garbage stays a
    per-frame decode error, handled in-band.
    """
    frames: list[bytes] = []
    while buffer:
        head = buffer[:4]
        if head == WIRE_MAGIC:
            if len(buffer) < HEADER_SIZE:
                break  # incomplete header: wait for more bytes
            version = buffer[4]
            if version != WIRE_VERSION:
                raise ProtocolError(
                    f"unsupported wire version {version} "
                    f"(this peer speaks {WIRE_VERSION})"
                )
            length = _U32.unpack_from(buffer, 8)[0]
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"binary frame declares {length} bytes, exceeds "
                    f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
                )
            end = HEADER_SIZE + length
            if len(buffer) < end:
                break  # incomplete payload
            frames.append(buffer[:end])
            buffer = buffer[end:]
            continue
        if len(head) < 4 and WIRE_MAGIC.startswith(head):
            break  # could become a magic prefix: wait for more bytes
        newline = buffer.find(b"\n")
        if newline < 0:
            break  # incomplete JSON line
        frames.append(buffer[: newline + 1])
        buffer = buffer[newline + 1:]
    return frames, buffer


def negotiate_codec(
    offered: list[str] | tuple[str, ...],
    supported: tuple[str, ...] = SUPPORTED_CODECS,
) -> str:
    """Pick the first client-preferred codec this side supports.

    JSON is the protocol floor: when nothing matches (an empty offer, or
    codecs from a future version) both sides converge on JSON rather than
    failing the connection — the downgrade rule in ``docs/PROTOCOL.md``.
    """
    for codec in offered:
        if codec in supported and codec in SUPPORTED_CODECS:
            return codec
    return CODEC_JSON
