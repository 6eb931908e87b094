"""Fuzz and round-trip tests for the wire protocol (`repro.ipc.protocol`).

The contract under fuzz: *any* byte sequence fed to ``decode`` / any
message fed to ``validate_request`` either succeeds or raises a typed
:class:`~repro.errors.ProtocolError` — never a bare ``KeyError`` /
``UnicodeDecodeError`` / ``RecursionError``, and never a hang.  A daemon
that dies (or hangs) on a malformed frame turns one buggy client into a
denial of service for every container on the GPU.
"""

import json
import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.ipc import protocol
from repro.ipc.loop import IoLoop
from repro.ipc.unix_socket import UnixSocketClient, UnixSocketServer

VALID_REQUESTS = [
    protocol.make_request(protocol.MSG_REGISTER_CONTAINER, seq=1,
                          container_id="app", limit=2048),
    protocol.make_request(protocol.MSG_CONTAINER_EXIT, seq=2, container_id="app"),
    protocol.make_request(protocol.MSG_ALLOC_REQUEST, seq=3, container_id="app",
                          pid=7, size=1 << 20, api="cudaMalloc"),
    protocol.make_request(protocol.MSG_ALLOC_COMMIT, seq=4, container_id="app",
                          pid=7, address=0xDEADBEEF, size=1 << 20),
    protocol.make_request(protocol.MSG_ALLOC_ABORT, seq=5, container_id="app",
                          pid=7, size=1 << 20),
    protocol.make_request(protocol.MSG_ALLOC_RELEASE, seq=6, container_id="app",
                          pid=7, address=0xDEADBEEF),
    protocol.make_request(protocol.MSG_MEM_GET_INFO, seq=7, container_id="app", pid=7),
    protocol.make_request(protocol.MSG_PROCESS_EXIT, seq=8, container_id="app", pid=7),
    protocol.make_request(protocol.MSG_HEARTBEAT, seq=9, container_id="app"),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", VALID_REQUESTS, ids=[m["type"] for m in VALID_REQUESTS]
    )
    def test_every_message_type_round_trips(self, message):
        frame = protocol.encode(message)
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        decoded = protocol.decode(frame)
        assert decoded == message
        protocol.validate_request(decoded)  # still schema-valid after the wire

    def test_replies_round_trip(self):
        request = VALID_REQUESTS[2]
        for reply in (
            protocol.make_reply(request, decision="grant"),
            protocol.make_error_reply(request, "unknown container"),
        ):
            assert protocol.decode(protocol.encode(reply)) == reply
            assert reply["seq"] == request["seq"]

    @given(
        container_id=st.text(
            st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
            min_size=1, max_size=64,
        ),
        pid=st.integers(min_value=0, max_value=2**31 - 1),
        size=st.integers(min_value=0, max_value=2**63 - 1),
        seq=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_alloc_request_round_trips_for_any_payload(
        self, container_id, pid, size, seq
    ):
        message = protocol.make_request(
            protocol.MSG_ALLOC_REQUEST, seq=seq, container_id=container_id,
            pid=pid, size=size, api="cudaMalloc",
        )
        assert protocol.decode(protocol.encode(message)) == message


class TestDecodeFuzz:
    @given(st.binary(max_size=2048))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_escape_typed_errors(self, frame):
        """decode() on garbage: a dict or a ProtocolError, nothing else."""
        try:
            message = protocol.decode(frame)
        except ProtocolError:
            return
        assert isinstance(message, dict)

    @given(st.binary(max_size=2048))
    @settings(max_examples=300, deadline=None)
    def test_validate_after_decode_never_escapes_typed_errors(self, frame):
        """The full server-side parse path: decode + validate."""
        try:
            protocol.validate_request(protocol.decode(frame))
        except ProtocolError:
            pass

    @pytest.mark.parametrize(
        "frame",
        [
            b"",
            b"\n",
            b"null\n",
            b"42\n",
            b'"a string"\n',
            b"[1,2,3]\n",
            b'{"type": "alloc_request"',            # truncated mid-object
            b'{"type": "alloc_req',                 # truncated mid-string
            b'{"type":}\n',                         # syntax error
            b"\xff\xfe invalid utf8",
            b"{" * 200,                             # nested open braces
        ],
    )
    def test_malformed_frames_raise_protocol_error(self, frame):
        with pytest.raises(ProtocolError):
            protocol.validate_request(protocol.decode(frame))

    def test_truncation_at_every_boundary(self):
        """No prefix of a valid frame parses as a (different) valid request."""
        frame = protocol.encode(VALID_REQUESTS[2])
        for cut in range(len(frame) - 1):
            try:
                protocol.validate_request(protocol.decode(frame[:cut]))
            except ProtocolError:
                continue
            pytest.fail(f"truncated frame [:{cut}] parsed as a valid request")


class TestFrameCap:
    def test_oversized_encode_rejected(self):
        message = protocol.make_request(
            protocol.MSG_HEARTBEAT, container_id="x" * protocol.MAX_FRAME_BYTES
        )
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            protocol.encode(message)

    def test_oversized_decode_rejected_before_parsing(self):
        # json.loads on a huge frame would burn CPU; the cap must fire first.
        frame = b'{"type":"heartbeat","container_id":"' + \
            b"x" * protocol.MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            protocol.decode(frame)

    def test_frame_just_under_cap_accepted(self):
        padding = protocol.MAX_FRAME_BYTES - 200
        message = protocol.make_request(
            protocol.MSG_HEARTBEAT, container_id="x" * padding
        )
        assert protocol.decode(protocol.encode(message)) == message


def _header(
    magic=protocol.WIRE_MAGIC,
    version=protocol.WIRE_VERSION,
    flags=0,
    tag=1,
    length=0,
):
    return struct.pack("!4sBBHI", magic, version, flags, tag, length)


class TestBinaryFramingFuzz:
    """The binary wire under attack: typed errors only, stream rules hold."""

    @pytest.mark.parametrize(
        "message", VALID_REQUESTS, ids=[m["type"] for m in VALID_REQUESTS]
    )
    def test_every_message_type_round_trips_binary(self, message):
        frame = protocol.encode_binary(message)
        assert frame[:4] == protocol.WIRE_MAGIC
        assert protocol.decode_binary(frame) == message

    def test_truncated_header_and_payload_at_every_boundary(self):
        """No prefix of a binary frame decodes; split_frames waits for it."""
        frame = protocol.encode_binary(VALID_REQUESTS[2])
        for cut in range(len(frame)):
            with pytest.raises(ProtocolError):
                protocol.decode_binary(frame[:cut])
            frames, rest = protocol.split_frames(frame[:cut])
            assert frames == [] and rest == frame[:cut]

    def test_wrong_magic_rejected(self):
        frame = _header(magic=b"NOPE") + b""
        with pytest.raises(ProtocolError, match="magic"):
            protocol.decode_binary(frame)
        # On a stream, non-magic bytes are treated as the JSON side: the
        # splitter waits for a newline rather than raising.
        frames, rest = protocol.split_frames(frame)
        assert frames == [] and rest == frame

    @pytest.mark.parametrize("version", [0, 2, 7, 255])
    def test_version_skew_rejected_everywhere(self, version):
        frame = _header(version=version)
        with pytest.raises(ProtocolError, match="wire version"):
            protocol.decode_binary(frame)
        # A version skew poisons the whole stream: split_frames must raise
        # (unrecoverable), not skip bytes.
        with pytest.raises(ProtocolError, match="wire version"):
            protocol.split_frames(frame)

    @pytest.mark.parametrize(
        "length",
        [
            protocol.MAX_FRAME_BYTES + 1,
            2**31,          # would be negative as i32
            2**32 - 1,      # u32 all-ones ("negative" length)
        ],
    )
    def test_oversized_and_negative_declared_lengths_rejected(self, length):
        frame = _header(length=length)
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            protocol.decode_binary(frame + b"x")
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            protocol.split_frames(frame)

    def test_unknown_tag_rejected(self):
        frame = _header(tag=999, length=8) + b"\x00" * 8
        with pytest.raises(ProtocolError, match="tag"):
            protocol.decode_binary(frame)

    @given(st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_garbage_payload_never_escapes_typed_errors(self, payload):
        """A well-formed header over arbitrary payload bytes: dict or
        ProtocolError, never KeyError/struct.error/UnicodeDecodeError."""
        frame = _header(tag=1, length=len(payload)) + payload
        try:
            message = protocol.decode_binary(frame)
        except ProtocolError:
            return
        assert isinstance(message, dict)

    @given(st.binary(max_size=2048))
    @settings(max_examples=300, deadline=None)
    def test_split_frames_on_arbitrary_bytes(self, buffer):
        """split_frames: either a clean split (reassemblable) or a typed
        error — and every returned frame decodes or errors typed."""
        try:
            frames, rest = protocol.split_frames(buffer)
        except ProtocolError:
            return
        assert b"".join(frames) + rest == buffer
        for frame in frames:
            try:
                protocol.decode_any(frame)
            except ProtocolError:
                pass

    @given(st.binary(max_size=2048))
    @settings(max_examples=300, deadline=None)
    def test_decode_any_on_arbitrary_bytes(self, frame):
        try:
            message = protocol.decode_any(frame)
        except ProtocolError:
            return
        assert isinstance(message, dict)

    def test_garbage_mid_stream_after_valid_frames(self):
        """Valid frames split off before the poison byte run is reached."""
        good = protocol.encode_binary(VALID_REQUESTS[0])
        poison = _header(version=9)
        with pytest.raises(ProtocolError, match="wire version"):
            protocol.split_frames(good + poison)
        # The valid prefix alone is recoverable:
        frames, rest = protocol.split_frames(good)
        assert frames == [good] and rest == b""


class TestBinaryFramingAgainstLiveLoop:
    """Hostile binary frames must never kill the shared selector thread."""

    @pytest.fixture
    def loop_server(self, tmp_path):
        def handler(message, reply_handle):
            return protocol.make_reply(message)

        with IoLoop() as loop:
            path = str(tmp_path / "fuzz.sock")
            server = UnixSocketServer(path, handler, loop=loop).start()
            yield loop, path
            server.stop()

    def _raw_send(self, path, payload):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5.0)
        sock.connect(path)
        try:
            sock.sendall(payload)
            # Half-close: the server sees EOF after the hostile bytes, so
            # this read drains any in-band error reply and then returns.
            sock.shutdown(socket.SHUT_WR)
            received = b""
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    chunk = sock.recv(65536)
                except TimeoutError:
                    break
                if not chunk:
                    break
                received += chunk
            return received
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "payload",
        [
            _header(version=9),                                   # version skew
            _header(length=protocol.MAX_FRAME_BYTES + 1) + b"x",  # oversize
            _header(length=2**32 - 1),                            # "negative"
            _header(tag=999, length=4) + b"\x00" * 4,             # bad tag
            protocol.WIRE_MAGIC[:3],                              # truncated magic, then EOF
        ],
        ids=["version-skew", "oversized", "negative-length", "bad-tag",
             "truncated-magic"],
    )
    def test_hostile_frames_get_inband_error_and_loop_survives(
        self, loop_server, payload
    ):
        loop, path = loop_server
        received = self._raw_send(path, payload)
        if payload not in (protocol.WIRE_MAGIC[:3],):
            # Unrecoverable framing: exactly one in-band error reply (JSON,
            # the pre-negotiation codec) and then EOF.
            frames, _rest = protocol.split_frames(received)
            assert frames, f"no in-band error reply, got {received!r}"
            reply = protocol.decode_any(frames[0])
            assert reply["status"] == "error"
        # The selector thread is alive and serving new connections:
        assert loop.running
        with UnixSocketClient(path) as client:
            reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="alive")
            assert reply["status"] == "ok"


class TestValidateFuzz:
    @given(
        st.dictionaries(
            st.sampled_from(["type", "seq", "container_id", "pid", "size",
                             "address", "api", "limit", "extra"]),
            st.one_of(
                st.none(), st.booleans(), st.integers(), st.floats(),
                st.text(max_size=8), st.lists(st.integers(), max_size=3),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_random_dicts_never_escape_typed_errors(self, message):
        try:
            protocol.validate_request(message)
        except ProtocolError:
            return
        # Accepted: then it must genuinely satisfy the schema.
        fields = protocol.REQUEST_FIELDS[message["type"]]
        for name, expected in fields.items():
            assert isinstance(message[name], expected)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"type": None},
            {"type": 42},
            {"type": "no_such_message"},
            {"seq": -1},
            {"seq": True},
            {"seq": "1"},
            {"pid": -1},
            {"size": -1},
            {"pid": 1.5},
            {"size": True},
            {"container_id": 7},
        ],
    )
    def test_single_field_mutations_rejected(self, mutation):
        base = dict(VALID_REQUESTS[2])  # alloc_request
        base.update(mutation)
        with pytest.raises(ProtocolError):
            protocol.validate_request(base)

    @pytest.mark.parametrize("field", ["container_id", "pid", "size", "api"])
    def test_missing_required_field_rejected(self, field):
        base = dict(VALID_REQUESTS[2])
        del base[field]
        with pytest.raises(ProtocolError, match=field):
            protocol.validate_request(base)

    def test_nan_payload_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="unserializable"):
            protocol.encode({"type": "alloc_request", "size": float("nan")})

    def test_newline_in_value_cannot_split_frames(self):
        # Line framing: a newline inside a value must never produce a
        # multi-line frame (request smuggling).  json escapes it.
        frame = protocol.encode({"type": "heartbeat", "container_id": "a\nb"})
        assert frame.count(b"\n") == 1
        assert protocol.decode(frame)["container_id"] == "a\nb"
