"""Property-based cross-codec equivalence suite for the wire protocol.

The binary codec is only allowed to change *how* bytes look, never what a
message means: every message type must encode under both codecs and decode
back to an **equal** dict — including unknown fields from newer peers and
the ``trace_id``/``span_id`` older wrappers sent, with any value (the
versioning rule).  The generators
below are driven by ``protocol.REQUEST_FIELDS`` itself, so a message type
added to the schema is covered here automatically, the same way the binary
tag/field tables extend themselves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.ipc import protocol

CODECS = protocol.SUPPORTED_CODECS

# -- schema-driven message generation ---------------------------------------

_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    max_size=32,
)
_FIELD_STRATEGIES = {
    str: _text,
    int: st.integers(min_value=0, max_value=2**63 - 1),
    list: st.lists(_text, max_size=4),
}

#: Values legal as unknown/extension fields under both codecs: everything
#: JSON can say (finite floats only — both codecs reject NaN/inf).
_extension_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),  # beyond i64 too
        st.floats(allow_nan=False, allow_infinity=False),
        _text,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_text, inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def requests(draw, msg_type=None):
    """One schema-valid request, with optional legacy + unknown fields."""
    if msg_type is None:
        msg_type = draw(st.sampled_from(sorted(protocol.REQUEST_FIELDS)))
    message = {"type": msg_type, "seq": draw(st.integers(0, 2**63 - 1))}
    for name, expected in protocol.REQUEST_FIELDS[msg_type].items():
        message[name] = draw(_FIELD_STRATEGIES[expected])
    if draw(st.booleans()):
        message["trace_id"] = draw(_extension_values)
        message["span_id"] = draw(_extension_values)
    # Unknown fields from a hypothetical newer peer (must survive intact).
    extras = draw(
        st.dictionaries(
            st.text("abcdefgh_", min_size=1, max_size=8), _extension_values,
            max_size=3,
        )
    )
    for key, value in extras.items():
        if key not in message and key != "type" and key != "status":
            message[key] = value
    return message


@st.composite
def replies(draw):
    base = draw(st.sampled_from(sorted(protocol.REQUEST_FIELDS)))
    request = {"type": base, "seq": draw(st.integers(0, 2**63 - 1))}
    if draw(st.booleans()):
        reply = protocol.make_error_reply(request, draw(_text))
    else:
        payload = draw(
            st.dictionaries(
                st.text("abcdefgh_", min_size=1, max_size=8), _extension_values,
                max_size=4,
            )
        )
        payload.pop("type", None)
        payload.pop("seq", None)
        payload.pop("status", None)
        reply = protocol.make_reply(request, **payload)
    return reply


class TestCrossCodecRoundTrip:
    @pytest.mark.parametrize("msg_type", sorted(protocol.REQUEST_FIELDS))
    @pytest.mark.parametrize("codec", CODECS)
    def test_every_type_round_trips_under_every_codec(self, msg_type, codec):
        @given(requests(msg_type=msg_type))
        @settings(max_examples=50, deadline=None)
        def check(message):
            frame = protocol.encode_as(message, codec)
            decoded = protocol.decode_any(frame)
            assert decoded == message
            protocol.validate_request(decoded)

        check()

    @given(requests())
    @settings(max_examples=200, deadline=None)
    def test_binary_and_json_decode_to_the_same_message(self, message):
        """The equivalence at the heart of the codec upgrade."""
        via_json = protocol.decode_any(protocol.encode_as(message, "json"))
        via_binary = protocol.decode_any(protocol.encode_as(message, "binary"))
        assert via_json == via_binary == message

    @given(replies())
    @settings(max_examples=200, deadline=None)
    def test_replies_round_trip_under_both_codecs(self, reply):
        for codec in CODECS:
            assert protocol.decode_any(protocol.encode_as(reply, codec)) == reply

    @given(requests())
    @settings(max_examples=100, deadline=None)
    def test_binary_encoding_is_deterministic(self, message):
        assert protocol.encode_binary(message) == protocol.encode_binary(message)

    def test_unknown_reply_round_trips(self):
        """Tag 0: the error reply to a request that never decoded."""
        reply = protocol.make_error_reply({"type": "unknown", "seq": 0}, "bad frame")
        for codec in CODECS:
            assert protocol.decode_any(protocol.encode_as(reply, codec)) == reply

    def test_unknown_codec_rejected(self):
        with pytest.raises(ProtocolError, match="unknown codec"):
            protocol.encode_as({"type": "heartbeat", "container_id": "c"}, "msgpack")


class TestMixedStreamSplitting:
    @given(st.lists(requests(), min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_split_frames_recovers_mixed_codec_stream(self, messages, data):
        """Frames of both codecs interleaved on one stream split exactly."""
        frames = [
            protocol.encode_as(m, data.draw(st.sampled_from(CODECS)))
            for m in messages
        ]
        stream = b"".join(frames)
        got, rest = protocol.split_frames(stream)
        assert rest == b""
        assert got == frames
        assert [protocol.decode_any(f) for f in got] == messages

    @given(requests(), st.integers(min_value=0))
    @settings(max_examples=150, deadline=None)
    def test_partial_frames_wait_for_more_bytes(self, message, cut):
        """No prefix of a frame is ever mis-split into a bogus frame."""
        frame = protocol.encode_as(message, "binary")
        cut = cut % len(frame)
        got, rest = protocol.split_frames(frame[:cut])
        assert got == []
        assert rest == frame[:cut]


class TestNegotiation:
    @pytest.mark.parametrize(
        ("offered", "supported", "expected"),
        [
            (["binary", "json"], protocol.SUPPORTED_CODECS, "binary"),
            (["json", "binary"], protocol.SUPPORTED_CODECS, "json"),
            (["binary"], ("json",), "json"),      # JSON-only server
            (["json"], protocol.SUPPORTED_CODECS, "json"),
            ([], protocol.SUPPORTED_CODECS, "json"),
            (["zstd-frames", "binary"], protocol.SUPPORTED_CODECS, "binary"),
            (["zstd-frames"], protocol.SUPPORTED_CODECS, "json"),
        ],
    )
    def test_negotiate_codec_table(self, offered, supported, expected):
        assert protocol.negotiate_codec(offered, supported) == expected

    @given(st.lists(st.sampled_from(["binary", "json", "future", "x"]), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_negotiation_always_lands_on_a_supported_codec(self, offered):
        chosen = protocol.negotiate_codec(offered)
        assert chosen in protocol.SUPPORTED_CODECS
