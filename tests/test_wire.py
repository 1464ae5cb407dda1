"""Codec and framing tests.

Expected byte strings are produced by a deliberately independent oracle
(`int.to_bytes` concatenation, no struct), so the codec under test never
checks itself. The document codec is also compared with the two-pass
codec it replaced, kept below as a reference.
"""

from __future__ import annotations

import collections
import enum
import io
import random
import select
import socket
import struct
import types
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netkvcache import loop, wire
from netkvcache.wire import (
    DEFAULT_MAX_MESSAGE_BYTES,
    HEADER_SIZE,
    ConnectionClosed,
    MalformedDocument,
    MessageHeader,
    OversizeMessage,
    RawMessage,
    TruncatedHeader,
    TruncatedMessage,
    UnsupportedType,
    WireError,
    decode_document,
    decode_header,
    encode_document,
    encode_header,
    read_message,
    write_message,
)
from support import random_document, random_header

# -- independent byte-packing oracle ------------------------------------------


def u32(v: int) -> bytes:
    return v.to_bytes(4, "little", signed=False)


def i32(v: int) -> bytes:
    return v.to_bytes(4, "little", signed=True)


def oracle_header(length, request_id, response_to, op_code, flags, payload_type, payload_size):
    return (
        u32(length) + i32(request_id) + i32(response_to) + i32(op_code)
        + u32(flags) + bytes([payload_type]) + u32(payload_size)
    )


def oracle_cstring(s: str) -> bytes:
    return s.encode() + b"\x00"


def oracle_string_element(name: str, value: str) -> bytes:
    data = value.encode()
    return b"\x02" + oracle_cstring(name) + u32(len(data) + 1) + data + b"\x00"


def oracle_doc(elements: bytes) -> bytes:
    return u32(4 + len(elements) + 1) + elements + b"\x00"


# -- header --------------------------------------------------------------------


def test_opcode_2013_encodes_little_endian_at_offset_12():
    h = MessageHeader(26, 1, 0, 2013, 0, 0, 5)
    assert encode_header(h)[12:16] == bytes([0xDD, 0x07, 0x00, 0x00])


def test_header_matches_independent_oracle():
    h = MessageHeader(26, 1, 0, 2013, 0, 0, 5)
    encoded = encode_header(h)
    assert len(encoded) == 25
    assert encoded[:4] == bytes([0x1A, 0x00, 0x00, 0x00])
    assert encoded == oracle_header(26, 1, 0, 2013, 0, 0, 5)


def test_header_with_negative_ids_matches_oracle():
    h = MessageHeader(30, -7, -1, 2013, 0xFFFFFFFF, 9, 9)
    assert encode_header(h) == oracle_header(30, -7, -1, 2013, 0xFFFFFFFF, 9, 9)


def test_header_round_trip_seeded():
    rng = random.Random(7)
    for _ in range(200):
        h = random_header(rng)
        assert decode_header(encode_header(h)) == h


@given(
    st.integers(0, 2**32 - 1), st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1),
    st.integers(0, 2**32 - 1), st.integers(0, 255), st.integers(0, 2**32 - 1),
)
def test_header_round_trip_property(length, rid, rto, op, flags, ptype, psize):
    h = MessageHeader(length, rid, rto, op, flags, ptype, psize)
    assert decode_header(encode_header(h)) == h


def test_decode_header_rejects_short_input():
    with pytest.raises(TruncatedHeader):
        decode_header(b"\x00" * 24)


def test_reference_find_message_first_25_bytes():
    # A capture of a driver-style find request, rebuilt with the oracle:
    # header prefix + the body's own length prefix.
    body = oracle_doc(oracle_string_element("find", "phrases"))
    frame = oracle_header(21 + len(body), 41, 0, 2013, 0, 0, len(body))[:21] + body
    header = decode_header(frame[:25])
    assert header.op_code == 2013
    assert header.payload_type == 0
    assert header.payload_size == len(body)


# -- documents -------------------------------------------------------------------


def test_empty_document_is_five_bytes():
    assert encode_document({}) == b"\x05\x00\x00\x00\x00"
    assert decode_document(b"\x05\x00\x00\x00\x00") == {}


def test_find_document_matches_oracle():
    expected = oracle_doc(oracle_string_element("find", "randomPhrases"))
    encoded = encode_document({"find": "randomPhrases"})
    assert encoded == expected
    assert encoded[:4] == u32(len(encoded))


def test_mixed_document_matches_oracle():
    # double 1.5 frozen via its IEEE-754 bit pattern 0x3FF8000000000000
    elements = (
        b"\x10" + oracle_cstring("a") + i32(42)
        + b"\x12" + oracle_cstring("b") + (2**40).to_bytes(8, "little", signed=True)
        + b"\x01" + oracle_cstring("c") + bytes.fromhex("000000000000f83f")
        + b"\x08" + oracle_cstring("d") + b"\x01"
        + b"\x0a" + oracle_cstring("e")
    )
    doc = {"a": 42, "b": 2**40, "c": 1.5, "d": True, "e": None}
    assert encode_document(doc) == oracle_doc(elements)
    assert decode_document(oracle_doc(elements)) == doc


def test_nested_document_and_array_round_trip():
    doc = {"filter": {"_id": {"$eq": 42}}, "batch": [1, "two", None, {"k": False}]}
    assert decode_document(encode_document(doc)) == doc


def test_document_round_trip_seeded_1000():
    rng = random.Random(99)
    for _ in range(1000):
        doc = random_document(rng)
        encoded = encode_document(doc)
        assert int.from_bytes(encoded[:4], "little") == len(encoded)
        assert decode_document(encoded) == doc


@settings(max_examples=300)
@given(st.recursive(
    st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=12),
        st.booleans(),
        st.none(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=6).filter(lambda s: "\x00" not in s), inner, max_size=4),
    ),
    max_leaves=12,
))
def test_document_value_round_trip_property(value):
    doc = {"v": value}
    assert decode_document(encode_document(doc)) == doc


def test_field_order_preserved():
    doc = {"z": 1, "a": 2, "m": 3}
    assert list(decode_document(encode_document(doc))) == ["z", "a", "m"]


def test_encode_rejects_unsupported_values():
    with pytest.raises(UnsupportedType):
        encode_document({"x": object()})
    with pytest.raises(UnsupportedType):
        encode_document({"x": 2**70})
    with pytest.raises(UnsupportedType):
        encode_document({"": 1})
    with pytest.raises(UnsupportedType):
        encode_document({"a\x00b": 1})


@pytest.mark.parametrize("data", [
    b"",
    b"\x04\x00\x00\x00",
    b"\x05\x00\x00\x00\x01",          # bad terminator
    b"\x06\x00\x00\x00\x00\x00",      # trailing byte after declared length
    b"\x10\x00\x00\x00\x00",          # prefix larger than data
    b"\x05\x00\x00\x00",              # truncated
    encode_document({"a": 1})[:-3],   # cut mid-element
    b"\x0c\x00\x00\x00\x7f" + b"a\x00" + b"\x00\x00\x00\x00" + b"\x00",  # unknown tag
    b"\x0b\x00\x00\x00\x08" + b"a\x00" + b"\x05" + b"\x00" * 2,          # bad boolean byte
    b"\x0b\x00\x00\x00\x02" + b"a\x00" + b"\xff\xff\xff\xff",            # absurd string length
])
def test_decode_document_rejects_malformed(data):
    with pytest.raises(WireError):
        decode_document(data)


def test_decode_document_rejects_unterminated_string():
    # string element whose declared bytes do not end in NUL
    elements = b"\x02" + b"s\x00" + u32(3) + b"ab" + b"X"
    with pytest.raises(WireError):
        decode_document(oracle_doc(elements))


def nested_document(levels: int) -> bytes:
    """A document ``levels`` deep: the top level, then each level holding
    the next under the name ``d``."""
    deep = b"\x05\x00\x00\x00\x00"
    for _ in range(levels - 1):
        inner = b"\x03" + b"d\x00" + deep
        deep = u32(4 + len(inner) + 1) + inner + b"\x00"
    return deep


def test_decode_document_depth_guard():
    # The top level plus MAX_DOCUMENT_DEPTH nested levels is the deepest accepted.
    doc = decode_document(nested_document(1 + wire.MAX_DOCUMENT_DEPTH))
    for _ in range(wire.MAX_DOCUMENT_DEPTH):
        doc = doc["d"]
    assert doc == {}
    for levels in (2 + wire.MAX_DOCUMENT_DEPTH, 201):
        with pytest.raises(WireError):
            decode_document(nested_document(levels))


def test_decode_fuzz_smoke_never_crashes():
    rng = random.Random(4242)
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        try:
            decode_document(blob)
        except WireError:
            pass


# -- the one-pass codec against its references -------------------------------------
#
# ``reference_encode_document`` is the encoder the one-pass ``encode_document``
# replaced: it encodes each element into its own buffer and checks types by
# ``isinstance`` alone. ``reference_decode_document`` composes the decoder from
# ``elements`` and ``decode_value``, the walk that ``response_is_cacheable``
# relies on. The codec must agree with both, byte for byte and error for error.


def reference_encode_value(value, out: bytearray) -> int:
    if isinstance(value, bool):
        out.append(1 if value else 0)
        return wire.TAG_BOOLEAN
    if isinstance(value, float):
        out += struct.pack("<d", value)
        return wire.TAG_DOUBLE
    if isinstance(value, str):
        data = value.encode("utf-8")
        out += struct.pack("<I", len(data) + 1) + data + b"\x00"
        return wire.TAG_STRING
    if isinstance(value, Mapping):
        out += reference_encode_document(value)
        return wire.TAG_DOCUMENT
    if isinstance(value, (list, tuple)):
        out += reference_encode_document({str(i): v for i, v in enumerate(value)})
        return wire.TAG_ARRAY
    if value is None:
        return wire.TAG_NULL
    if isinstance(value, int):
        if -(2**31) <= value < 2**31:
            out += struct.pack("<i", value)
            return wire.TAG_INT32
        if -(2**63) <= value < 2**63:
            out += struct.pack("<q", value)
            return wire.TAG_INT64
        raise UnsupportedType(f"integer out of 64-bit range: {value}")
    raise UnsupportedType(f"cannot encode value of type {type(value).__name__}")


def reference_encode_document(doc) -> bytes:
    body = bytearray()
    for name, value in doc.items():
        if not isinstance(name, str) or not name:
            raise UnsupportedType(f"field name must be a non-empty string, got {name!r}")
        name_bytes = name.encode("utf-8")
        if b"\x00" in name_bytes:
            raise UnsupportedType(f"field name contains NUL: {name!r}")
        element = bytearray()
        tag = reference_encode_value(value, element)
        body.append(tag)
        body += name_bytes + b"\x00"
        body += element
    return struct.pack("<I", len(body) + 5) + bytes(body) + b"\x00"


def reference_decode_document(data: bytes, start: int = 0, end: int | None = None,
                              depth: int = 0) -> dict:
    if depth > wire.MAX_DOCUMENT_DEPTH:
        raise MalformedDocument("document nesting too deep")
    doc = {}
    for tag, name, vstart, vend in wire.elements(data, start, end):
        if tag in (wire.TAG_DOCUMENT, wire.TAG_ARRAY):
            sub = reference_decode_document(data, vstart, vend, depth + 1)
            doc[name] = list(sub.values()) if tag == wire.TAG_ARRAY else sub
        else:
            doc[name] = wire.decode_value(tag, data, vstart, vend)
    return doc


def outcome(fn, arg, error):
    """``fn(arg)``, or ``error`` itself when it raises ``error``. ``repr`` of
    a decoded document shows key order at every level, and NaN equals itself."""
    try:
        return repr(fn(arg))
    except error:
        return error


class Colour(enum.IntEnum):
    RED = 1
    WIDE = 2**40


class Text(str):
    pass


EDGE_INTS = [2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**63 - 1, 2**63, -(2**63),
             -(2**63) - 1, 2**64, -(2**70)]
NAMES = st.one_of(st.text(max_size=5), st.sampled_from(["", "\x00", "a\x00b", "é"]),
                  st.just(Text("sub")), st.integers(0, 3), st.just(b"x"))
ENCODER_LEAVES = st.one_of(
    st.integers(-(2**64), 2**64), st.sampled_from(EDGE_INTS), st.booleans(),
    st.sampled_from(list(Colour)), st.floats(), st.text(max_size=8),
    st.text(max_size=8).map(Text), st.none(),
    st.sampled_from([object(), {1, 2}, b"raw", 1j]),
)


def encoder_mappings(values):
    entries = st.lists(st.tuples(NAMES, values), max_size=4)
    return st.one_of(
        entries.map(dict),
        entries.map(collections.OrderedDict),
        entries.map(lambda e: types.MappingProxyType(dict(e))),
    )


ENCODER_VALUES = st.recursive(
    ENCODER_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            encoder_mappings(inner)),
    max_leaves=12,
)


@pytest.mark.parametrize("doc", [
    {"t": True, "f": False, "one": 1, "zero": 0},
    {"colour": Colour.RED, "wide": Colour.WIDE},
    {"s": Text("sub"), Text("name"): "v"},
    collections.OrderedDict([("b", 1), ("a", {"c": 2})]),
    {"proxy": types.MappingProxyType({"k": [1, 2]})},
    types.MappingProxyType({"k": (1, "two", (3.0, None))}),
    {str(i): v for i, v in enumerate(EDGE_INTS)},
    {"big": 2**64}, {"neg": -(2**63) - 1},
    {"": 1}, {"a\x00b": 1}, {"\x00": "x"}, {1: "int name"},
    {"nested": {"": 1}}, {"list": [{"a\x00": 1}]},
    {"x": object()}, {"ok": 1, "bad": [1, {2}]},
])
def test_encoder_matches_reference_on_edge_values(doc):
    assert outcome(encode_document, doc, UnsupportedType) == outcome(
        reference_encode_document, doc, UnsupportedType)


@settings(max_examples=400)
@given(encoder_mappings(ENCODER_VALUES))
def test_encoder_matches_reference(doc):
    got = outcome(encode_document, doc, UnsupportedType)
    assert got == outcome(reference_encode_document, doc, UnsupportedType)


DECODER_VALUES = st.recursive(
    st.one_of(st.integers(-(2**63), 2**63 - 1), st.floats(), st.text(max_size=6),
              st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(min_size=1, max_size=4).filter(lambda s: "\x00" not in s),
                        inner, max_size=3),
    ),
    max_leaves=10,
)
ALL_TAGS = [wire.TAG_DOUBLE, wire.TAG_STRING, wire.TAG_DOCUMENT, wire.TAG_ARRAY,
            wire.TAG_BOOLEAN, wire.TAG_NULL, wire.TAG_INT32, wire.TAG_INT64, 0x7F]


def framing_offsets(data: bytes, start: int = 0, end: int | None = None):
    """The offsets of every element tag and every length prefix in the
    well-framed document ``data[start:end]``, at every level."""
    tags, prefixes = [], [start]
    for tag, name, vstart, vend in wire.elements(data, start, end):
        tags.append(vstart - len(name.encode()) - 2)
        if tag == wire.TAG_STRING:
            prefixes.append(vstart)
        elif tag in (wire.TAG_DOCUMENT, wire.TAG_ARRAY):
            inner_tags, inner_prefixes = framing_offsets(data, vstart, vend)
            tags += inner_tags
            prefixes += inner_prefixes
    return tags, prefixes


@st.composite
def mutated_encodings(draw):
    data = bytearray(encode_document(draw(st.dictionaries(
        st.text(min_size=1, max_size=4).filter(lambda s: "\x00" not in s),
        DECODER_VALUES, max_size=4))))
    tags, prefixes = framing_offsets(bytes(data))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["flip", "unzero", "truncate", "append", "prefix", "tag"]))
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data[at] = draw(st.one_of(st.just(0), st.integers(0, 255)))
        elif kind == "unzero" and 0 in data:
            at = draw(st.sampled_from([i for i, b in enumerate(data) if b == 0]))
            data[at] = draw(st.integers(1, 255))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif kind == "append":
            data += draw(st.binary(min_size=1, max_size=8))
        elif kind == "prefix" and prefixes[-1] + 4 <= len(data):
            at = draw(st.sampled_from([p for p in prefixes if p + 4 <= len(data)]))
            value = int.from_bytes(data[at:at + 4], "little") + draw(st.sampled_from([-1, 1]))
            data[at:at + 4] = (value % 2**32).to_bytes(4, "little")
        elif kind == "tag" and any(t < len(data) for t in tags):
            at = draw(st.sampled_from([t for t in tags if t < len(data)]))
            data[at] = draw(st.sampled_from(ALL_TAGS))
    return bytes(data)


@settings(max_examples=1000)
@given(mutated_encodings())
# An int32 cut short by its document's end, at the top level and nested
# (where the bytes after it belong to the outer document), and a string
# whose length prefix is 0, one short of its NUL.
@example(oracle_doc(b"\x10" + oracle_cstring("a") + b"\x01\x02"))
@example(oracle_doc(b"\x03" + oracle_cstring("d") + oracle_doc(b"\x0a" + oracle_cstring("n")
                                                                 + b"\x10" + oracle_cstring("i"))
                    + b"\x10" + oracle_cstring("b") + i32(7)))
@example(oracle_doc(b"\x02" + oracle_cstring("s") + u32(0)))
def test_decoder_matches_the_walk_it_replaced(data):
    # Any exception but MalformedDocument escapes ``outcome`` and fails the test.
    got = outcome(decode_document, data, MalformedDocument)
    assert got == outcome(reference_decode_document, data, MalformedDocument)


def test_peek_first_field():
    assert wire.peek_first_field(encode_document({"find": "x", "y": 1})) == "find"
    assert wire.peek_first_field(encode_document({})) is None
    assert wire.peek_first_field(b"\xff\xff") is None


# -- framing ---------------------------------------------------------------------


def make_message(body_doc: dict, request_id=1, response_to=0, op_code=2013) -> RawMessage:
    body = encode_document(body_doc)
    return RawMessage(
        MessageHeader(21 + len(body), request_id, response_to, op_code, 0, 0, len(body)),
        body,
    )


def test_two_messages_in_one_chunk():
    m1 = make_message({"find": "a"}, request_id=1)
    m2 = make_message({"ping": 1}, request_id=2)
    stream = io.BytesIO(m1.to_bytes() + m2.to_bytes())
    assert read_message(stream) == m1
    assert read_message(stream) == m2
    with pytest.raises(ConnectionClosed):
        read_message(stream)


def test_oversize_guard():
    stream = io.BytesIO(u32(2**31) + b"\x00" * 64)
    with pytest.raises(OversizeMessage):
        read_message(stream)


def test_undersize_length_rejected():
    stream = io.BytesIO(u32(10) + b"\x00" * 10)
    with pytest.raises(TruncatedHeader):
        read_message(stream)


def test_eof_mid_message_is_truncation():
    m = make_message({"find": "a"})
    stream = io.BytesIO(m.to_bytes()[:-2])
    with pytest.raises(TruncatedMessage):
        read_message(stream)


def test_write_then_read_round_trip_seeded_1000():
    rng = random.Random(5)
    buf = io.BytesIO()
    messages = []
    for i in range(1000):
        m = make_message(random_document(rng), request_id=i,
                         response_to=rng.randint(0, 10), op_code=rng.choice([2013, 1, 2010]))
        messages.append(m)
        write_message(buf, m)
    buf.seek(0)
    for m in messages:
        assert read_message(buf) == m


def test_minimal_control_message_round_trip():
    m = make_message({}, op_code=2013)
    assert m.header.length == 26
    buf = io.BytesIO()
    write_message(buf, m)
    assert len(buf.getvalue()) == 26
    buf.seek(0)
    assert read_message(buf) == m


def test_max_size_boundary_message():
    body_doc = {"blob": "x" * 100}
    m = make_message(body_doc)
    limit = m.header.length
    buf = io.BytesIO(m.to_bytes())
    assert read_message(buf, max_bytes=limit) == m
    buf.seek(0)
    with pytest.raises(OversizeMessage):
        read_message(buf, max_bytes=limit - 1)


def test_write_message_rejects_inconsistent_length():
    bad = RawMessage(MessageHeader(99, 1, 0, 2013, 0, 0, 5), encode_document({}))
    with pytest.raises(ValueError):
        write_message(io.BytesIO(), bad)


def test_read_message_framing_is_chunking_independent():
    rng = random.Random(11)
    messages = [make_message(random_document(rng), request_id=i) for i in range(20)]
    data = b"".join(m.to_bytes() for m in messages)
    stream = io.BytesIO(data)
    assert [read_message(stream) for _ in messages] == messages


def tcp_pair() -> tuple[socket.socket, socket.socket]:
    with socket.create_server(("127.0.0.1", 0)) as server:
        sender = socket.create_connection(server.getsockname())
        receiver, _ = server.accept()
    return sender, receiver


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    cuts=st.lists(st.integers(0, 200_000), max_size=8),
    bad=st.sampled_from([None, (DEFAULT_MAX_MESSAGE_BYTES + 1, OversizeMessage),
                         (HEADER_SIZE - 1, TruncatedHeader), (3, TruncatedHeader)]),
)
def test_leg_frames_as_a_byte_stream_does_at_any_chunking(seed, cuts, bad):
    rng = random.Random(seed)
    messages = [make_message(random_document(rng), request_id=i) for i in range(4)]
    # Larger than one ``Leg.fill``, so a frame arrives over several reads.
    messages.insert(rng.randrange(5), make_message({"blob": "x" * (loop.RECV_BYTES + 1000)}))
    data = b"".join(m.to_bytes() for m in messages)
    if bad is not None:
        data += u32(bad[0]) + b"\x00" * 6  # a bad length, then less than a header
    bounds = sorted({0, len(data), *(c for c in cuts if c < len(data))})

    reference = io.BytesIO(data)
    assert [read_message(reference) for _ in messages] == messages

    sender, receiver = tcp_pair()
    leg = loop.Leg(receiver, "test")
    got = []
    try:
        for start, end in zip(bounds, bounds[1:]):
            sender.sendall(data[start:end])
            want = len(leg.inbuf) + end - start
            while len(leg.inbuf) < want:
                select.select([receiver], [], [], 5.0)
                assert leg.fill()
            while leg.frame_ready() and len(got) < len(messages):
                m = read_message(leg)
                assert type(m.body) is bytes
                # Growing the buffer would raise BufferError if a view of it
                # were still exported.
                leg.inbuf += b"\x00"
                del leg.inbuf[-1:]
                got.append(m)
        assert got == messages
        if bad is None:
            assert not leg.inbuf
        else:
            assert leg.frame_ready()
            for stream in (leg, reference):
                with pytest.raises(bad[1]):
                    read_message(stream)
    finally:
        sender.close()
        receiver.close()
