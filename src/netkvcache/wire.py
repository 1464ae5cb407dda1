"""Wire codec: message header, document payload, and stream framing.

Every message starts with a 25-byte header of 7 fields; all multi-byte
integers are little-endian:

    offset  size  field
    ------  ----  ------------------------------------------------------
         0     4  length        u32  total message size, including itself
         4     4  request_id    i32  unique per request within a connection
         8     4  response_to   i32  request_id being answered; 0 for requests
        12     4  op_code       i32  2013 marks data-manipulation messages
        16     4  flags         u32  opaque driver/server flag bits
        20     1  payload_type  u8   0 = single body document
        21     4  payload_size  u32  total size of the encoded document

The payload_size field doubles as the document's own length prefix: the
encoded document begins at offset 21, so ``length == 21 + payload_size``
and a message body (``RawMessage.body``) always includes those 4 bytes.

Documents are a binary JSON subset, self-delimiting:

    [u32 total length][elements...][0x00]

with each element ``[tag][name cstring][value]`` and tags

    0x01 double    0x02 string   0x03 document   0x04 array
    0x08 boolean   0x0A null     0x10 int32      0x12 int64

Decoders never read past the declared lengths; malformed input raises a
typed ``WireError`` subclass, never an unchecked exception.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Mapping
from typing import Any, NamedTuple

HEADER_SIZE = 25
# Bytes of the header that precede the document payload (the payload_size
# field overlaps the document's length prefix).
HEADER_PREFIX_SIZE = 21
MANIPULATION_OPCODE = 2013
DEFAULT_MAX_MESSAGE_BYTES = 16 * 1024 * 1024
# Bound on document nesting accepted by the decoder (stack safety on fuzz
# input; real traffic nests two or three levels deep).
MAX_DOCUMENT_DEPTH = 128

_HEADER = struct.Struct("<IiiiIBI")
_HEADER_PREFIX = struct.Struct("<IiiiIB")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

TAG_DOUBLE = 0x01
TAG_STRING = 0x02
TAG_DOCUMENT = 0x03
TAG_ARRAY = 0x04
TAG_BOOLEAN = 0x08
TAG_NULL = 0x0A
TAG_INT32 = 0x10
TAG_INT64 = 0x12
# Value sizes of the tags whose values carry no length prefix.
_FIXED_SIZES = {TAG_DOUBLE: 8, TAG_BOOLEAN: 1, TAG_NULL: 0, TAG_INT32: 4, TAG_INT64: 8}


class WireError(Exception):
    """Base class for all codec and framing errors."""


class TruncatedHeader(WireError):
    """Fewer bytes available than a complete 25-byte header."""


class MalformedDocument(WireError):
    """Document bytes violate the encoding (bad length, tag, or string)."""


class UnsupportedType(WireError):
    """A value outside the supported type subset was passed to the encoder."""


class ConnectionClosed(WireError):
    """The stream ended cleanly on a message boundary."""


class TruncatedMessage(WireError):
    """The stream ended in the middle of a message."""


class OversizeMessage(WireError):
    """A declared message length exceeds the configured maximum."""


class MessageHeader(NamedTuple):
    """The 7 header fields in wire order."""

    length: int
    request_id: int
    response_to: int
    op_code: int
    flags: int
    payload_type: int
    payload_size: int


class RawMessage(NamedTuple):
    """One framed message: parsed header plus the raw payload bytes.

    ``body`` is everything from offset 21 of the frame, so it starts with
    the document's 4-byte length prefix and ``header.length`` always
    equals ``21 + len(body)``.
    """

    header: MessageHeader
    body: bytes

    def to_bytes(self) -> bytes:
        h = self.header
        if h.length != HEADER_PREFIX_SIZE + len(self.body):
            raise ValueError(
                f"inconsistent message: length={h.length}, body={len(self.body)} bytes"
            )
        return _HEADER_PREFIX.pack(*h[:6]) + self.body


def make_message(request_id: int, response_to: int, body: bytes) -> RawMessage:
    """A manipulation message carrying ``body``, with the header's length
    fields derived from it."""
    size = len(body)
    return RawMessage(MessageHeader(
        HEADER_PREFIX_SIZE + size, request_id, response_to, MANIPULATION_OPCODE, 0, 0, size,
    ), body)


def encode_header(h: MessageHeader) -> bytes:
    """Pack a header into its 25-byte wire form."""
    try:
        return _HEADER.pack(*h)
    except struct.error as exc:
        raise ValueError(f"header field out of range: {exc}") from None


def decode_header(data: bytes) -> MessageHeader:
    """Unpack a 25-byte header.

    Raises:
        TruncatedHeader: if fewer than 25 bytes are given.
    """
    if len(data) < HEADER_SIZE:
        raise TruncatedHeader(f"need {HEADER_SIZE} header bytes, have {len(data)}")
    return MessageHeader(*_HEADER.unpack_from(data))


# Tags of the exact classes most values have; ``_tag_of`` types the rest.
_EXACT_TAGS = {int: TAG_INT32, str: TAG_STRING, dict: TAG_DOCUMENT, float: TAG_DOUBLE}
_NUMBER_STRUCTS = {TAG_INT32: _I32, TAG_DOUBLE: _F64, TAG_INT64: _I64}


def _tag_of(value: Any) -> int:
    # bool before int: bool is an int subclass. Ints are range-checked here.
    for kinds, tag in ((bool, TAG_BOOLEAN), (float, TAG_DOUBLE), (str, TAG_STRING),
                       (Mapping, TAG_DOCUMENT), ((list, tuple), TAG_ARRAY),
                       (type(None), TAG_NULL)):
        if isinstance(value, kinds):
            return tag
    if not isinstance(value, int) or not _INT64_MIN <= value <= _INT64_MAX:
        raise UnsupportedType(f"cannot encode {type(value).__name__} value {value!r:.40}")
    return TAG_INT32 if _INT32_MIN <= value <= _INT32_MAX else TAG_INT64


def _encode_into(out: bytearray, items: Iterable[tuple[Any, Any]], array: bool) -> None:
    """Append the document of ``items``: (name, value) pairs, or (index, value) in an array."""
    start = len(out)
    out += b"\x00\x00\x00\x00"  # the length prefix, packed once the rest is written
    for name, value in items:
        at = len(out)  # the element's tag, set once its value is typed
        if array:
            data = b"%d" % name
        elif not isinstance(name, str) or not name or b"\x00" in (data := name.encode("utf-8")):
            raise UnsupportedType(f"field name must be a non-empty string without NUL: {name!r}")
        out.append(0)
        out += data
        out.append(0)
        tag = _EXACT_TAGS.get(type(value))
        if tag is None or (tag == TAG_INT32 and not _INT32_MIN <= value <= _INT32_MAX):
            tag = _tag_of(value)
        out[at] = tag
        if tag == TAG_STRING:
            data = value.encode("utf-8")
            out += _U32.pack(len(data) + 1) + data + b"\x00"
        elif tag == TAG_DOCUMENT:
            _encode_into(out, value.items(), False)
        elif tag == TAG_ARRAY:
            _encode_into(out, enumerate(value), True)
        elif tag == TAG_BOOLEAN:
            out.append(1 if value else 0)
        elif tag != TAG_NULL:
            out += _NUMBER_STRUCTS[tag].pack(value)
    out.append(0)
    _U32.pack_into(out, start, len(out) - start)


def encode_document(doc: Mapping[str, Any]) -> bytes:
    """Encode a mapping into its self-delimiting binary form.

    Field order is preserved. Raises:
        UnsupportedType: for values outside the supported subset or
            invalid field names.
    """
    out = bytearray()
    _encode_into(out, doc.items(), False)
    return bytes(out)


# The least length prefix of each tag whose value carries one: a string's
# counts its NUL, a document's its own prefix and terminator.
_PREFIXED_MIN = {TAG_STRING: 1, TAG_DOCUMENT: 5, TAG_ARRAY: 5}


def elements(data: bytes, start: int = 0, end: int | None = None
             ) -> Iterator[tuple[int, str, int, int]]:
    """Walk the document that fills ``data[start:end]`` by its length prefixes.

    Yields ``(tag, name, value_start, value_end)`` per element, where
    ``data[value_start:value_end]`` is the value. The document's length and
    terminator are checked before the first element; each element gets a
    known tag, a UTF-8 name and a value length inside the document. The
    inside of a string or subdocument value is not looked at.

    Raises:
        MalformedDocument: on the first framing violation the walk reaches.
    """
    if end is None:
        end = len(data)
    if end - start < 5:
        raise MalformedDocument(f"document needs at least 5 bytes, have {end - start}")
    (total,) = _U32.unpack_from(data, start)
    if total != end - start:
        raise MalformedDocument(f"bad document length prefix {total}")
    if data[end - 1] != 0:
        raise MalformedDocument("missing document terminator")
    pos, end = start + 4, end - 1
    while pos < end:
        tag = data[pos]
        nul = data.find(b"\x00", pos + 1, end)
        if nul < 0:
            raise MalformedDocument("unterminated field name")
        try:
            name = data[pos + 1:nul].decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedDocument("field name is not valid UTF-8") from None
        pos = nul + 1
        size = _FIXED_SIZES.get(tag)
        if size is None:
            least = _PREFIXED_MIN.get(tag)
            if least is None:
                raise MalformedDocument(f"unknown element tag {tag:#04x}")
            if pos + 4 > end:
                raise MalformedDocument("document truncated")
            (size,) = _U32.unpack_from(data, pos)
            if size < least:
                raise MalformedDocument(f"bad value length {size}")
            if tag == TAG_STRING:
                size += 4
        if pos + size > end:
            raise MalformedDocument("document truncated")
        yield tag, name, pos, pos + size
        pos += size


def fields(data: bytes, start: int = 0, end: int | None = None) -> dict[str, tuple[int, int, int]]:
    """``(tag, value_start, value_end)`` by name for each of ``elements``; a
    repeated name keeps its last value in its first place, as decoding does."""
    return {name: (tag, vstart, vend) for tag, name, vstart, vend in elements(data, start, end)}


def decode_value(tag: int, data: bytes, start: int, end: int, depth: int = 0) -> Any:
    """Decode the value of tag ``tag`` at ``data[start:end]``, a range
    ``elements`` yields.

    Raises:
        MalformedDocument: on any encoding violation inside the value.
    """
    if tag == TAG_DOUBLE:
        return _F64.unpack_from(data, start)[0]
    if tag == TAG_STRING:
        if data[end - 1] != 0:
            raise MalformedDocument("unterminated string")
        try:
            return data[start + 4:end - 1].decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedDocument("string is not valid UTF-8") from None
    if tag == TAG_DOCUMENT or tag == TAG_ARRAY:
        sub = _decode_document_at(data, start, end, depth + 1)
        return list(sub.values()) if tag == TAG_ARRAY else sub
    if tag == TAG_BOOLEAN:
        b = data[start]
        if b not in (0, 1):
            raise MalformedDocument(f"invalid boolean byte {b:#04x}")
        return b == 1
    if tag == TAG_NULL:
        return None
    if tag == TAG_INT32:
        return _I32.unpack_from(data, start)[0]
    return _I64.unpack_from(data, start)[0]  # ``elements`` admits no other tag


def _decode_document_at(data: bytes, start: int, end: int, depth: int) -> dict[str, Any]:
    """``elements`` and ``decode_value`` in one loop: the same checks in the
    same order, with int32, string, document and array values decoded here."""
    if depth > MAX_DOCUMENT_DEPTH:
        raise MalformedDocument("document nesting too deep")
    if end - start < 5:
        raise MalformedDocument(f"document needs at least 5 bytes, have {end - start}")
    (total,) = _U32.unpack_from(data, start)
    if total != end - start:
        raise MalformedDocument(f"bad document length prefix {total}")
    if data[end - 1] != 0:
        raise MalformedDocument("missing document terminator")
    doc = {}
    pos, end = start + 4, end - 1
    while pos < end:
        tag = data[pos]
        nul = data.find(b"\x00", pos + 1, end)
        if nul < 0:
            raise MalformedDocument("unterminated field name")
        try:
            name = data[pos + 1:nul].decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedDocument("field name is not valid UTF-8") from None
        pos = nul + 1
        if tag == TAG_INT32 and pos + 4 <= end:  # one cut short fails below
            doc[name] = _I32.unpack_from(data, pos)[0]
            pos += 4
            continue
        least = _PREFIXED_MIN.get(tag)
        if least is None:
            size = _FIXED_SIZES.get(tag)
            if size is None:
                raise MalformedDocument(f"unknown element tag {tag:#04x}")
            if pos + size > end:
                raise MalformedDocument("document truncated")
            doc[name] = decode_value(tag, data, pos, pos + size, depth)
            pos += size
            continue
        if pos + 4 > end:
            raise MalformedDocument("document truncated")
        (size,) = _U32.unpack_from(data, pos)
        if size < least:
            raise MalformedDocument(f"bad value length {size}")
        vend = pos + size + 4 if tag == TAG_STRING else pos + size
        if vend > end:
            raise MalformedDocument("document truncated")
        if tag == TAG_STRING:
            if data[vend - 1] != 0:
                raise MalformedDocument("unterminated string")
            try:
                doc[name] = data[pos + 4:vend - 1].decode("utf-8")
            except UnicodeDecodeError:
                raise MalformedDocument("string is not valid UTF-8") from None
        else:
            sub = _decode_document_at(data, pos, vend, depth + 1)
            doc[name] = list(sub.values()) if tag == TAG_ARRAY else sub
        pos = vend
    return doc


def decode_document(data: bytes) -> dict[str, Any]:
    """Decode one encoded document occupying exactly ``data``.

    Raises:
        MalformedDocument: on any encoding violation (the declared length
            must equal ``len(data)``).
    """
    return _decode_document_at(data, 0, len(data), 0)


def peek_first_field(body: bytes) -> str | None:
    """Return the first element's field name, or None if unreadable.

    Cheap lookahead used for flow classification; it does not validate
    the rest of the document.
    """
    if len(body) < 7:
        return None
    nul = body.find(b"\x00", 5)
    if nul < 0:
        return None
    try:
        return body[5:nul].decode("utf-8")
    except UnicodeDecodeError:
        return None


def _read_exact(stream, n: int) -> bytes:
    chunk = stream.read(n)
    if len(chunk) == n:
        return chunk
    if chunk:
        raise TruncatedMessage(f"stream ended {n - len(chunk)} bytes short")
    raise ConnectionClosed("stream closed")


def read_message(stream, max_bytes: int = DEFAULT_MAX_MESSAGE_BYTES) -> RawMessage:
    """Read one complete message from a stream whose ``read(n)`` returns
    fewer than ``n`` bytes only at its end: a ``loop.Leg`` once
    ``frame_ready``, an ``io.BytesIO``, or a socket's ``makefile("rb")``.

    Raises:
        ConnectionClosed: clean EOF on a message boundary.
        TruncatedMessage: EOF in the middle of a message.
        OversizeMessage: declared length exceeds ``max_bytes``.
        TruncatedHeader: declared length cannot contain a full header.
    """
    prefix = _read_exact(stream, 4)
    (length,) = _U32.unpack(prefix)
    if length > max_bytes:
        raise OversizeMessage(f"message length {length} exceeds limit {max_bytes}")
    if length < HEADER_SIZE:
        raise TruncatedHeader(f"message length {length} cannot hold a header")
    # The rest of the header, then the body, so that the body is read
    # (and, out of a ``loop.Leg``, copied) once. The length was checked first
    # so that a bad one fails before waiting for bytes it promised.
    try:
        head = _read_exact(stream, HEADER_PREFIX_SIZE - 4)
        body = _read_exact(stream, length - HEADER_PREFIX_SIZE)
    except ConnectionClosed:
        raise TruncatedMessage("stream ended after length prefix") from None
    return RawMessage(decode_header(prefix + head + body[:4]), body)


def write_message(stream, m: RawMessage) -> None:
    """Write one message; emits exactly ``m.header.length`` bytes.

    Raises:
        ConnectionClosed: if the peer has gone away.
    """
    data = m.to_bytes()
    try:
        stream.write(data)
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise ConnectionClosed(str(exc)) from None
