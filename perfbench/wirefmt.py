"""Client-side encoder and framer for the proxy's wire protocol.

The load generator builds its own messages from FORMAT.md instead of
importing the program's codec, so a change to ``netkvcache.wire`` can
neither break the generator nor move its cost.
"""

from __future__ import annotations

import struct

HEADER_PREFIX = struct.Struct("<IiiiIB")
HEADER_PREFIX_SIZE = HEADER_PREFIX.size  # 21; the body's own length prefix follows
MANIPULATION_OPCODE = 2013
U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
REPLY_IDS = struct.Struct("<ii")  # request_id, response_to at offset 4
COLLECTION = "phrases"


def _value(value, out: bytearray) -> int:
    if isinstance(value, float):
        out += _F64.pack(value)
        return 0x01
    if isinstance(value, str):
        data = value.encode()
        out += U32.pack(len(data) + 1) + data + b"\x00"
        return 0x02
    if isinstance(value, dict):
        out += encode(value)
        return 0x03
    if isinstance(value, list):
        out += encode({str(i): v for i, v in enumerate(value)})
        return 0x04
    if isinstance(value, int):
        if -(2**31) <= value < 2**31:
            out += _I32.pack(value)
            return 0x10
        out += _I64.pack(value)
        return 0x12
    raise TypeError(f"cannot encode {type(value).__name__}")


def encode(doc: dict) -> bytes:
    """Encode a document of ints, floats, strings, documents and arrays."""
    body = bytearray()
    for name, value in doc.items():
        element = bytearray()
        tag = _value(value, element)
        body.append(tag)
        body += name.encode() + b"\x00"
        body += element
    return U32.pack(len(body) + 5) + bytes(body) + b"\x00"


def frame(request_id: int, body: bytes) -> bytes:
    """One request message carrying ``body``."""
    return HEADER_PREFIX.pack(
        HEADER_PREFIX_SIZE + len(body), request_id, 0, MANIPULATION_OPCODE, 0, 0
    ) + body


def find(key: int) -> bytes:
    return encode({"find": COLLECTION, "filter": {"_id": key}})


def update(sets: list[tuple[int, dict]]) -> bytes:
    """One update statement per (key, fields to $set)."""
    return encode({
        "update": COLLECTION,
        "updates": [{"q": {"_id": key}, "u": {"$set": fields}} for key, fields in sets],
    })
