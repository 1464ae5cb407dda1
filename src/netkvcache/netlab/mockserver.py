"""Protocol-speaking mock key-value server for integration runs.

Serves a seeded table of keys 1..keyspace and answers each request as
soon as it is read: distance is the delay pipes' job. Reads answer with a
cursor document (`firstBatch` holding the record, or empty for unknown
keys); writes mutate the in-memory table; anything unrecognized gets a
minimal `ok` acknowledgment so coordination traffic flows. Each
collection has its own table, seeded alike on first use. The mock
validates a request by decoding it, then replays the bytes it received: a
table entry holds a document and its find reply, spliced around the
document's bytes as inserted (or as encoded once when seeded or updated).
"""

from __future__ import annotations

import itertools
import random
import socket
import string
import struct

from .. import wire
from ..engine import extract_key
from ..loop import Connection, Leg, Loop
from ..storage import canonical_key


_u32 = struct.Struct("<I").pack


def _seeded_phrase(rng: random.Random, size: int) -> str:
    return "".join(rng.choice(string.ascii_letters + " ") for _ in range(size))


def _dicts(value) -> list[dict]:
    """The documents of a list, skipping anything else."""
    return [v for v in value if isinstance(v, dict)] if isinstance(value, list) else []


def _find_reply(collection: str, doc: bytes = b"") -> bytes:
    """``encode_document({"cursor": {"firstBatch": [doc], "id": 0, "ns": "kv.<collection>"},
    "ok": 1.0})``, spliced around the encoded ``doc`` (no ``doc``: an empty batch)."""
    batch = b"\x030\x00" + doc if doc else b""
    ns = f"kv.{collection}".encode()
    cursor = 39 + len(batch) + len(ns)  # 4 + 20 (3 heads) + 5 ([]) + 4 (id) + 5 ("") + 1 (NUL)
    return b"".join((
        _u32(cursor + 25), b"\x03cursor\x00", _u32(cursor), b"\x04firstBatch\x00",
        _u32(len(batch) + 5), batch, b"\x00\x10id\x00\x00\x00\x00\x00\x02ns\x00",
        _u32(len(ns) + 1), ns, b"\x00\x00\x01ok\x00" + struct.pack("<d", 1.0) + b"\x00"))


class MockKVServer(Loop):
    """Serves every connection on one loop thread, replying to each request
    as soon as it is read."""

    thread_name = "mock-loop"

    def __init__(
        self,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        keyspace: int = 100,
        seed: int = 1234,
        doc_size: int = 200,
        record_transcript: bool = False,
    ):
        super().__init__(listen)
        self.record_transcript = record_transcript
        rng = random.Random(seed)
        self._seeded = {}  # key -> (document, its encoding): each table's start; never mutated
        for k in range(1, keyspace + 1):
            doc = {"_id": k, "phrase": _seeded_phrase(rng, doc_size)}
            self._seeded[canonical_key(k)] = doc, wire.encode_document(doc)
        # collection -> key -> (document, its find reply)
        self._tables: dict[str, dict[bytes, tuple[dict, bytes]]] = {}
        # one per connection, with record_transcript: the messages it read and wrote
        self.transcripts: list[dict[str, list[wire.RawMessage]]] = []

    def _table(self, collection: str) -> dict[bytes, tuple[dict, bytes]]:
        table = self._tables.get(collection)
        if table is None:
            table = self._tables[collection] = {
                k: (doc, _find_reply(collection, data)) for k, (doc, data) in self._seeded.items()
            }
        return table

    def _accepted(self, sock: socket.socket) -> Connection:
        transcript = {"received": [], "sent": []} if self.record_transcript else None
        if transcript is not None:
            self.transcripts.append(transcript)
        response_ids = itertools.count(1)

        def reply(m: wire.RawMessage) -> None:
            out = wire.make_message(next(response_ids), m.header.request_id, self._respond(m))
            if transcript is not None:
                transcript["received"].append(m)
                transcript["sent"].append(out)
            wire.write_message(leg, out)

        leg = Leg(sock, "client", reply)
        return self.attach(Connection(leg))

    # -- request handling --------------------------------------------------

    def _respond(self, m: wire.RawMessage) -> bytes:
        try:
            body = wire.decode_document(m.body)
        except wire.MalformedDocument:
            return wire.encode_document({"ok": 0.0, "errmsg": "malformed document"})
        if not body:
            return wire.encode_document({"ok": 1.0})
        first = next(iter(body))
        collection = str(body[first])
        if first == "find":
            return self._find(body, collection)
        if first == "insert":
            return self._insert(body, collection, m.body)
        if first == "update":
            return self._update(body, collection)
        if first == "delete":
            return self._delete(body, collection)
        return wire.encode_document({"ok": 1.0})

    def _find(self, body: dict, collection: str) -> bytes:
        entry = self._table(collection).get(extract_key(body.get("filter")))
        return entry[1] if entry is not None else _find_reply(collection)

    def _insert(self, body: dict, collection: str, data: bytes) -> bytes:
        table = self._table(collection)
        inserted = 0
        # ``body`` is ``data`` decoded: pair its documents with their bytes.
        tag, start, end = wire.fields(data).get("documents", (None, 0, 0))
        spans = [(s, e) for t, s, e in wire.fields(data, start, end).values()
                 if t == wire.TAG_DOCUMENT] if tag == wire.TAG_ARRAY else []
        for doc, (start, end) in zip(_dicts(body.get("documents")), spans):
            if "_id" in doc and (key := canonical_key(doc["_id"])) is not None:
                table[key] = doc, _find_reply(collection, data[start:end])
                inserted += 1
        return wire.encode_document({"n": inserted, "ok": 1.0})

    def _update(self, body: dict, collection: str) -> bytes:
        table = self._table(collection)
        modified = 0
        for statement in _dicts(body.get("updates")):
            key = extract_key(statement.get("q"))
            change = statement.get("u")
            if key not in table or not isinstance(change, dict):
                continue
            doc = table[key][0]
            if isinstance(change.get("$set"), dict):
                fresh = doc | change["$set"]
            else:
                fresh = dict(change)
                fresh["_id"] = doc["_id"]
            table[key] = fresh, _find_reply(collection, wire.encode_document(fresh))
            modified += 1
        return wire.encode_document({"n": modified, "nModified": modified, "ok": 1.0})

    def _delete(self, body: dict, collection: str) -> bytes:
        table = self._table(collection)
        removed = 0
        for statement in _dicts(body.get("deletes")):
            if table.pop(extract_key(statement.get("q")), None) is not None:
                removed += 1
        return wire.encode_document({"n": removed, "ok": 1.0})
