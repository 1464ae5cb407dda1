"""Protocol-speaking mock key-value server for integration runs.

Serves a seeded table of keys 1..keyspace and answers each request as
soon as it is read: distance is the delay pipes' job. Reads answer with a
cursor document (`firstBatch` holding the record, or empty for unknown
keys); writes mutate the in-memory table; anything unrecognized gets a
minimal `ok` acknowledgment so coordination traffic flows. Each
collection has its own table, seeded alike on first use. A table entry
holds a document and its encoded find reply, made when the entry is
seeded, inserted or updated, so a find only looks its reply up.
"""

from __future__ import annotations

import itertools
import random
import socket
import string

from .. import wire
from ..engine import extract_key
from ..loop import Connection, Leg, Loop
from ..storage import canonical_key


def _seeded_phrase(rng: random.Random, size: int) -> str:
    return "".join(rng.choice(string.ascii_letters + " ") for _ in range(size))


def _dicts(value) -> list[dict]:
    """The documents of a list, skipping anything else."""
    return [v for v in value if isinstance(v, dict)] if isinstance(value, list) else []


def _find_reply(collection: str, batch: list[dict]) -> bytes:
    return wire.encode_document({
        "cursor": {"firstBatch": batch, "id": 0, "ns": f"kv.{collection}"},
        "ok": 1.0,
    })


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
        self._seeded = {  # what each collection's table starts as; never mutated
            canonical_key(k): {"_id": k, "phrase": _seeded_phrase(rng, doc_size)}
            for k in range(1, keyspace + 1)
        }
        # collection -> key -> (document, its encoded find reply)
        self._tables: dict[str, dict[bytes, tuple[dict, bytes]]] = {}
        self.transcripts: list[dict[str, list[bytes]]] = []

    def _table(self, collection: str) -> dict[bytes, tuple[dict, bytes]]:
        table = self._tables.get(collection)
        if table is None:
            table = self._tables[collection] = {
                k: (doc, _find_reply(collection, [doc])) for k, doc in self._seeded.items()
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
                transcript["received"].append(m.to_bytes())
                transcript["sent"].append(out.to_bytes())
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
            return self._insert(body, collection)
        if first == "update":
            return self._update(body, collection)
        if first == "delete":
            return self._delete(body, collection)
        return wire.encode_document({"ok": 1.0})

    def _find(self, body: dict, collection: str) -> bytes:
        entry = self._table(collection).get(extract_key(body.get("filter")))
        return entry[1] if entry is not None else _find_reply(collection, [])

    def _insert(self, body: dict, collection: str) -> bytes:
        table = self._table(collection)
        inserted = 0
        for doc in _dicts(body.get("documents")):
            if "_id" in doc and (key := canonical_key(doc["_id"])) is not None:
                table[key] = doc, _find_reply(collection, [doc])
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
            table[key] = fresh, _find_reply(collection, [fresh])
            modified += 1
        return wire.encode_document({"n": modified, "nModified": modified, "ok": 1.0})

    def _delete(self, body: dict, collection: str) -> bytes:
        table = self._table(collection)
        removed = 0
        for statement in _dicts(body.get("deletes")):
            if table.pop(extract_key(statement.get("q")), None) is not None:
                removed += 1
        return wire.encode_document({"n": removed, "ok": 1.0})
