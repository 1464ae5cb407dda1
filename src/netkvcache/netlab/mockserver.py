"""Protocol-speaking mock key-value server for integration runs.

Serves a seeded table of keys 1..keyspace. Reads answer with a cursor
document (`firstBatch` holding the record, or empty for unknown keys);
writes mutate the in-memory table; anything unrecognized gets a minimal
`ok` acknowledgment so coordination traffic flows. Each collection has
its own table, seeded alike on first use. Find responses are
pre-encoded per collection and key, and a write drops the encoding of
what it changed, keeping serialization noise out of latency
measurements.
"""

from __future__ import annotations

import itertools
import random
import socket
import string

from .. import wire
from ..engine import extract_key
from ..loop import Connection, Leg
from ..storage import canonical_key
from .delay import RouteLoop


def _seeded_phrase(rng: random.Random, size: int) -> str:
    return "".join(rng.choice(string.ascii_letters + " ") for _ in range(size))


class MockKVServer(RouteLoop):
    """Serves every connection on one loop thread: each request's reply is
    built and sent ``processing_delay`` seconds after the request arrived."""

    thread_name = "mock-loop"

    def __init__(
        self,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        keyspace: int = 100,
        seed: int = 1234,
        doc_size: int = 200,
        processing_delay: float = 0.0,
        record_transcript: bool = False,
    ):
        super().__init__(listen)
        self.keyspace = keyspace
        self.processing_delay = processing_delay
        self.record_transcript = record_transcript
        rng = random.Random(seed)
        self._seeded = {  # what each collection's table starts as
            canonical_key(k): {"_id": k, "phrase": _seeded_phrase(rng, doc_size)}
            for k in range(1, keyspace + 1)
        }
        self._tables: dict[str, dict[bytes, dict]] = {}  # collection -> key -> document
        self._encoded_responses: dict[tuple[str, bytes], bytes] = {}  # find replies
        self.transcripts: list[dict[str, list[bytes]]] = []

    def _table(self, collection: str) -> dict[bytes, dict]:
        if collection not in self._tables:
            self._tables[collection] = {k: dict(d) for k, d in self._seeded.items()}
        return self._tables[collection]

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

        leg = Leg(sock, "client", reply, self.processing_delay)
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
        key = extract_key(body.get("filter"))
        encoded = self._encoded_responses.get((collection, key))
        if encoded is not None:
            return encoded
        doc = self._table(collection).get(key) if key is not None else None
        batch = [dict(doc)] if doc is not None else []
        encoded = wire.encode_document({
            "cursor": {"firstBatch": batch, "id": 0, "ns": f"kv.{collection}"},
            "ok": 1.0,
        })
        if doc is not None:
            self._encoded_responses[collection, key] = encoded
        return encoded

    def _insert(self, body: dict, collection: str) -> bytes:
        table = self._table(collection)
        docs = body.get("documents")
        inserted = 0
        if isinstance(docs, list):
            for doc in docs:
                if not isinstance(doc, dict):
                    continue
                key = canonical_key(doc.get("_id"))
                if key is None:
                    continue
                table[key] = dict(doc)
                self._encoded_responses.pop((collection, key), None)
                inserted += 1
        return wire.encode_document({"n": inserted, "ok": 1.0})

    def _update(self, body: dict, collection: str) -> bytes:
        table = self._table(collection)
        statements = body.get("updates")
        modified = 0
        if isinstance(statements, list):
            for statement in statements:
                if not isinstance(statement, dict):
                    continue
                key = extract_key(statement.get("q"))
                if key is None or key not in table:
                    continue
                change = statement.get("u")
                if not isinstance(change, dict):
                    continue
                if isinstance(change.get("$set"), dict):
                    table[key].update(change["$set"])
                else:
                    fresh = dict(change)
                    fresh["_id"] = table[key]["_id"]
                    table[key] = fresh
                self._encoded_responses.pop((collection, key), None)
                modified += 1
        return wire.encode_document({"n": modified, "nModified": modified, "ok": 1.0})

    def _delete(self, body: dict, collection: str) -> bytes:
        table = self._table(collection)
        statements = body.get("deletes")
        removed = 0
        if isinstance(statements, list):
            for statement in statements:
                if not isinstance(statement, dict):
                    continue
                key = extract_key(statement.get("q"))
                if key is not None and key in table:
                    del table[key]
                    self._encoded_responses.pop((collection, key), None)
                    removed += 1
        return wire.encode_document({"n": removed, "ok": 1.0})

