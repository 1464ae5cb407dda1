"""Per-session cache engine: command parsing and the two message handlers.

The engine decides and the session sends. ``handle_client`` answers a
cacheable read from the store on a hit, returning the reply, and on
anything else returns None: the request goes upstream, tracked first
when its response is to be captured. Writes invalidate before they are
forwarded. ``handle_server`` fills the store from tracked read responses
and settles write acknowledgments; the session then forwards the
original bytes downstream.

Writes are tracked in the pending table too: when a write's
acknowledgment comes back, the key is invalidated a second time. This
closes the window where a concurrent read, forwarded after the
invalidation but served by the server before the write applied, could
re-fill the store with the overwritten value.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, NamedTuple

from .flows import COMMAND_KEYWORDS
from .storage import CacheKey, CacheStore, FillToken, Hit, canonical_key
from .wire import (
    TAG_ARRAY, TAG_DOCUMENT, MalformedDocument, RawMessage, decode_document,
    decode_value, elements, fields, make_message,
)


class CommandKind(enum.Enum):
    # Each kind but BYPASS is named by its flows.COMMAND_KEYWORDS keyword.
    FIND = "find"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    BYPASS = "bypass"


class Command(NamedTuple):
    """A parsed manipulation request.

    ``key`` is the store key (``store_key``), set only when an ``_id``
    equality filter, or an insert's one document's ``_id``, was extracted
    and a string names the collection; anything unparseable degrades to
    BYPASS with the raw message untouched.
    """

    kind: CommandKind
    key: CacheKey | None
    raw: RawMessage


class PendingKind(enum.Enum):
    FIND_FILL = "find_fill"   # a forwarded read miss awaiting its response
    WRITE_KEY = "write_key"   # a forwarded keyed write awaiting its ack
    WRITE_ALL = "write_all"   # a forwarded unkeyed write awaiting its ack


class PendingEntry(NamedTuple):
    """A forwarded request awaiting its response, in a session's pending
    table: a ``dict`` from request id to entry, touched only by the
    proxy's loop thread."""

    kind: PendingKind
    key: CacheKey | None
    token: FillToken | None


def extract_key(filter_doc: Any) -> CacheKey | None:
    """Extract the ``_id`` equality value from a filter document.

    Recognizes exactly ``{"_id": scalar}`` and ``{"_id": {"$eq": scalar}}``
    with no other fields present; range operators, compound filters, and
    non-scalar values return None.
    """
    if not isinstance(filter_doc, dict) or len(filter_doc) != 1 or "_id" not in filter_doc:
        return None
    value = filter_doc["_id"]
    if isinstance(value, dict):
        if len(value) != 1 or "$eq" not in value:
            return None
        value = value["$eq"]
        if isinstance(value, dict):
            return None
    return canonical_key(value)


def store_key(collection: str, key: CacheKey) -> CacheKey:
    """The length-prefixed collection name, then ``key``: one ``_id`` in
    two collections names two store entries."""
    name = collection.encode()
    return len(name).to_bytes(4, "little") + name + key


def _single(body: dict, field: str) -> dict | None:
    """A write's one statement or document; None unless ``field`` lists exactly one."""
    items = body.get(field)
    if isinstance(items, list) and len(items) == 1 and isinstance(items[0], dict):
        return items[0]
    return None


def parse_command(m: RawMessage) -> Command:
    """Parse a manipulation-flow message into a Command.

    Degenerate input never raises: undecodable bodies, unknown shapes,
    and multi-statement updates and deletes all come back as BYPASS. An
    insert is keyed by the ``_id`` of its one document; an insert of
    several documents, or of one without a scalar ``_id``, has no key.
    """
    try:
        body = decode_document(m.body)
    except MalformedDocument:
        return Command(CommandKind.BYPASS, None, m)
    first = next(iter(body), None)
    if first not in COMMAND_KEYWORDS:
        return Command(CommandKind.BYPASS, None, m)
    kind, collection = CommandKind(first), body[first]
    if kind is CommandKind.FIND:
        key = extract_key(body.get("filter"))
    elif kind is CommandKind.INSERT:
        doc = _single(body, "documents")
        key = canonical_key(doc["_id"]) if doc is not None and "_id" in doc else None
    else:
        statement = _single(body, "updates" if kind is CommandKind.UPDATE else "deletes")
        if statement is None:
            kind, key = CommandKind.BYPASS, None
        else:
            key = extract_key(statement.get("q"))
    if key is not None:
        key = store_key(collection, key) if isinstance(collection, str) else None
    return Command(kind, key, m)


def response_is_cacheable(body: bytes) -> bool:
    """True if a response is a successful read with a non-empty batch and
    no live cursor (a ``cursor.id`` other than 0).

    Only such responses are worth replaying for later hits; errors, empty
    results and one session's open cursor are forwarded but never stored.
    The reply is scanned, not decoded: the top level, ``cursor`` and
    ``firstBatch`` are walked by their length prefixes, and the batch only
    up to its first element.
    """
    try:
        top = fields(body)
        ok, cursor = top.get("ok"), top.get("cursor")
        if ok is None or decode_value(ok[0], body, ok[1], ok[2]) != 1:
            return False
        if cursor is None or cursor[0] != TAG_DOCUMENT:
            return False
        inner = fields(body, cursor[1], cursor[2])
        batch, cid = inner.get("firstBatch"), inner.get("id")
        if batch is None or batch[0] != TAG_ARRAY:
            return False
        if cid is not None and decode_value(cid[0], body, cid[1], cid[2]) != 0:
            return False
        return next(elements(body, batch[1], batch[2]), None) is not None
    except MalformedDocument:
        return False


def synthesize_response(
    request: RawMessage, stored_body: bytes, next_id: Callable[[], int]
) -> RawMessage:
    """Build a hit response from a previously captured server body.

    The body is replayed verbatim; the header correlates to the
    triggering request and carries a fresh request id.
    """
    return make_message(next_id(), request.header.request_id, stored_body)


def handle_client(
    cmd: Command,
    store: CacheStore,
    pending: dict[int, PendingEntry],
    next_id: Callable[[], int],
    owed: bool = False,
) -> RawMessage | None:
    """Process one parsed client command; returns the reply to a hit, or
    None when ``cmd.raw`` is to go upstream.

    Reads with a key are answered locally on a hit or tracked on a miss.
    Writes (insert, update, delete) invalidate and are tracked — keyed
    writes their key, unkeyed writes the whole store. Everything else goes
    untracked as a bypass, and so does a keyed read while a reply is
    ``owed``, which a local hit would overtake.
    """
    key, kind = cmd.key, cmd.kind
    if kind is CommandKind.FIND and key is not None and not owed:
        result = store.get(key)
        if isinstance(result, Hit):
            return synthesize_response(cmd.raw, result.body, next_id)
        pending[cmd.raw.header.request_id] = PendingEntry(PendingKind.FIND_FILL, key, result.token)
        return None
    if kind is CommandKind.FIND or kind is CommandKind.BYPASS:
        store.record_bypass()
        return None
    if key is not None:
        store.invalidate(key)
        tracked = PendingKind.WRITE_KEY
    else:
        store.invalidate_all()
        tracked = PendingKind.WRITE_ALL
    pending[cmd.raw.header.request_id] = PendingEntry(tracked, key, None)
    return None


def handle_server(m: RawMessage, store: CacheStore, pending: dict[int, PendingEntry]) -> None:
    """Settle the request a server message answers, if it is tracked.

    A tracked read response is offered to the store (rejections are
    silent, counted in stats); a tracked write acknowledgment
    re-invalidates its key, or the whole store. The message itself is
    left for the session to forward unchanged.
    """
    entry = pending.pop(m.header.response_to, None)
    if entry is None:
        return
    if entry.kind is PendingKind.FIND_FILL:
        if response_is_cacheable(m.body):
            store.put(entry.key, m.body, entry.token)
    elif entry.kind is PendingKind.WRITE_KEY:
        store.invalidate(entry.key)
    else:
        store.invalidate_all()
