from __future__ import annotations

import itertools
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from netkvcache import engine, wire
from netkvcache.engine import (
    Command,
    CommandKind,
    extract_key,
    handle_client,
    handle_server,
    parse_command,
    response_is_cacheable,
    store_key,
    synthesize_response,
)
from netkvcache.storage import CacheStore, canonical_key
from netkvcache.wire import (
    MalformedDocument,
    MessageHeader,
    RawMessage,
    decode_document,
    encode_document,
)


def message(body_doc: dict, request_id=1, response_to=0, op_code=2013) -> RawMessage:
    body = encode_document(body_doc)
    return RawMessage(
        MessageHeader(21 + len(body), request_id, response_to, op_code, 0, 0, len(body)),
        body,
    )


def cursor_response(docs: list, response_to: int, ok: float = 1.0) -> RawMessage:
    return message(
        {"cursor": {"firstBatch": docs, "id": 0, "ns": "kv.phrases"}, "ok": ok},
        request_id=1000, response_to=response_to,
    )


# -- extract_key ------------------------------------------------------------------


def test_extract_key_explicit_eq():
    assert extract_key({"_id": {"$eq": 42}}) == canonical_key(42)


def test_extract_key_implicit_eq():
    assert extract_key({"_id": 42}) == canonical_key(42)


def test_extract_key_range_operator_is_none():
    assert extract_key({"_id": {"$gt": 10}}) is None


def test_extract_key_compound_filter_is_none():
    assert extract_key({"_id": 1, "other": 2}) is None
    assert extract_key({"_id": {"$eq": 1, "$lt": 5}}) is None


def test_extract_key_wrong_field_is_none():
    assert extract_key({"name": "x"}) is None


def test_extract_key_non_scalar_is_none():
    assert extract_key({"_id": {"$eq": {"nested": 1}}}) is None
    assert extract_key({"_id": [1, 2]}) is None


def test_extract_key_null_scalar():
    assert extract_key({"_id": None}) == canonical_key(None)


def test_extract_key_degenerate_shapes():
    assert extract_key(None) is None
    assert extract_key({}) is None
    assert extract_key("nope") is None


# -- parse_command ------------------------------------------------------------------


def test_parse_find_with_eq_filter():
    cmd = parse_command(message({"find": "phrases", "filter": {"_id": {"$eq": 42}}}))
    assert cmd.kind is CommandKind.FIND
    assert cmd.key == store_key("phrases", canonical_key(42))


def test_parse_insert_of_one_document_is_keyed_by_its_id():
    cmd = parse_command(message({"insert": "phrases", "documents": [{"_id": 1}]}))
    assert cmd.kind is CommandKind.INSERT
    assert cmd.key == store_key("phrases", canonical_key(1))


def test_parse_insert_without_one_keyed_document_has_no_key():
    for documents in ([{"_id": 1}, {"_id": 2}], [{"v": 1}], [{"_id": {"a": 1}}], [], [7], "x"):
        cmd = parse_command(message({"insert": "phrases", "documents": documents}))
        assert (cmd.kind, cmd.key) == (CommandKind.INSERT, None), documents


def test_parse_update_single_statement():
    cmd = parse_command(message(
        {"update": "phrases", "updates": [{"q": {"_id": 7}, "u": {"$set": {"x": 1}}}]}
    ))
    assert cmd.kind is CommandKind.UPDATE
    assert cmd.key == store_key("phrases", canonical_key(7))


def test_parse_delete_single_statement():
    cmd = parse_command(message({"delete": "phrases", "deletes": [{"q": {"_id": 9}, "limit": 1}]}))
    assert cmd.kind is CommandKind.DELETE
    assert cmd.key == store_key("phrases", canonical_key(9))


def test_parse_update_compound_filter_keeps_kind_without_key():
    cmd = parse_command(message(
        {"update": "phrases", "updates": [{"q": {"_id": {"$gt": 3}}, "u": {}}]}
    ))
    assert cmd.kind is CommandKind.UPDATE
    assert cmd.key is None


def test_parse_multi_statement_update_is_bypass():
    cmd = parse_command(message(
        {"update": "phrases", "updates": [{"q": {"_id": 1}}, {"q": {"_id": 2}}]}
    ))
    assert cmd.kind is CommandKind.BYPASS


def test_parse_find_without_filter_has_no_key():
    cmd = parse_command(message({"find": "phrases"}))
    assert cmd.kind is CommandKind.FIND
    assert cmd.key is None


def test_parse_collection_not_named_by_a_string_has_no_key():
    for kind, body in [
        (CommandKind.FIND, {"find": 5, "filter": {"_id": 1}}),
        (CommandKind.UPDATE, {"update": 5, "updates": [{"q": {"_id": 1}, "u": {"$set": {}}}]}),
        (CommandKind.DELETE, {"delete": None, "deletes": [{"q": {"_id": 1}, "limit": 1}]}),
    ]:
        cmd = parse_command(message(body))
        assert (cmd.kind, cmd.key) == (kind, None)


def test_parse_unknown_first_field_is_bypass():
    assert parse_command(message({"aggregate": "x"})).kind is CommandKind.BYPASS


def test_parse_undecodable_body_is_bypass():
    m = RawMessage(MessageHeader(25, 1, 0, 2013, 0, 0, 4), b"\x00\x00\x00\x00")
    assert parse_command(m).kind is CommandKind.BYPASS


# -- synthesize_response --------------------------------------------------------------


def test_synthesized_response_correlates_and_replays_body():
    request = message({"find": "phrases", "filter": {"_id": 4}}, request_id=77)
    stored = cursor_response([{"_id": 4, "phrase": "zzz"}], response_to=0).body
    ids = itertools.count(500)
    resp = synthesize_response(request, stored, lambda: next(ids))
    assert resp.header.response_to == 77
    assert resp.header.request_id == 500
    assert resp.header.op_code == 2013
    assert resp.header.payload_type == 0
    assert resp.header.length == 21 + len(stored)
    assert resp.header.payload_size == len(stored)
    assert resp.body == stored
    assert resp.to_bytes()[21:] == stored


# -- response_is_cacheable --------------------------------------------------------------


def test_cacheable_requires_ok_and_nonempty_batch():
    assert response_is_cacheable(cursor_response([{"_id": 1}], 5).body)
    assert not response_is_cacheable(cursor_response([], 5).body)
    assert not response_is_cacheable(cursor_response([{"_id": 1}], 5, ok=0.0).body)
    assert not response_is_cacheable(encode_document({"n": 1, "ok": 1.0}))
    assert not response_is_cacheable(b"\xff\xff")


def decoded_cacheable(body: bytes) -> bool:
    """The reference: decode the whole reply, then look at the fields."""
    try:
        doc = decode_document(body)
    except MalformedDocument:
        return False
    if doc.get("ok") != 1:
        return False
    cursor = doc.get("cursor")
    if not isinstance(cursor, dict) or cursor.get("id", 0) != 0:
        return False
    batch = cursor.get("firstBatch")
    return isinstance(batch, list) and len(batch) > 0


# Raw documents built by hand, so that they can hold what the encoder never
# writes: repeated names, and names the decoder folds into one dict entry.

def raw_doc(*elements: bytes) -> bytes:
    body = b"".join(elements) + b"\x00"
    return (len(body) + 4).to_bytes(4, "little") + body


def raw_element(tag: int, name: str, value: bytes) -> bytes:
    return bytes([tag]) + name.encode() + b"\x00" + value


def framed_elements(data: bytes, start: int, end: int):
    """An independent check that ``data[start:end]`` is one well-framed
    document: its length and terminator, then each element's tag, name and
    value length as it is reached. Yields ``(tag, name, value_start,
    value_end)`` per element."""
    assert end - start >= 5 and int.from_bytes(data[start:start + 4], "little") == end - start
    assert data[end - 1] == 0
    sizes = {0x01: 8, 0x08: 1, 0x0A: 0, 0x10: 4, 0x12: 8}
    pos = start + 4
    while pos < end - 1:
        tag = data[pos]
        nul = data.index(b"\x00", pos + 1, end - 1)
        name = data[pos + 1:nul].decode("utf-8")
        pos = nul + 1
        if tag in sizes:
            size = sizes[tag]
        else:
            assert tag in (0x02, 0x03, 0x04)
            n = int.from_bytes(data[pos:pos + 4], "little")
            assert n >= (1 if tag == 0x02 else 5)
            size = n + 4 if tag == 0x02 else n
        assert pos + size <= end - 1
        yield tag, name, pos, pos + size
        pos += size


def last_named(fields, name):
    return [f for f in fields if f[1] == name][-1]


OK_VALUES = st.sampled_from([
    raw_element(0x01, "ok", struct.pack("<d", 1.0)),
    raw_element(0x01, "ok", struct.pack("<d", 0.0)),
    raw_element(0x01, "ok", struct.pack("<d", 1.5)),
    raw_element(0x10, "ok", (1).to_bytes(4, "little")),
    raw_element(0x10, "ok", (0).to_bytes(4, "little")),
    raw_element(0x12, "ok", (1).to_bytes(8, "little")),
    raw_element(0x12, "ok", (1 << 32 | 1).to_bytes(8, "little")),
    raw_element(0x08, "ok", b"\x01"),
    raw_element(0x08, "ok", b"\x00"),
    raw_element(0x02, "ok", (2).to_bytes(4, "little") + b"1\x00"),
    raw_element(0x0A, "ok", b""),
    raw_element(0x03, "ok", raw_doc()),
])
OTHER = st.sampled_from([
    raw_element(0x10, "id", (0).to_bytes(4, "little")),
    raw_element(0x12, "id", (42).to_bytes(8, "little")),
    raw_element(0x02, "ns", (11).to_bytes(4, "little") + b"kv.phrases\x00"),
    raw_element(0x0A, "n", b""),
])
BATCH_ITEM = st.sampled_from([
    raw_doc(raw_element(0x10, "_id", (7).to_bytes(4, "little"))),
    raw_doc(),
    raw_doc(raw_element(0x02, "s", (3).to_bytes(4, "little") + b"ab\x00")),
])


@st.composite
def batch_fields(draw, good=False):
    items = draw(st.lists(BATCH_ITEM, min_size=int(good), max_size=3))
    tag = 0x04 if good else draw(st.sampled_from([0x04, 0x03]))
    return raw_element(tag, "firstBatch",
                       raw_doc(*(raw_element(0x03, str(i), d) for i, d in enumerate(items))))


@st.composite
def cursor_fields(draw, good=False):
    inner = draw(st.lists(st.one_of(batch_fields(), OTHER), max_size=3))
    if good:
        inner.insert(draw(st.integers(0, len(inner))), draw(batch_fields(good=True)))
    tag = 0x03 if good else draw(st.sampled_from([0x03, 0x04]))
    return raw_element(tag, "cursor", raw_doc(*inner))


@st.composite
def cursor_replies(draw):
    """A reply, often malformed: repeated ``ok``/``cursor``/``firstBatch``
    names, ``ok`` of every type, a cursor that is an array and a batch that
    is a document, empty batches, then maybe a truncation or byte flips.
    Half of them hold a cacheable ``cursor`` and ``ok`` somewhere, which
    a later repeat of the name may override."""
    fields = draw(st.lists(st.one_of(OK_VALUES, cursor_fields(), OTHER), max_size=4))
    if draw(st.booleans()):
        fields.insert(draw(st.integers(0, len(fields))), draw(cursor_fields(good=True)))
        ok = raw_element(0x01, "ok", struct.pack("<d", 1.0))
        fields.insert(draw(st.integers(0, len(fields))), ok)
    body = bytearray(raw_doc(*fields))
    damage = draw(st.sampled_from(["none", "none", "truncate", "flip", "flip_zero"]))
    if damage == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    elif damage == "flip":
        for at in draw(st.lists(st.integers(0, len(body) - 1), min_size=1, max_size=3)):
            body[at] ^= draw(st.integers(1, 255))
    elif damage == "flip_zero":  # a terminator, a name's end or a length byte
        body[draw(st.sampled_from([i for i, b in enumerate(body) if b == 0]))] = draw(
            st.integers(1, 255))
    return bytes(body)


@settings(max_examples=600, deadline=None)
@given(cursor_replies())
def test_scan_agrees_with_decode_and_accepts_only_framed_replies(body):
    got = response_is_cacheable(body)  # (b) never raises
    try:
        decode_document(body)
    except MalformedDocument:
        pass
    else:
        assert got == decoded_cacheable(body)  # (a)
    if got:  # (c)
        top = list(framed_elements(body, 0, len(body)))
        ok_tag, _, start, end = last_named(top, "ok")
        assert (ok_tag, body[start:end]) in {
            (0x01, struct.pack("<d", 1.0)), (0x10, (1).to_bytes(4, "little")),
            (0x12, (1).to_bytes(8, "little")), (0x08, b"\x01")}
        tag, _, start, end = last_named(top, "cursor")
        assert tag == 0x03
        tag, _, start, end = last_named(list(framed_elements(body, start, end)), "firstBatch")
        assert tag == 0x04
        assert next(framed_elements(body, start, end), None) is not None


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=80))
def test_scan_never_raises_on_any_bytes(data):
    assert response_is_cacheable(data) in (True, False)
    assert response_is_cacheable((len(data) + 4).to_bytes(4, "little") + data) in (True, False)


def test_scan_checks_the_framing_of_what_it_walks():
    good = cursor_response([{"_id": 1}], 5).body
    assert response_is_cacheable(good)

    def damaged(at: int, byte: int) -> bytes:
        return good[:at] + bytes([byte]) + good[at + 1:]

    def value_end(name: bytes) -> int:
        at = good.index(name + b"\x00") + len(name) + 1
        return at + int.from_bytes(good[at:at + 4], "little")

    for body in (
        damaged(len(good) - 1, 1),                    # top-level terminator
        damaged(value_end(b"cursor") - 1, 1),         # cursor's terminator
        damaged(value_end(b"firstBatch") - 1, 1),     # batch's terminator
        damaged(good.index(b"\x10id\x00") + 1, 0xFF),  # a cursor name that is not UTF-8
        damaged(good.index(b"firstBatch\x00") + 15, 0x7F),  # first batch element's tag
        good[:-1],                                    # truncated
    ):
        assert not response_is_cacheable(body)


def test_cacheable_scans_without_decoding(monkeypatch):
    def refuse(data):
        raise AssertionError("response_is_cacheable decoded the reply")

    monkeypatch.setattr(engine, "decode_document", refuse)
    monkeypatch.setattr(wire, "decode_document", refuse)
    items = [{"i": j, "s": "abcdefghi"} for j in range(2000)]
    assert response_is_cacheable(cursor_response([{"_id": 1, "items": items}], 5).body)
    assert not response_is_cacheable(cursor_response([], 5).body)
    assert not response_is_cacheable(cursor_response([{"_id": 1}], 5, ok=0.0).body)


# -- handlers ----------------------------------------------------------------------------


class Session:
    """The session's half of the engine: a hit goes downstream, anything
    else upstream, and every server message downstream after it settles."""

    def __init__(self, capacity=10):
        self.store = CacheStore(capacity)
        self.pending: dict = {}
        self.upstream: list[RawMessage] = []
        self.downstream: list[RawMessage] = []
        self._ids = itertools.count(1)

    def client(self, m: RawMessage) -> None:
        hit = handle_client(parse_command(m), self.store, self.pending, self._ids.__next__)
        if hit is None:
            self.upstream.append(m)
        else:
            self.downstream.append(hit)

    def server(self, m: RawMessage) -> None:
        assert handle_server(m, self.store, self.pending) is None
        self.downstream.append(m)


def test_second_find_served_locally_single_upstream_forward():
    s = Session()
    find1 = message({"find": "p", "filter": {"_id": 5}}, request_id=1)
    s.client(find1)
    assert len(s.upstream) == 1 and s.upstream[0] is find1
    assert s.downstream == []

    response = cursor_response([{"_id": 5, "v": "a"}], response_to=1)
    s.server(response)
    assert s.downstream == [response]
    assert len(s.pending) == 0

    find2 = message({"find": "p", "filter": {"_id": 5}}, request_id=2)
    s.client(find2)
    assert len(s.upstream) == 1  # still exactly one upstream find
    assert len(s.downstream) == 2
    hit = s.downstream[-1]
    assert hit.header.response_to == 2
    assert hit.body == response.body


def test_update_invalidates_then_find_misses_and_forwards():
    s = Session()
    s.client(message({"find": "p", "filter": {"_id": 5}}, request_id=1))
    s.server(cursor_response([{"_id": 5}], response_to=1))

    update = message({"update": "p", "updates": [{"q": {"_id": 5}, "u": {"$set": {"x": 1}}}]},
                     request_id=2)
    s.client(update)
    assert s.upstream[-1] is update

    find2 = message({"find": "p", "filter": {"_id": 5}}, request_id=3)
    s.client(find2)
    assert s.upstream[-1] is find2  # miss: forwarded, not served locally
    assert s.store.snapshot_stats().invalidations >= 1


def test_unkeyed_write_invalidates_everything():
    s = Session()
    for key, rid in ((1, 1), (2, 2)):
        s.client(message({"find": "p", "filter": {"_id": key}}, request_id=rid))
        s.server(cursor_response([{"_id": key}], response_to=rid))
    assert s.store.entry_count() == 2

    delete = message({"delete": "p", "deletes": [{"q": {"_id": {"$lt": 10}}, "limit": 0}]},
                     request_id=3)
    s.client(delete)
    assert s.store.entry_count() == 0


def test_bypass_find_forwards_verbatim_and_counts():
    s = Session()
    gt_find = message({"find": "p", "filter": {"_id": {"$gt": 10}}}, request_id=1)
    s.client(gt_find)
    assert s.upstream == [gt_find]
    assert len(s.pending) == 0
    assert s.store.snapshot_stats().bypasses == 1

    # its response is untracked and passes through unchanged
    response = cursor_response([{"_id": 11}], response_to=1)
    s.server(response)
    assert s.downstream == [response]
    assert s.store.entry_count() == 0


def test_insert_invalidates_its_id_and_is_tracked():
    s = Session()
    s.client(message({"find": "p", "filter": {"_id": 1}}, request_id=1))
    s.server(cursor_response([{"_id": 1}], response_to=1))
    assert s.store.entry_count() == 1
    insert = message({"insert": "p", "documents": [{"_id": 1, "v": "x"}]}, request_id=2)
    s.client(insert)
    assert s.upstream[-1] == insert
    assert s.store.entry_count() == 0 and 2 in s.pending
    assert s.store.snapshot_stats().bypasses == 0


def test_live_cursor_reply_is_not_stored():
    s = Session()
    s.client(message({"find": "p", "filter": {"_id": 1}}, request_id=1))
    live = message({"cursor": {"firstBatch": [{"_id": 1}], "id": 42, "ns": "kv.p"}, "ok": 1.0},
                   request_id=1000, response_to=1)
    assert not response_is_cacheable(live.body)
    s.server(live)
    assert s.downstream == [live] and s.store.entry_count() == 0
    s.client(message({"find": "p", "filter": {"_id": 1}}, request_id=2))
    assert len(s.upstream) == 2
    assert s.store.snapshot_stats().misses == 2


def test_empty_batch_response_not_cached():
    s = Session()
    s.client(message({"find": "p", "filter": {"_id": 404}}, request_id=1))
    response = cursor_response([], response_to=1)
    s.server(response)
    assert s.downstream == [response]
    assert s.store.entry_count() == 0
    # the next identical find must go upstream again
    s.client(message({"find": "p", "filter": {"_id": 404}}, request_id=2))
    assert len(s.upstream) == 2


def test_write_ack_reinvalidates_key():
    s = Session()
    update = message({"update": "p", "updates": [{"q": {"_id": 5}, "u": {"$set": {}}}]},
                     request_id=1)
    s.client(update)
    assert len(s.pending) == 1

    # A concurrent miss takes its token between the write and its ack;
    # the ack-side invalidation must reject that fill.
    result = s.store.get(store_key("p", canonical_key(5)))
    ack = message({"n": 1, "nModified": 1, "ok": 1.0}, request_id=900, response_to=1)
    s.server(ack)
    assert s.downstream == [ack]
    assert len(s.pending) == 0
    from netkvcache.storage import PutOutcome
    assert s.store.put(store_key("p", canonical_key(5)), b"stale",
                       result.token) is PutOutcome.REJECTED_STALE


def test_pending_empty_after_quiesce():
    s = Session()
    for rid in range(1, 6):
        s.client(message({"find": "p", "filter": {"_id": rid}}, request_id=rid))
    assert len(s.pending) == 5
    for rid in range(1, 6):
        s.server(cursor_response([{"_id": rid}], response_to=rid))
    assert len(s.pending) == 0


def test_monotone_benefit_capacity_equals_keyspace():
    s = Session(capacity=20)
    import random
    rng = random.Random(12)
    rid = itertools.count(1)
    upstream_finds = 0
    for _ in range(400):
        key = rng.randint(1, 20)
        r = next(rid)
        before = len(s.upstream)
        s.client(message({"find": "p", "filter": {"_id": key}}, request_id=r))
        if len(s.upstream) > before:
            upstream_finds += 1
            s.server(cursor_response([{"_id": key}], response_to=r))
    assert upstream_finds == len({r.key for r in map(parse_command, s.upstream)})
    assert upstream_finds == s.store.snapshot_stats().misses
    assert upstream_finds <= 20
