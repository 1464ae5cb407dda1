from __future__ import annotations

import itertools

from netkvcache.engine import (
    Command,
    CommandKind,
    PendingTable,
    extract_key,
    handle_client,
    handle_server,
    parse_command,
    response_is_cacheable,
    store_key,
    synthesize_response,
)
from netkvcache.storage import CacheStore, canonical_key
from netkvcache.wire import MessageHeader, RawMessage, encode_document


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
    assert cmd.key == canonical_key(42)
    assert cmd.collection == "phrases"


def test_parse_insert_never_has_key():
    cmd = parse_command(message({"insert": "phrases", "documents": [{"_id": 1}]}))
    assert cmd.kind is CommandKind.INSERT
    assert cmd.key is None


def test_parse_update_single_statement():
    cmd = parse_command(message(
        {"update": "phrases", "updates": [{"q": {"_id": 7}, "u": {"$set": {"x": 1}}}]}
    ))
    assert cmd.kind is CommandKind.UPDATE
    assert cmd.key == canonical_key(7)


def test_parse_delete_single_statement():
    cmd = parse_command(message({"delete": "phrases", "deletes": [{"q": {"_id": 9}, "limit": 1}]}))
    assert cmd.kind is CommandKind.DELETE
    assert cmd.key == canonical_key(9)


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


# -- handlers ----------------------------------------------------------------------------


class Leg:
    def __init__(self):
        self.sent: list[RawMessage] = []

    def __call__(self, m: RawMessage):
        self.sent.append(m)


def engine_env(capacity=10):
    store = CacheStore(capacity)
    pending = PendingTable()
    upstream, downstream = Leg(), Leg()
    ids = itertools.count(1)
    return store, pending, upstream, downstream, (lambda: next(ids))


def drive_client(m, store, pending, upstream, downstream, next_id):
    handle_client(parse_command(m), store, pending, upstream, downstream, next_id)


def test_second_find_served_locally_single_upstream_forward():
    store, pending, upstream, downstream, ids = engine_env()
    find1 = message({"find": "p", "filter": {"_id": 5}}, request_id=1)
    drive_client(find1, store, pending, upstream, downstream, ids)
    assert len(upstream.sent) == 1 and upstream.sent[0] is find1
    assert downstream.sent == []

    response = cursor_response([{"_id": 5, "v": "a"}], response_to=1)
    handle_server(response, store, pending, downstream)
    assert downstream.sent == [response]
    assert len(pending) == 0

    find2 = message({"find": "p", "filter": {"_id": 5}}, request_id=2)
    drive_client(find2, store, pending, upstream, downstream, ids)
    assert len(upstream.sent) == 1  # still exactly one upstream find
    assert len(downstream.sent) == 2
    hit = downstream.sent[-1]
    assert hit.header.response_to == 2
    assert hit.body == response.body


def test_update_invalidates_then_find_misses_and_forwards():
    store, pending, upstream, downstream, ids = engine_env()
    drive_client(message({"find": "p", "filter": {"_id": 5}}, request_id=1),
                 store, pending, upstream, downstream, ids)
    handle_server(cursor_response([{"_id": 5}], response_to=1), store, pending, downstream)

    update = message({"update": "p", "updates": [{"q": {"_id": 5}, "u": {"$set": {"x": 1}}}]},
                     request_id=2)
    drive_client(update, store, pending, upstream, downstream, ids)
    assert upstream.sent[-1] is update

    find2 = message({"find": "p", "filter": {"_id": 5}}, request_id=3)
    drive_client(find2, store, pending, upstream, downstream, ids)
    assert upstream.sent[-1] is find2  # miss: forwarded, not served locally
    assert store.snapshot_stats().invalidations >= 1


def test_unkeyed_write_invalidates_everything():
    store, pending, upstream, downstream, ids = engine_env()
    for key, rid in ((1, 1), (2, 2)):
        drive_client(message({"find": "p", "filter": {"_id": key}}, request_id=rid),
                     store, pending, upstream, downstream, ids)
        handle_server(cursor_response([{"_id": key}], response_to=rid), store, pending, downstream)
    assert store.entry_count() == 2

    delete = message({"delete": "p", "deletes": [{"q": {"_id": {"$lt": 10}}, "limit": 0}]},
                     request_id=3)
    drive_client(delete, store, pending, upstream, downstream, ids)
    assert store.entry_count() == 0


def test_bypass_find_forwards_verbatim_and_counts():
    store, pending, upstream, downstream, ids = engine_env()
    gt_find = message({"find": "p", "filter": {"_id": {"$gt": 10}}}, request_id=1)
    drive_client(gt_find, store, pending, upstream, downstream, ids)
    assert upstream.sent == [gt_find]
    assert len(pending) == 0
    assert store.snapshot_stats().bypasses == 1

    # its response is untracked and passes through unchanged
    response = cursor_response([{"_id": 11}], response_to=1)
    handle_server(response, store, pending, downstream)
    assert downstream.sent == [response]
    assert store.entry_count() == 0


def test_insert_counts_as_bypass_and_forwards():
    store, pending, upstream, downstream, ids = engine_env()
    insert = message({"insert": "p", "documents": [{"_id": 1, "v": "x"}]}, request_id=1)
    drive_client(insert, store, pending, upstream, downstream, ids)
    assert upstream.sent == [insert]
    assert store.snapshot_stats().bypasses == 1


def test_empty_batch_response_not_cached():
    store, pending, upstream, downstream, ids = engine_env()
    drive_client(message({"find": "p", "filter": {"_id": 404}}, request_id=1),
                 store, pending, upstream, downstream, ids)
    response = cursor_response([], response_to=1)
    handle_server(response, store, pending, downstream)
    assert downstream.sent == [response]
    assert store.entry_count() == 0
    # the next identical find must go upstream again
    drive_client(message({"find": "p", "filter": {"_id": 404}}, request_id=2),
                 store, pending, upstream, downstream, ids)
    assert len(upstream.sent) == 2


def test_write_ack_reinvalidates_key():
    store, pending, upstream, downstream, ids = engine_env()
    update = message({"update": "p", "updates": [{"q": {"_id": 5}, "u": {"$set": {}}}]},
                     request_id=1)
    drive_client(update, store, pending, upstream, downstream, ids)
    assert len(pending) == 1

    # A concurrent miss takes its token between the write and its ack;
    # the ack-side invalidation must reject that fill.
    result = store.get(store_key("p", canonical_key(5)))
    ack = message({"n": 1, "nModified": 1, "ok": 1.0}, request_id=900, response_to=1)
    handle_server(ack, store, pending, downstream)
    assert downstream.sent == [ack]
    assert len(pending) == 0

    from netkvcache.storage import PutOutcome
    assert store.put(store_key("p", canonical_key(5)), b"stale",
                     result.token) is PutOutcome.REJECTED_STALE


def test_pending_empty_after_quiesce():
    store, pending, upstream, downstream, ids = engine_env()
    for rid in range(1, 6):
        drive_client(message({"find": "p", "filter": {"_id": rid}}, request_id=rid),
                     store, pending, upstream, downstream, ids)
    assert len(pending) == 5
    for rid in range(1, 6):
        handle_server(cursor_response([{"_id": rid}], response_to=rid), store, pending, downstream)
    assert len(pending) == 0


def test_monotone_benefit_capacity_equals_keyspace():
    store, pending, upstream, downstream, ids = engine_env(capacity=20)
    import random
    rng = random.Random(12)
    rid = itertools.count(1)
    upstream_finds = 0
    for _ in range(400):
        key = rng.randint(1, 20)
        r = next(rid)
        before = len(upstream.sent)
        drive_client(message({"find": "p", "filter": {"_id": key}}, request_id=r),
                     store, pending, upstream, downstream, ids)
        if len(upstream.sent) > before:
            upstream_finds += 1
            handle_server(cursor_response([{"_id": key}], response_to=r),
                          store, pending, downstream)
    assert upstream_finds == len({r.key for r in map(parse_command, upstream.sent)})
    assert upstream_finds == store.snapshot_stats().misses
    assert upstream_finds <= 20
