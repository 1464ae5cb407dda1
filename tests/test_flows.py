from __future__ import annotations

import random

from netkvcache.flows import FlowClass, classify_client
from netkvcache.wire import MessageHeader, RawMessage, encode_document
from support import random_document


def message(body_doc: dict, op_code=2013, request_id=1, response_to=0) -> RawMessage:
    body = encode_document(body_doc)
    return RawMessage(
        MessageHeader(21 + len(body), request_id, response_to, op_code, 0, 0, len(body)),
        body,
    )


def test_find_is_manipulation():
    m = message({"find": "phrases", "filter": {"_id": {"$eq": 42}}})
    assert classify_client(m) is FlowClass.MANIPULATION


def test_all_command_keywords_are_manipulation():
    for keyword in ("find", "insert", "update", "delete"):
        assert classify_client(message({keyword: "c"})) is FlowClass.MANIPULATION


def test_ping_on_2013_is_coordination():
    assert classify_client(message({"ping": 1})) is FlowClass.COORDINATION


def test_other_opcode_is_coordination():
    m = message({"find": "phrases"}, op_code=2010)
    assert classify_client(m) is FlowClass.COORDINATION


def test_undecodable_body_is_coordination():
    m = RawMessage(MessageHeader(25, 1, 0, 2013, 0, 0, 4), b"\xff\xff\xff\xff")
    assert classify_client(m) is FlowClass.COORDINATION


def test_classification_total_over_random_messages():
    rng = random.Random(3)
    for i in range(500):
        m = message(random_document(rng), op_code=rng.choice([2013, 1, 2012]), request_id=i)
        assert classify_client(m) in (FlowClass.MANIPULATION, FlowClass.COORDINATION)
