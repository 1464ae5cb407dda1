"""Shared helpers for the test suite: seeded random protocol values, a
model of the cache's residency policies, and a client exchange that drops
no message."""

from __future__ import annotations

import random
import string
from collections import OrderedDict

from netkvcache import wire
from netkvcache.netlab.workload import ProtocolClient
from netkvcache.wire import MessageHeader


def random_scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-(2**31), 2**31 - 1)
    if kind == 1:
        return rng.randint(2**31, 2**62)  # forces the 64-bit encoding
    if kind == 2:
        return rng.uniform(-1e9, 1e9)
    if kind == 3:
        return "".join(rng.choice(string.printable) for _ in range(rng.randrange(0, 20)))
    if kind == 4:
        return rng.random() < 0.5
    return None


def random_document(rng: random.Random, depth: int = 0) -> dict:
    doc = {}
    for i in range(rng.randrange(0, 6)):
        name = f"f{i}_" + "".join(rng.choice(string.ascii_letters) for _ in range(3))
        roll = rng.random()
        if depth < 3 and roll < 0.15:
            doc[name] = random_document(rng, depth + 1)
        elif depth < 3 and roll < 0.3:
            doc[name] = [random_scalar(rng) for _ in range(rng.randrange(0, 4))]
        else:
            doc[name] = random_scalar(rng)
    return doc


def random_header(rng: random.Random) -> MessageHeader:
    return MessageHeader(
        length=rng.randrange(0, 2**32),
        request_id=rng.randint(-(2**31), 2**31 - 1),
        response_to=rng.randint(-(2**31), 2**31 - 1),
        op_code=rng.randint(-(2**31), 2**31 - 1),
        flags=rng.randrange(0, 2**32),
        payload_type=rng.randrange(0, 256),
        payload_size=rng.randrange(0, 2**32),
    )


def simulate_outcomes(keys: list[int], capacity: int, policy: str = "noevict") -> list[str]:
    """Label each request hit/miss under the given residency policy.

    Independent model of capacity behavior (a plain ordered set): misses
    populate free slots; at capacity, noevict stops admitting while
    fifo/lru evict the oldest/least-recent resident.
    """
    resident: OrderedDict[int, bool] = OrderedDict()
    out = []
    for k in keys:
        if k in resident:
            out.append("hit")
            if policy == "lru":
                resident.move_to_end(k)
            continue
        out.append("miss")
        if capacity <= 0:
            continue
        if len(resident) >= capacity:
            if policy == "noevict":
                continue
            resident.popitem(last=False)
        resident[k] = True
    return out


def send_and_read(client: ProtocolClient, body_doc: dict) -> wire.RawMessage:
    """Send one request and return the next message read, whatever it answers."""
    client.send(body_doc)
    return wire.read_message(client._stream)
