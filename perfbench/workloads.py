"""The benchmark's workloads: seeded inputs, set-up traffic and reply oracles.

Every key sequence, write choice and version comes from the ``--seed``
argument; the same seed gives the same requests in the same order. Set-up
talks to the mock server directly (data load, oracle replies); warm-up and
measurement go through the proxy, which sees only wire messages.
"""

from __future__ import annotations

import random
import socket
import struct
from collections import OrderedDict

import loadgen
import wirefmt
from loadgen import FAIL, OK, STALE

_I32 = struct.Struct("<i")


class Workload:
    """One traffic mix; subclasses fill in the class attributes and oracle."""

    name: str
    connections: int
    mock_keys: int
    capacity: int
    policy: str
    # One-way delays in ms (client-cache, cache-server), or None for none.
    delays_ms: tuple[float, float] | None = None

    def __init__(self, seed: int):
        self.seed = seed

    def mock_args(self) -> list[str]:
        return ["--keys", str(self.mock_keys), "--seed", str(self.seed), "--doc-size", "200"]

    def load(self, mock: socket.socket) -> None:
        """Load data into the mock and fetch the oracle's replies from it."""
        raise NotImplementedError

    def warmup(self) -> list[list[int]]:
        """Keys each connection reads once, through the proxy, to fill the cache."""
        raise NotImplementedError

    def start(self, keys_by_conn: list[list[int]] | None = None) -> None:
        """Begin a request stream: the warm-up reads, or the seeded mix."""
        if keys_by_conn is not None:
            self._script = [iter(keys) for keys in keys_by_conn]
            self._rngs = None
        else:
            self._script = None
            self._rngs = [random.Random(f"{self.seed}:{self.name}:{i}")
                          for i in range(self.connections)]

    def next_op(self, conn: int):
        if self._script is not None:
            key = next(self._script[conn], None)
            return None if key is None else self._read(key)
        return self._mixed_op(conn, self._rngs[conn])

    def _read(self, key: int):
        return True, self._find_bodies[key], key

    def _mixed_op(self, conn: int, rng: random.Random):
        raise NotImplementedError


class ReadOnly(Workload):
    """Keyed reads only; each reply must equal the mock's own, byte for byte."""

    warm_keys: int

    def load(self, mock) -> None:
        self._find_bodies = {k: wirefmt.find(k) for k in range(1, self.mock_keys + 1)}
        self._expected = {
            k: loadgen.request(mock, body) for k, body in self._find_bodies.items()
        }

    def warmup(self) -> list[list[int]]:
        return [list(range(1, self.warm_keys + 1))]

    def _mixed_op(self, conn: int, rng: random.Random):
        return self._read(rng.randint(1, self.mock_keys))

    def check(self, conn: int, key: int, body: bytes) -> int:
        return OK if body == self._expected[key] else FAIL


class WanRead(ReadOnly):
    name = "wan-read"
    connections = 1
    mock_keys = 100
    capacity = 30
    policy = "noevict"
    warm_keys = 30
    # Scenario B-ohio (0.25 ms / 82 ms one way) at time scale 10.
    delays_ms = (0.025, 8.2)

    def start(self, keys_by_conn=None) -> None:
        super().start(keys_by_conn)
        self._round: list[int] = []

    def _mixed_op(self, conn: int, rng: random.Random):
        # Shuffled rounds: each key is read once per round, so the share of
        # reads that find one of the resident keys is the same whatever the
        # seed, and the hit/miss mix does not add seed noise to latency.
        if not self._round:
            self._round = list(range(1, self.mock_keys + 1))
            rng.shuffle(self._round)
        return self._read(self._round.pop())


class MissLarge(ReadOnly):
    name = "miss-large"
    connections = 1
    mock_keys = 64
    capacity = 16
    policy = "lru"
    warm_keys = 16
    ITEMS = 2000

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{seed}:{self.name}:data")
        letters = "abcdefghijklmnopqrstuvwxyz"
        self._inserts = [
            wirefmt.encode({"insert": "phrases", "documents": [{
                "_id": k,
                "items": [{"i": j, "s": "".join(rng.choices(letters, k=9))}
                          for j in range(self.ITEMS)],
            }]})
            for k in range(1, self.mock_keys + 1)
        ]
        self._insert_ack = wirefmt.encode({"n": 1, "ok": 1.0})

    def start(self, keys_by_conn=None) -> None:
        super().start(keys_by_conn)
        # The proxy's LRU contents once warm-up has read keys 1..capacity.
        self._resident = OrderedDict.fromkeys(range(1, self.capacity + 1))
        self._reads = 0

    def _mixed_op(self, conn: int, rng: random.Random):
        # Stratified uniform reads: every (keys/capacity)-th read is of a key
        # the cache holds, the others of keys it does not. I.i.d. uniform keys
        # give the same mix on average, but a hit share, and with it a
        # latency mix, that varies from seed to seed.
        self._reads += 1
        if self._reads % (self.mock_keys // self.capacity) == 0:
            key = rng.choice(list(self._resident))
            self._resident.move_to_end(key)
        else:
            key = rng.choice([k for k in range(1, self.mock_keys + 1) if k not in self._resident])
            self._resident.popitem(last=False)
            self._resident[key] = None
        return self._read(key)

    def mock_args(self) -> list[str]:
        # Start empty; the documents arrive as inserts during set-up.
        return ["--keys", "0", "--seed", str(self.seed)]

    def load(self, mock) -> None:
        for k, body in enumerate(self._inserts, start=1):
            if loadgen.request(mock, body) != self._insert_ack:
                raise loadgen.LoadError(f"mock did not acknowledge insert of key {k}")
        super().load(mock)


class HotMix(Workload):
    """90 % keyed reads of any key, 10 % version-stamping writes.

    Connection ``c`` writes only keys in its own half, so each key's writes
    are serialized. One write in five is a two-statement update, which
    the proxy forwards without invalidating: the stale reads it causes are
    counted, not hidden.
    """

    name = "hot-mix"
    connections = 2
    mock_keys = 100
    capacity = 100
    policy = "noevict"
    WRITE_SHARE = 0.1
    TWO_STATEMENT_SHARE = 0.2

    def load(self, mock) -> None:
        keys = range(1, self.mock_keys + 1)
        ack = loadgen.request(mock, wirefmt.update([(k, {"v": 0}) for k in keys]))
        n = len(keys)
        if ack != wirefmt.encode({"n": n, "nModified": n, "ok": 1.0}):
            raise loadgen.LoadError("mock did not acknowledge the version reset")
        self._find_bodies = {k: wirefmt.find(k) for k in keys}
        # Each reply is fixed bytes around the int32 version; keep both sides.
        self._templates = {}
        for k in keys:
            body = loadgen.request(mock, self._find_bodies[k])
            at = body.find(b"\x10v\x00") + 3
            if at < 3 or body.count(b"\x10v\x00") != 1:
                raise loadgen.LoadError(f"reply for key {k} has no single version field")
            self._templates[k] = (body[:at], body[at + 4:], len(body))
        self._acks = {n: wirefmt.encode({"n": n, "nModified": n, "ok": 1.0}) for n in (1, 2)}
        self._sent = dict.fromkeys(keys, 0)    # highest version sent per key
        self._acked = dict.fromkeys(keys, 0)   # highest version acknowledged per key

    def warmup(self) -> list[list[int]]:
        half = self.mock_keys // self.connections
        return [list(range(1 + c * half, 1 + (c + 1) * half)) for c in range(self.connections)]

    def _read(self, key: int):
        return True, self._find_bodies[key], (key, self._acked[key])

    def _mixed_op(self, conn: int, rng: random.Random):
        if rng.random() >= self.WRITE_SHARE:
            return self._read(rng.randint(1, self.mock_keys))
        half = self.mock_keys // self.connections
        own = range(1 + conn * half, 1 + (conn + 1) * half)
        keys = rng.sample(own, 2) if rng.random() < self.TWO_STATEMENT_SHARE else [rng.choice(own)]
        stamped = []
        for k in keys:
            self._sent[k] += 1
            stamped.append((k, self._sent[k]))
        return False, wirefmt.update([(k, {"v": v}) for k, v in stamped]), stamped

    def check(self, conn: int, ctx, body: bytes) -> int:
        if isinstance(ctx, list):  # a write's acknowledgment
            if body != self._acks[len(ctx)]:
                return FAIL
            for k, v in ctx:
                if v > self._acked[k]:
                    self._acked[k] = v
            return OK
        key, acked_at_send = ctx
        head, tail, size = self._templates[key]
        if len(body) != size or not body.startswith(head) or not body.endswith(tail):
            return FAIL
        (version,) = _I32.unpack_from(body, len(head))
        if version > self._sent[key]:
            return FAIL
        return STALE if version < acked_at_send else OK


WORKLOADS = {w.name: w for w in (HotMix, MissLarge, WanRead)}
