"""Shared helpers for the test suite: seeded random protocol values, a
model of the cache's residency policies, a client exchange that drops
no message, and a proxy stepped from the test through every schedule of
a short script."""

from __future__ import annotations

import itertools
import random
import socket
import string
from collections import OrderedDict, deque

from netkvcache import wire
from netkvcache.loop import Leg
from netkvcache.netlab.workload import ProtocolClient
from netkvcache.proxy import CacheProxy, ProxyConfig
from netkvcache.wire import MessageHeader, RawMessage


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
    return client.receive()


def every_schedule(run) -> int:
    """Call ``run(choose)`` once per distinct sequence of choices, where
    ``choose(n)`` picks one of ``n`` steps; returns the number of runs."""
    prefix: list[int] = []
    runs = 0
    while True:
        trace: list[tuple[int, int]] = []  # (choice, choices there were)

        def choose(n: int) -> int:
            choice = prefix[len(trace)] if len(trace) < len(prefix) else 0
            trace.append((choice, n))
            return choice

        run(choose)
        runs += 1
        while trace and trace[-1][0] + 1 >= trace[-1][1]:
            trace.pop()
        if not trace:
            return runs
        prefix = [c for c, _ in trace[:-1]] + [trace[-1][0] + 1]


def _written_keys(body: dict) -> list:
    """The ``_id`` each statement of a write names (the one value of an
    ``$in``), or each inserted document's ``_id``."""
    if "insert" in body:
        return [doc["_id"] for doc in body["documents"]]
    keys = []
    for statement in body.get("updates", body.get("deletes")):
        key = statement["q"]["_id"]
        keys += key["$in"] if isinstance(key, dict) else [key]
    return keys


def _frames(leg: Leg) -> list[RawMessage]:
    """Every whole frame the test's end of a socket has, once the proxy is
    quiet; ``leg.reading`` goes False once it has seen the end of the stream."""
    try:
        while leg.reading and leg.fill():
            pass
    except BlockingIOError:
        pass
    except OSError:  # reset: the proxy closed its end with bytes unread
        leg.reading = False
    out = []
    while leg.frame_ready():
        out.append(wire.read_message(leg))
    return out


class StepSession:
    """One session's client and the upstream's end of its connection: the
    script the client sends in order, and what the upstream holds of it."""

    def __init__(self, client: socket.socket, server: socket.socket, script: list[dict]):
        self.client, self.server = Leg(client, "client"), Leg(server, "server")
        self.script = script
        self.sent = 0
        self.awaited: deque[int] = deque()  # request ids sent, not yet answered, in order
        self.at_server: deque[RawMessage] = deque()  # forwarded, not yet applied
        self.replies: deque[RawMessage] = deque()  # applied, not yet sent back
        self.reads: dict[int, tuple] = {}  # find's request id -> (key, acked version then)
        self.writes: dict[int, dict] = {}  # write's request id -> {key: version it stamped}
        self.violations: list[str] = []


class SteppedWorld:
    """A ``CacheProxy`` (capacity 4) opened without its thread and turned
    by the test with ``Loop.step``, between one client socket per session
    and an upstream listener that the test owns; the test plays each
    client and a model server, over loopback.

    Loopback delivers within ``send``, so once ``settle`` has turned the
    proxy until ``step(0)`` finds nothing, every byte the proxy wrote can
    be read, and one sequence of choices always replays the same way. The
    model server applies each session's requests in order: a find returns
    its key's current version, and each write stamps the next version on
    every key it names. After each step ``settle`` checks, per session,
    that replies arrive in the order of their requests and that a find
    never returns an older version than a write whose ack a client had
    received before it sent that find.
    """

    def __init__(self, scripts: list[list[dict]]):
        self.upstream = socket.create_server(("127.0.0.1", 0))
        self.upstream.settimeout(2.0)
        self.proxy = CacheProxy(ProxyConfig(
            listen=("127.0.0.1", 0), upstream=self.upstream.getsockname()[:2],
            capacity=4,
        )).open()
        self.sessions: list[StepSession] = []
        self.versions: dict = {}  # the model server's version of each key
        self.acked: dict = {}  # per key, the newest version whose ack a client has
        self._clock = itertools.count(1)
        self._ids = itertools.count(1)
        try:
            for script in scripts:
                client = socket.create_connection(self.proxy.address, timeout=2.0)
                self._turn()  # accept, and start the upstream connect
                try:
                    server, _ = self.upstream.accept()
                except BaseException:
                    client.close()
                    raise
                self.sessions.append(StepSession(client, server, script))
                self._turn()  # connected: the session's legs are attached
            assert self.proxy.session_count() == len(scripts)
            assert all(s.client.conn is not None for s in self.proxy._connections)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> SteppedWorld:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.proxy.stop()
        for session in self.sessions:
            session.client.sock.close()
            session.server.sock.close()
        self.upstream.close()

    def _turn(self) -> None:
        while self.proxy.step(0):
            pass

    # -- the steps -------------------------------------------------------

    def steps(self) -> list:
        """Every step some session can take now, in session order."""
        out = []
        for s in self.sessions:
            if s.sent < len(s.script):
                out.append(lambda s=s: self.send(s))
            if s.at_server:
                out.append(lambda s=s: self.apply(s))
            if s.replies:
                out.append(lambda s=s: self.reply(s))
        return out

    def run(self, choose) -> None:
        """Take steps, ``choose(n)`` picking one of the ``n`` possible, until
        none is left."""
        while steps := self.steps():
            steps[choose(len(steps))]()

    def send(self, s: StepSession) -> None:
        """The client sends its next request."""
        body = s.script[s.sent]
        s.sent += 1
        rid = next(self._ids)
        if "find" in body:
            key = body["filter"]["_id"]
            s.reads[rid] = key, self.acked.get(key, 0)
        s.awaited.append(rid)
        s.client.sock.sendall(wire.make_message(rid, 0, wire.encode_document(body)).to_bytes())
        self.settle()

    def apply(self, s: StepSession) -> None:
        """The upstream applies the oldest request forwarded to it."""
        m = s.at_server.popleft()
        body = wire.decode_document(m.body)
        if "find" in body:
            key = body["filter"]["_id"]
            doc = {"_id": key, "v": self.versions.get(key, 0)}
            reply = {"cursor": {"firstBatch": [doc], "id": 0, "ns": "kv.p"}, "ok": 1.0}
        else:
            version, keys = next(self._clock), _written_keys(body)
            s.writes[m.header.request_id] = dict.fromkeys(keys, version)
            self.versions.update(s.writes[m.header.request_id])
            reply = {"n": len(keys), "ok": 1.0}
        s.replies.append(wire.make_message(
            next(self._ids), m.header.request_id, wire.encode_document(reply)))

    def reply(self, s: StepSession) -> None:
        """The upstream sends the oldest reply it has computed."""
        s.server.sock.sendall(s.replies.popleft().to_bytes())
        self.settle()

    def settle(self) -> None:
        """Turn the proxy until it is quiet, then take in what every socket
        has: requests at the upstream, replies at the clients."""
        self._turn()
        for s in self.sessions:
            s.at_server.extend(_frames(s.server))
            for m in _frames(s.client):
                self._received(s, m)

    def _received(self, s: StepSession, m: RawMessage) -> None:
        rid = m.header.response_to
        if not s.awaited or s.awaited[0] != rid:
            s.violations.append(f"reply to {rid} arrived while {list(s.awaited)} were awaited")
            if rid not in s.awaited:
                return
        s.awaited.remove(rid)
        if rid in s.writes:
            for key, version in s.writes.pop(rid).items():
                self.acked[key] = max(self.acked.get(key, 0), version)
        elif rid in s.reads:
            key, floor = s.reads.pop(rid)
            try:
                version = wire.decode_document(m.body)["cursor"]["firstBatch"][0]["v"]
            except (wire.WireError, LookupError, TypeError) as exc:
                s.violations.append(f"reply to find {rid} is not a find reply: {exc!r}")
                return
            if version < floor:
                s.violations.append(f"find of {key} read version {version} after ack of {floor}")
