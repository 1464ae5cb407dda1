"""Coherence of the engine against a model server, with no sockets.

Two sessions share one ``CacheStore``; each has its own pending table and
drives ``parse_command``/``handle_client``/``handle_server`` as the proxy's
session does. A model server applies each session's requests in order,
stamping a version on every write in the order it applies them, and the
replies reach the proxy in order per session. Clients pipeline their
scripts. Every interleaving of those steps is enumerated, in the manner of
deterministic simulation: each complete schedule is replayed from scratch,
and the next one differs from it in its last choice that has an
alternative left.

The invariant: a read issued after a write's ack has reached its client
never returns a version older than that write.

Only the shapes the proxy keeps coherent today are covered: keyed finds,
single-statement keyed or unkeyed updates, and inserts of one keyed
document or of several documents.
"""

from __future__ import annotations

import itertools
from collections import deque

import pytest

from netkvcache.engine import CommandKind, handle_client, handle_server, parse_command
from netkvcache.storage import CacheStore
from netkvcache.wire import RawMessage, encode_document, make_message

KEY = 5
ACK = encode_document({"n": 1, "nModified": 1, "ok": 1.0})


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


def request(op: str, keyed: bool, request_id: int) -> RawMessage:
    if op == "find":
        body = {"find": "p", "filter": {"_id": KEY}}
    elif op == "insert":  # overwrites KEY, as the mock's insert does
        documents = [{"_id": KEY, "x": 1}] if keyed else [{"_id": KEY + 1}, {"_id": KEY, "x": 1}]
        body = {"insert": "p", "documents": documents}
    else:  # an unkeyed filter that the server still matches to KEY alone
        q = {"_id": KEY} if keyed else {"_id": {"$in": [KEY]}}
        body = {"update": "p", "updates": [{"q": q, "u": {"$set": {"x": 1}}}]}
    return make_message(request_id, 0, encode_document(body))


class Model:
    """One schedule's state: the shared store, the model server's version of
    KEY, and what each session has sent, applied and answered."""

    def __init__(self, commands: list[list]):
        self.store = CacheStore(capacity=4)
        self.version = self.clock = 0  # the server's version of KEY; its write counter
        self.acked = 0  # the newest version whose write ack a client has received
        self.bodies: dict[int, bytes] = {}  # find reply by version
        self.sessions = [_Session(self, cmds) for cmds in commands]

    def read_reply(self, version: int) -> bytes:
        if version not in self.bodies:
            doc = {"_id": KEY, "v": version}
            self.bodies[version] = encode_document(
                {"cursor": {"firstBatch": [doc], "id": 0, "ns": "kv.p"}, "ok": 1.0})
        return self.bodies[version]

    def version_of(self, body: bytes) -> int:
        return next(v for v, b in self.bodies.items() if b == body)

    def run(self, choose) -> None:
        while True:
            steps = [step for s in self.sessions for step in s.steps()]
            if not steps:
                return
            steps[choose(len(steps))]()


class _Session:
    def __init__(self, model: Model, commands: list):
        self.model, self.commands = model, commands
        self.pending: dict = {}
        self.forwarded = self.answered = self.sent = 0
        self.at_server: deque = deque()  # forwarded, not yet applied
        self.at_proxy: deque = deque()  # replies on their way to the proxy
        self.floors: dict[int, int] = {}  # read's request id -> acked version when issued
        self.written: dict[int, int] = {}  # write's request id -> the version it stamped
        self.ids = itertools.count(1000)

    def steps(self):
        if self.sent < len(self.commands):
            yield self.send
        if self.at_server:
            yield self.apply
        if self.at_proxy:
            yield self.reply

    def send(self) -> None:
        model, cmd = self.model, self.commands[self.sent]
        self.sent += 1
        if cmd.kind is CommandKind.FIND:
            self.floors[cmd.raw.header.request_id] = model.acked
        hit = handle_client(cmd, model.store, self.pending, self.ids.__next__,
                            self.answered < self.forwarded)
        if hit is not None:
            self.receive(hit)
            return
        self.forwarded += 1
        self.at_server.append(cmd)

    def apply(self) -> None:
        model, cmd = self.model, self.at_server.popleft()
        if cmd.kind is CommandKind.FIND:
            body = model.read_reply(model.version)
        else:
            model.clock += 1
            model.version = self.written[cmd.raw.header.request_id] = model.clock
            body = ACK
        self.at_proxy.append(make_message(next(self.ids), cmd.raw.header.request_id, body))

    def reply(self) -> None:
        m = self.at_proxy.popleft()
        self.answered += 1
        handle_server(m, self.model.store, self.pending)
        self.receive(m)

    def receive(self, m: RawMessage) -> None:
        model, rid = self.model, m.header.response_to
        if m.body == ACK:
            model.acked = max(model.acked, self.written.pop(rid))
        else:
            version, floor = model.version_of(m.body), self.floors.pop(rid)
            assert version >= floor, f"read returned version {version} after ack of {floor}"


SCRIPTS = {
    "update-find/find-find": (["update", "find"], ["find", "find"]),
    "insert-find/find-find": (["insert", "find"], ["find", "find"]),
}


@pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "unkeyed"])
@pytest.mark.parametrize("scripts", list(SCRIPTS.values()), ids=list(SCRIPTS))
def test_no_read_after_an_ack_returns_an_older_version(scripts, keyed):
    ids = itertools.count(1)
    commands = [[parse_command(request(op, keyed, next(ids))) for op in script]
                for script in scripts]
    runs = every_schedule(lambda choose: Model(commands).run(choose))
    assert runs > 20_000
