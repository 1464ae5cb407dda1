"""Coherence of the proxy's own code against a model server, through
every schedule of short scripts.

Two sessions run through one ``CacheProxy``, opened without its thread and
turned from the test with ``Loop.step`` (``support.SteppedWorld``). The
test plays both clients and the upstream on loopback sockets. Each step
is one of: a client sends its next request; the upstream applies the
oldest request forwarded to it, stamping a version on every key a write
names in the order it applies them; the upstream sends the oldest reply
it has computed. After each step the proxy is turned until it is quiet.
Clients pipeline their scripts. Every interleaving of those steps is
enumerated, in the manner of deterministic simulation: each complete
schedule is replayed from scratch, and the next one differs from it in
its last choice that has an alternative left.

The invariants, per session: a read issued after a write's ack has
reached its client never returns a version older than that write, and
replies arrive in the order of their requests. Each script sends a find
after its own write, so a hit that overtakes an owed reply shows.

Covered are the shapes the proxy keeps coherent today: keyed finds,
single-statement keyed or unkeyed updates, and inserts of one keyed
document or of several documents. A two-statement update is the known
hole (ROADMAP item 1), pinned as an expected failure.
"""

from __future__ import annotations

import pytest

from support import SteppedWorld, every_schedule

KEY = 5


def find(key: int = KEY) -> dict:
    return {"find": "p", "filter": {"_id": key}}


def write(op: str, keyed: bool) -> dict:
    if op == "insert":  # overwrites KEY, as the mock's insert does
        documents = [{"_id": KEY, "x": 1}] if keyed else [{"_id": KEY + 1}, {"_id": KEY, "x": 1}]
        return {"insert": "p", "documents": documents}
    # unkeyed: a filter that the proxy cannot key, and the server matches to KEY alone
    q = {"_id": KEY} if keyed else {"_id": {"$in": [KEY]}}
    return {"update": "p", "updates": [{"q": q, "u": {"$set": {"x": 1}}}]}


def search(scripts: list[list[dict]]) -> tuple[int, list[str]]:
    """Every schedule of ``scripts``; returns how many there were, and one
    line per schedule that broke an invariant."""
    failures: list[str] = []

    def run(choose) -> None:
        with SteppedWorld(scripts) as world:
            world.run(choose)
            for i, s in enumerate(world.sessions):
                if s.violations or s.awaited:
                    failures.append(f"session {i}: {s.violations}, unanswered {list(s.awaited)}")

    return every_schedule(run), failures


@pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "unkeyed"])
@pytest.mark.parametrize("op", ["update", "insert"], ids=["update-find/find", "insert-find/find"])
def test_no_read_after_an_ack_is_stale(op, keyed):
    runs, failures = search([[write(op, keyed), find()], [find()]])
    assert runs > 300
    assert not failures, f"{len(failures)} of {runs} schedules: {failures[0]}"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_two_statement_update_invalidates_what_it_writes():
    update = {"update": "p", "updates": [{"q": {"_id": KEY}, "u": {"$set": {"x": 1}}},
                                         {"q": {"_id": KEY + 1}, "u": {"$set": {"x": 1}}}]}
    runs, failures = search([[update, find()], [find()]])
    assert not failures, f"{len(failures)} of {runs} schedules: {failures[0]}"
