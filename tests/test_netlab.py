from __future__ import annotations

import gc
import os
import select
import socket
import statistics
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netkvcache import wire
from netkvcache.loop import MAX_QUEUED_BYTES, Loop
from netkvcache.netlab import delay
from netkvcache.netlab.delay import DelayPipe
from netkvcache.netlab.mockserver import MockKVServer, _find_reply
from netkvcache.netlab.scenario import (
    SCENARIO_DELAYS,
    DelaySpec,
    ScenarioConfig,
    key_sequence,
    run_capacity_sweep,
    run_scenario,
    summarize,
    summarize_single,
)
from netkvcache.netlab.workload import MetricsReport, ProtocolClient, RequestRecord, run_workload
from netkvcache.storage import Policy
from netkvcache.wire import encode_document, make_message, read_message
from support import simulate_outcomes


@pytest.fixture
def server():
    server = MockKVServer(keyspace=20).start()
    yield server
    server.stop()


# -- mock server -----------------------------------------------------------------


def test_find_is_deterministic(server):
    with ProtocolClient(server.address) as client:
        a = client.request({"find": "phrases", "filter": {"_id": {"$eq": 1}}})
        b = client.request({"find": "phrases", "filter": {"_id": {"$eq": 1}}})
    assert a.body == b.body


def test_find_unknown_key_returns_empty_batch(server):
    with ProtocolClient(server.address) as client:
        doc = client.find(21)
    assert doc["ok"] == 1.0
    assert doc["cursor"]["firstBatch"] == []


def test_update_then_find_sees_new_value(server):
    with ProtocolClient(server.address) as client:
        client.request_doc({
            "update": "phrases",
            "updates": [{"q": {"_id": {"$eq": 3}}, "u": {"$set": {"phrase": "updated!"}}}],
        })
        doc = client.find(3)
    assert doc["cursor"]["firstBatch"][0]["phrase"] == "updated!"


def test_insert_then_find_then_delete(server):
    with ProtocolClient(server.address) as client:
        ack = client.request_doc({"insert": "phrases", "documents": [{"_id": 50, "phrase": "new"}]})
        assert ack["n"] == 1
        assert client.find(50)["cursor"]["firstBatch"][0]["phrase"] == "new"
        ack = client.request_doc({"delete": "phrases", "deletes": [{"q": {"_id": 50}, "limit": 1}]})
        assert ack["n"] == 1
        assert client.find(50)["cursor"]["firstBatch"] == []


def test_insert_without_id_stores_nothing_and_a_null_id_update_gets_a_reply(server):
    replace_null = {"update": "phrases", "updates": [{"q": {"_id": None}, "u": {"v": 2}}]}
    with ProtocolClient(server.address) as client:
        assert client.request_doc({"insert": "phrases", "documents": [{"v": 1}]})["n"] == 0
        assert client.request_doc(replace_null)["n"] == 0
        assert client.find(None)["cursor"]["firstBatch"] == []


def test_malformed_document_gets_error_response(server):
    import socket as socket_mod
    from netkvcache.wire import MessageHeader, RawMessage

    sock = socket_mod.create_connection(server.address)
    body = b"\x09\x00\x00\x00\xff\xff\xff\xff\x00"  # valid frame, junk document
    sock.sendall(RawMessage(MessageHeader(30, 1, 0, 2013, 0, 0, 9), body).to_bytes())
    reply = read_message(sock.makefile("rb"))
    from netkvcache.wire import decode_document
    assert decode_document(reply.body)["ok"] == 0.0
    sock.close()


def _doc(*elements: bytes) -> bytes:
    body = b"".join(elements) + b"\x00"
    return (len(body) + 4).to_bytes(4, "little") + body


def _int32(name: bytes, value: int) -> bytes:
    return b"\x10" + name + b"\x00" + value.to_bytes(4, "little", signed=True)


def test_reply_that_cannot_be_encoded_ends_only_its_connection(server):
    from netkvcache.wire import ConnectionClosed, make_message

    # The decoder accepts an empty field name; the encoder refuses it, so an
    # update that merges one into a document fails while the merged document
    # is encoded. (An insert of such a document is replayed, never encoded.)
    statement = _doc(b"\x03q\x00" + _doc(_int32(b"_id", 7)),
                     b"\x03u\x00" + _doc(b"\x03$set\x00" + _doc(_int32(b"", 1))))
    update = _doc(b"\x02update\x00" + (8).to_bytes(4, "little") + b"phrases\x00",
                  b"\x04updates\x00" + _doc(b"\x030\x00" + statement))
    with ProtocolClient(server.address) as bad, ProtocolClient(server.address) as good:
        before = good.find(7)["cursor"]["firstBatch"]
        bad.sock.sendall(make_message(1, 0, update).to_bytes())
        with pytest.raises(ConnectionClosed):
            bad.receive()
        assert good.find(1)["ok"] == 1.0
        assert good.find(7)["cursor"]["firstBatch"] == before != []
    with ProtocolClient(server.address) as later:
        assert later.find(2)["ok"] == 1.0
        assert later.find(7)["cursor"]["firstBatch"] == before


def test_inserted_document_comes_back_byte_for_byte(server):
    # An int64-tagged 5 is not what the encoder writes for 5 (it picks int32);
    # the find reply replays the document as it was sent.
    sent = _doc(b"\x12_id\x00" + (5).to_bytes(8, "little"), _int32(b"v", 1))
    insert = _doc(b"\x02insert\x00" + (8).to_bytes(4, "little") + b"phrases\x00",
                  b"\x04documents\x00" + _doc(b"\x030\x00" + sent))
    assert encode_document(wire.decode_document(sent)) != sent
    with ProtocolClient(server.address) as client:
        client.sock.sendall(make_message(1, 0, insert).to_bytes())
        assert wire.decode_document(client.receive().body)["n"] == 1
        reply = client.request({"find": "phrases", "filter": {"_id": 5}}).body
    assert reply == _find_reply("phrases", sent)
    assert sent in reply


SPLICE_VALUES = st.recursive(
    st.one_of(st.integers(-(2**63), 2**63 - 1), st.floats(), st.text(max_size=6),
              st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(min_size=1, max_size=4), inner, max_size=3)),
    max_leaves=10,
)


@settings(max_examples=300)
@given(st.text(max_size=8), st.none() | st.dictionaries(st.text(min_size=1, max_size=4),
                                                        SPLICE_VALUES, max_size=4))
def test_spliced_find_reply_equals_the_encoded_cursor(collection, doc):
    def cursor(batch):
        return {"cursor": {"firstBatch": batch, "id": 0, "ns": f"kv.{collection}"}, "ok": 1.0}

    if doc is None:  # the empty batch of an unknown key
        assert _find_reply(collection) == encode_document(cursor([]))
        return
    try:
        data = encode_document(doc)
    except wire.UnsupportedType:  # a NUL in a field name
        return
    assert _find_reply(collection, data) == encode_document(cursor([doc]))


def test_finds_of_seeded_inserted_and_updated_keys_encode_nothing(server, monkeypatch):
    encode_document, on_mock = wire.encode_document, []

    def counted(doc):
        if threading.current_thread().name == server.thread_name:
            on_mock.append(doc)
        return encode_document(doc)

    monkeypatch.setattr(wire, "encode_document", counted)
    with ProtocolClient(server.address) as client:
        client.find(1)  # the collection's table is made here, from documents encoded at start
        assert on_mock == []
        client.request_doc({"insert": "phrases", "documents": [{"_id": 50, "phrase": "new"}]})
        assert on_mock == [{"n": 1, "ok": 1.0}]  # the ack; the document is kept as sent
        client.request_doc({
            "update": "phrases",
            "updates": [{"q": {"_id": 3}, "u": {"$set": {"phrase": "updated!"}}}],
        })
        on_mock.clear()
        docs = [client.find(k) for k in (2, 50, 3, 2, 50, 3)]
    assert on_mock == []
    assert [d["cursor"]["firstBatch"][0]["phrase"] for d in docs[1:3]] == ["new", "updated!"]


def test_unknown_command_gets_ok(server):
    with ProtocolClient(server.address) as client:
        assert client.request_doc({"whatsThis": 1})["ok"] == 1.0


# -- delay pipe -------------------------------------------------------------------


def test_zero_delay_pipe_adds_under_a_millisecond(server):
    pipe = DelayPipe(server.address, oneway_ms=0.0).start()
    try:
        with ProtocolClient(server.address) as direct:
            direct.find(1)
            t0 = time.perf_counter()
            for _ in range(20):
                direct.find(1)
            base = (time.perf_counter() - t0) / 20
        with ProtocolClient(pipe.address) as piped:
            piped.find(1)
            t0 = time.perf_counter()
            for _ in range(20):
                piped.find(1)
            through = (time.perf_counter() - t0) / 20
    finally:
        pipe.stop()
    assert (through - base) < 0.001


def test_82ms_pipe_echoes_at_164ms_rtt(server):
    pipe = DelayPipe(server.address, oneway_ms=82.0).start()
    try:
        with ProtocolClient(pipe.address) as client:
            rtts = []
            for _ in range(3):
                t0 = time.perf_counter()
                client.find(1)
                rtts.append((time.perf_counter() - t0) * 1000)
    finally:
        pipe.stop()
    assert abs(statistics.fmean(rtts) - 164.0) <= 5.0


def test_back_to_back_messages_keep_order(server):
    pipe = DelayPipe(server.address, oneway_ms=20.0).start()
    try:
        with ProtocolClient(pipe.address) as client:
            ids = [client.send({"find": "phrases", "filter": {"_id": {"$eq": k}}})
                   for k in (1, 2, 3, 4)]
            t0 = time.perf_counter()
            got = [client.receive().header.response_to for _ in ids]
            elapsed = (time.perf_counter() - t0) * 1000
        assert got == ids
        # pipelined: four responses arrive in roughly one RTT, not four
        assert elapsed < 4 * 40.0
    finally:
        pipe.stop()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_closed_connections_leave_no_sockets_open(server):
    pipe = DelayPipe(server.address, oneway_ms=0.0).start()
    try:
        before = _open_fds()
        for key in range(1, 31):
            with ProtocolClient(pipe.address) as client:
                assert client.find(key % 20 + 1)["ok"] == 1.0
        deadline = time.monotonic() + 2.0
        while _open_fds() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _open_fds() <= before
    finally:
        pipe.stop()


def test_connections_add_no_threads(server):
    pipe = DelayPipe(server.address, oneway_ms=1.0).start()
    clients = []
    try:
        before = threading.active_count()
        for key in range(1, 5):
            clients.append(ProtocolClient(pipe.address))
            assert clients[-1].find(key)["ok"] == 1.0
        assert threading.active_count() == before
        names = {t.name for t in threading.enumerate()}
        assert {"pipe-loop", "mock-loop"} <= names
    finally:
        for client in clients:
            client.close()
        pipe.stop()


def test_half_close_through_pipe_still_gets_reply_then_eof(server):
    pipe = DelayPipe(server.address, oneway_ms=5.0).start()
    try:
        with ProtocolClient(pipe.address) as client:
            request_id = client.send({"find": "phrases", "filter": {"_id": {"$eq": 2}}})
            client.sock.shutdown(socket.SHUT_WR)
            assert client.receive_response(request_id).header.response_to == request_id
            assert client.sock.recv(1) == b""
    finally:
        pipe.stop()


def test_pipe_holds_little_for_a_peer_that_never_reads():
    sink = socket.socket()  # accepts nothing and reads nothing
    sink.bind(("127.0.0.1", 0))
    sink.listen(1)
    pipe = DelayPipe(sink.getsockname()[:2], oneway_ms=0.0).start()
    frame = make_message(1, 0, bytes(64 * 1024)).to_bytes()
    # Loopback socket buffers take several MiB, so write until the
    # client is held back, or at most 32 MiB.
    limit, sent, peak, blocked_at = 32 << 20, 0, 0, None
    try:
        with socket.create_connection(pipe.address) as client:
            client.setblocking(False)
            while sent < limit:
                try:
                    sent += client.send(frame[sent % len(frame):])
                    blocked_at = None
                except BlockingIOError:
                    blocked_at = blocked_at or time.monotonic()
                    if time.monotonic() - blocked_at > 0.3:
                        break
                    time.sleep(0.005)
                peak = max([peak] + [c.queued_bytes() for c in list(pipe._connections)])
    finally:
        pipe.stop()
        sink.close()
    assert sent < limit  # the client was held back, not the pipe's memory
    assert MAX_QUEUED_BYTES <= peak <= MAX_QUEUED_BYTES + len(frame)


def test_frame_arriving_while_pipe_spins_is_not_delayed(server):
    # The late client's request reaches the pipe inside the spin window
    # before the early client's delivery; it must be stamped on arrival.
    pipe = DelayPipe(server.address, oneway_ms=10.0).start()
    find = {"find": "phrases", "filter": {"_id": {"$eq": 1}}}
    solo, paired = [], []
    try:
        with ProtocolClient(pipe.address) as early, ProtocolClient(pipe.address) as late:
            early.request(find)
            late.request(find)
            for _ in range(40):
                for rtts in (solo, paired):
                    early_id = early.send(find) if rtts is paired else None
                    if early_id is not None:
                        time.sleep(0.009)
                    t0 = time.perf_counter()
                    late.request(find)
                    rtts.append((time.perf_counter() - t0) * 1000)
                    if early_id is not None:
                        early.receive_response(early_id)
    finally:
        pipe.stop()
    assert abs(statistics.median(paired) - statistics.median(solo)) <= 0.5


def test_pipe_delay_starts_when_the_bytes_arrive_not_when_framed(server, monkeypatch):
    # Framing on the pipe's thread takes 5 ms here; a frame's 20 ms must
    # run from its arrival, so the framing time hides inside the delay.
    read_message = wire.read_message

    def slow(stream, *args):
        if threading.current_thread().name == "pipe-loop":
            time.sleep(0.005)
        return read_message(stream, *args)

    monkeypatch.setattr(wire, "read_message", slow)
    pipe = DelayPipe(server.address, oneway_ms=20.0).start()
    rtts = []
    try:
        with ProtocolClient(pipe.address) as client:
            for key in range(1, 6):
                t0 = time.perf_counter()
                client.find(key)
                rtts.append((time.perf_counter() - t0) * 1000)
    finally:
        pipe.stop()
    assert 40.0 <= statistics.median(rtts) < 46.0


def test_pipe_delays_each_connection_not_the_loop(server):
    pipe = DelayPipe(server.address, oneway_ms=150.0).start()
    try:
        with ProtocolClient(pipe.address) as a, ProtocolClient(pipe.address) as b:
            t0 = time.perf_counter()
            ids = (a.send({"find": "phrases", "filter": {"_id": 1}}),
                   b.send({"find": "phrases", "filter": {"_id": 2}}))
            a.receive_response(ids[0])
            b.receive_response(ids[1])
            elapsed = time.perf_counter() - t0
        assert 0.3 <= elapsed < 0.5
    finally:
        pipe.stop()


def test_timers_run_in_due_order_and_ties_in_call_order():
    loop = Loop(("127.0.0.1", 0))
    ran, done = [], threading.Event()

    def note(name, due):
        ran.append((name, time.perf_counter() >= due))
        if name == "chain":  # a timer may set another, here one already due
            loop.call_at(due, note, "chained", due)
        if name == "chained":
            done.set()

    now = time.perf_counter()
    for name, offset in [("c", 0.03), ("a1", 0.01), ("b", 0.02), ("a2", 0.01), ("chain", 0.04)]:
        loop.call_at(now + offset, note, name, now + offset)
    loop.start()
    try:
        assert done.wait(2.0)
    finally:
        loop.stop()
    assert ran == [(name, True) for name in ("a1", "a2", "b", "c", "chain", "chained")]


def test_a_loop_opened_without_its_thread_is_stepped_and_stopped_by_its_caller():
    Loop(("127.0.0.1", 0)).stop()  # never opened: nothing to close
    threads = threading.active_count()
    server = MockKVServer(keyspace=5).open()
    client = socket.create_connection(server.address, timeout=2)
    try:
        find = encode_document({"find": "phrases", "filter": {"_id": 1}})
        client.sendall(make_message(7, 0, find).to_bytes())
        deadline = time.monotonic() + 2.0
        while not select.select([client], [], [], 0)[0] and time.monotonic() < deadline:
            server.step(0.1)  # the accept, then the request
        reply = read_message(client.makefile("rb"))
        assert reply.header.response_to == 7
        assert threading.active_count() == threads
        assert server.step(0) == 0  # quiet
    finally:
        server.stop()
    assert client.recv(1) == b""  # stop closed the connection on this thread
    server.stop()  # only the first stop acts
    client.close()


@pytest.mark.parametrize("oneway", [0.0, 0.005])
def test_each_held_frame_sleeps_until_its_own_due_time_once(server, monkeypatch, oneway):
    dues, writes = [], []
    sleep_until, write_message = delay._sleep_until, wire.write_message

    def recorded(deadline: float) -> None:
        dues.append(deadline)
        sleep_until(deadline)

    def counted(stream, m) -> None:
        if threading.current_thread().name == "pipe-loop":
            writes.append(m.header.request_id)
        write_message(stream, m)

    monkeypatch.setattr(delay, "_sleep_until", recorded)
    monkeypatch.setattr(wire, "write_message", counted)
    pipe = DelayPipe(server.address, oneway_ms=oneway * 1000).start()
    spans = []
    try:
        with ProtocolClient(pipe.address) as client:
            for key in range(1, 6):
                t0 = time.perf_counter()
                client.find(key)
                spans.append((t0, time.perf_counter()))
    finally:
        pipe.stop()
    # Each exchange holds two frames: the request, then its reply.
    assert len(dues) == len(writes) == 2 * len(spans)
    assert dues == sorted(dues)
    for (sent, received), request, reply in zip(spans, dues[::2], dues[1::2]):
        assert sent + oneway <= request and request + oneway <= reply <= received


def test_delivery_that_raises_ends_only_its_connection(server, monkeypatch):
    write_message, bad_id = wire.write_message, 9999

    def failing(stream, m) -> None:
        if m.header.request_id == bad_id and threading.current_thread().name == "pipe-loop":
            raise RuntimeError("delivery failed")
        write_message(stream, m)

    monkeypatch.setattr(wire, "write_message", failing)
    pipe = DelayPipe(server.address, oneway_ms=1.0).start()
    find = encode_document({"find": "phrases", "filter": {"_id": 1}})
    try:
        with ProtocolClient(pipe.address) as bad, ProtocolClient(pipe.address) as good:
            assert good.find(1)["ok"] == 1.0
            bad.sock.sendall(make_message(bad_id, 0, find).to_bytes())
            with pytest.raises(wire.ConnectionClosed):
                bad.receive()
            assert good.find(2)["ok"] == 1.0
        with ProtocolClient(pipe.address) as later:
            assert later.find(3)["ok"] == 1.0
    finally:
        pipe.stop()


# -- workload ---------------------------------------------------------------------


def test_key_sequence_is_seeded_and_in_range():
    cfg = ScenarioConfig(requests=300, keyspace=10, seed=7)
    keys = key_sequence(cfg)
    assert keys == key_sequence(cfg)
    assert len(keys) == 300
    assert all(1 <= k <= 10 for k in keys)
    assert key_sequence(ScenarioConfig(requests=300, keyspace=10, seed=8)) != keys


def test_key_sequence_of_an_acceptance_cell_is_the_one_it_always_issued():
    # 1,000 requests, keys 1..100, seed 42: the keys that 5 batches of 200
    # drew before the request count was one number.
    keys = key_sequence(ScenarioConfig(requests=1000, keyspace=100, seed=42))
    assert len(keys) == 1000 and sum(keys) == 51174
    assert keys[:10] == [82, 15, 4, 95, 36, 32, 29, 18, 95, 14] and keys[-3:] == [38, 30, 47]


def test_simulate_outcomes_noevict_closed_form():
    cfg = ScenarioConfig(requests=30_000, keyspace=100, seed=1)
    outcomes = simulate_outcomes(key_sequence(cfg), capacity=10, policy="noevict")
    hit_rate = outcomes.count("hit") / len(outcomes)
    # steady state: the 10 resident keys each draw with probability 1/100
    assert abs(hit_rate - 0.10) < 0.02


def test_simulate_outcomes_capacity_zero_all_miss():
    assert set(simulate_outcomes([1, 1, 2], 0)) == {"miss"}


def test_simulate_outcomes_lru_vs_noevict_differ_when_saturated():
    keys = [1, 2, 3, 1, 2, 3]
    assert simulate_outcomes(keys, 2, "noevict") == ["miss", "miss", "miss", "hit", "hit", "miss"]
    assert simulate_outcomes(keys, 2, "lru") == ["miss"] * 6


# -- scenarios ---------------------------------------------------------------------


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        name="custom", delays=DelaySpec(0.5, 2.0), capacity=10,
        keyspace=10, requests=100, seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_scenario_run_cached_and_reconciled(tmp_path):
    out = tmp_path / "cell"
    result = run_scenario(tiny_config(out_dir=str(out)))
    report = result.report
    assert len(report.records) == 100
    assert report.reconciled is True
    assert report.store_stats["hits"] + report.store_stats["misses"] == 100
    assert sum(count for _, count in report.throughput_series()) == 100
    for name in ("summary.txt", "requests.csv", "throughput.csv", "stats.csv"):
        assert (out / name).exists()
    header = (out / "requests.csv").read_text().splitlines()[0]
    assert header == "seq,key,outcome,latency_ms"
    summary = (out / "summary.txt").read_text().splitlines()
    for outcome in ("hit", "miss"):
        assert any(line.startswith(f"latency ms, {outcome}: n ") for line in summary), summary


@pytest.mark.parametrize("policy", ["noevict", "fifo", "lru"])
def test_scenario_labels_match_the_policy_model(policy):
    # Labels come from what the mock received; the model knows only the keys.
    cfg = tiny_config(delays=DelaySpec(0.0, 0.0), capacity=4, policy=Policy(policy))
    report = run_scenario(cfg).report
    expected = simulate_outcomes(key_sequence(cfg), 4, policy)
    assert [r.outcome for r in report.records] == expected
    assert report.reconciled is True


def test_percentile_is_nearest_rank():
    def report(n: int) -> MetricsReport:
        return MetricsReport([RequestRecord(i, 1, "direct", float(i + 1), 0.0, i)
                              for i in range(n)], 1.0)

    assert report(30).percentile(95) == 29.0
    assert report(150).percentile(99) == 149.0
    assert report(30).percentile(0) == 1.0 and report(30).percentile(100) == 30.0


def test_scenario_runs_its_threads_on_one_cpu_then_restores(monkeypatch):
    from netkvcache.netlab import scenario

    before, running = os.sched_getaffinity(0), set(threading.enumerate())
    seen = {}
    run_workload = scenario.run_workload

    def spy(*args, **kwargs):  # the client, and the loops the cell started
        for t in threading.enumerate():
            if t is threading.current_thread() or t not in running:
                seen[t.name] = os.sched_getaffinity(t.native_id)
        return run_workload(*args, **kwargs)

    monkeypatch.setattr(scenario, "run_workload", spy)
    run_scenario(tiny_config(delays=DelaySpec(1.0, 1.0)))
    assert {"pipe-loop", "proxy-loop", "mock-loop"} <= set(seen)
    assert all(cpus == {min(before)} for cpus in seen.values())
    assert os.sched_getaffinity(0) == before


def test_scenario_collects_garbage_before_its_timed_requests(monkeypatch):
    # A full collection of the test process's heap takes tens of ms; if it
    # fell inside a cell's requests, their latency would carry it.
    from netkvcache.netlab import scenario

    full, before_requests = [], []
    run_workload = scenario.run_workload

    def note(phase, info):
        if phase == "stop" and info["generation"] == 2:
            full.append(info)

    def spy(*args, **kwargs):
        before_requests.append(len(full))
        return run_workload(*args, **kwargs)

    monkeypatch.setattr(scenario, "run_workload", spy)
    gc.callbacks.append(note)
    try:
        run_scenario(tiny_config())
    finally:
        gc.callbacks.remove(note)
    assert len(before_requests) == 1 and before_requests[0] >= 1


def test_scenario_keyspace_one_all_hits_after_first():
    result = run_scenario(tiny_config(keyspace=1, capacity=1))
    assert result.report.store_stats["misses"] == 1
    assert result.report.store_stats["hits"] == 99


def test_warmup_final_batch_hit_rate_at_full_capacity():
    result = run_scenario(tiny_config(keyspace=10, capacity=10, requests=180))
    final_batch = result.report.records[-60:]
    hits = sum(1 for r in final_batch if r.outcome == "hit")
    assert hits / len(final_batch) >= 0.95


def _serve_one_client(script) -> tuple[str, int]:
    """Listen on a port whose first connection is answered by ``script(conn,
    stream)`` on a thread, after the hello is answered; return the address."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        listener.close()
        with conn, conn.makefile("rb") as stream:
            hello = read_message(stream)
            conn.sendall(make_message(1, hello.header.request_id,
                                      encode_document({"ok": 1.0})).to_bytes())
            script(conn, stream)

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()[:2]


def test_workload_timeouts_recorded_and_run_continues():
    def swallow(conn, stream):
        conn.recv(1 << 16)
        time.sleep(2.0)

    report = run_workload(_serve_one_client(swallow), [1, 2, 3], timeout_s=0.15)
    assert report.timeouts == 3
    assert len(report.records) == 3
    assert all(r.outcome == "timeout" for r in report.records)


def test_a_reply_that_straddles_the_timeout_is_finished_by_the_next_read():
    # The first find's reply comes in two parts, 0.3 s apart: the first
    # find times out at 0.15 s with 10 bytes read. Those bytes stay read,
    # so the rest completes that reply, which the second find skips as
    # stale before reading its own.
    def straddle(conn, stream):
        for i in range(3):
            find = read_message(stream)
            reply = make_message(10 + i, find.header.request_id,
                                 _find_reply("phrases")).to_bytes()
            if i == 0:
                conn.sendall(reply[:10])
                time.sleep(0.3)
                reply = reply[10:]
            conn.sendall(reply)

    report = run_workload(_serve_one_client(straddle), [1, 2, 3], timeout_s=0.15)
    assert [r.outcome for r in report.records] == ["timeout", "direct", "direct"]
    assert report.timeouts == 1
    assert [g.timeouts for g in report.by_outcome().values()] == [1, 0]


def test_scenario_no_cache_labels_direct():
    result = run_scenario(tiny_config(with_cache=False))
    assert result.report.store_stats is None
    assert set(r.outcome for r in result.report.records) == {"direct"}


def test_scenario_seed_determinism_of_key_and_outcome_sequence():
    a = run_scenario(tiny_config())
    b = run_scenario(tiny_config())
    assert [r.key for r in a.report.records] == [r.key for r in b.report.records]
    assert [r.outcome for r in a.report.records] == [r.outcome for r in b.report.records]


def test_named_scenarios_cover_paper_layouts():
    assert SCENARIO_DELAYS["B-ohio"].direct_oneway_ms == pytest.approx(82.25)
    assert SCENARIO_DELAYS["B-tokyo"].direct_oneway_ms == pytest.approx(146.25)
    assert SCENARIO_DELAYS["C-ohio"].direct_oneway_ms == pytest.approx(82.0)
    cfg = ScenarioConfig.named("B-ohio", time_scale=10.0)
    assert cfg.scaled_delays.cache_server_oneway_ms == pytest.approx(8.2)
    with pytest.raises(ValueError):
        ScenarioConfig.named("D")


def test_sweep_and_summary_grid(tmp_path):
    sweep = run_capacity_sweep(tiny_config(), capacities=[2, 10], out_root=str(tmp_path))
    grid = summarize(sweep)
    assert "no cache" in grid and "cap 2" in grid and "cap 10" in grid
    assert "improvement" in grid
    # larger capacity means a mean no worse than the smaller one
    small, large = sweep.cells
    assert large.report.mean() <= small.report.mean() * 1.10
    assert (tmp_path / "no-cache" / "summary.txt").exists()
    assert (tmp_path / "capacity-10" / "requests.csv").exists()


def test_summarize_single_mentions_key_fields():
    result = run_scenario(tiny_config())
    text = summarize_single(result)
    assert "post-warm-up mean" in text
    assert "steady state" in text


def test_summary_improvement_arithmetic():
    sweep = run_capacity_sweep(tiny_config(requests=60), capacities=[10])
    direct = sweep.baseline.report.mean()
    cached = sweep.cells[0].report.mean()
    expected = (1 - cached / direct) * 100
    assert f"{expected:+.1f}%" in summarize(sweep)
