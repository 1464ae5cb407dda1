from __future__ import annotations

import csv
import inspect
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netkvcache import proxy as proxy_module
from netkvcache.engine import store_key
from netkvcache.loop import MAX_QUEUED_BYTES
from netkvcache.netlab.delay import DelayPipe
from netkvcache.netlab.mockserver import MockKVServer
from netkvcache.netlab.workload import ProtocolClient
from netkvcache.proxy import BindFailure, CacheProxy, ProxyConfig
from netkvcache.storage import CacheStore, Policy, canonical_key
from netkvcache.wire import (
    DEFAULT_MAX_MESSAGE_BYTES, HEADER_SIZE, ConnectionClosed, decode_document,
    make_message, read_message,
)
from support import SteppedWorld, send_and_read


@pytest.fixture
def server():
    server = MockKVServer(keyspace=50).start()
    yield server
    server.stop()


def start_proxy(upstream, capacity=100, **kwargs) -> CacheProxy:
    return CacheProxy(ProxyConfig(
        listen=("127.0.0.1", 0), upstream=upstream,
        capacity=capacity, shutdown_grace=0.5, **kwargs,
    )).start()


def test_hit_serves_same_document_without_second_upstream_trip(server):
    proxy = start_proxy(server.address)
    try:
        with ProtocolClient(proxy.address) as client:
            first = client.find(7)
            second = client.find(7)
        assert first["cursor"]["firstBatch"] == second["cursor"]["firstBatch"]
    finally:
        proxy.stop(grace=0.2)
    stats = proxy.store.snapshot_stats()
    assert (stats.misses, stats.hits, stats.fills) == (1, 1, 1)


def test_two_concurrent_clients_disjoint_keys(server):
    proxy = start_proxy(server.address)
    results = {}

    def run(name, keys):
        with ProtocolClient(proxy.address) as client:
            results[name] = [client.find(k)["cursor"]["firstBatch"][0]["_id"] for k in keys]

    try:
        t1 = threading.Thread(target=run, args=("a", list(range(1, 21))))
        t2 = threading.Thread(target=run, args=("b", list(range(21, 41))))
        t1.start(); t2.start(); t1.join(); t2.join()
        assert results["a"] == list(range(1, 21))
        assert results["b"] == list(range(21, 41))
    finally:
        proxy.stop(grace=0.2)
    assert proxy.store.entry_count() == 40


def test_upstream_down_closes_client_but_proxy_survives(server):
    # Reserve a port with no listener behind it.
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    dead_addr = placeholder.getsockname()[:2]
    placeholder.close()

    proxy = start_proxy(dead_addr)
    try:
        sock = socket.create_connection(proxy.address, timeout=2)
        rfile = sock.makefile("rb")
        with pytest.raises(ConnectionClosed):
            read_message(rfile)  # proxy closes us when its upstream dial fails
        sock.close()

        # The proxy is still accepting; point a working path through it by
        # bringing a server up on the very address it dials.
        rescue = MockKVServer(listen=dead_addr, keyspace=10).start()
        try:
            with ProtocolClient(proxy.address) as client:
                assert client.find(3)["cursor"]["firstBatch"][0]["_id"] == 3
        finally:
            rescue.stop()
    finally:
        proxy.stop(grace=0.2)


def test_client_disconnect_mid_flight_releases_session(server):
    slow = DelayPipe(server.address, oneway_ms=200.0).start()
    proxy = start_proxy(slow.address)
    find = {"find": "phrases", "filter": {"_id": {"$eq": 1}}}
    try:
        client = ProtocolClient(proxy.address)
        client.send(find)
        time.sleep(0.05)  # let the proxy forward the miss upstream
        client.close()
        time.sleep(0.8)   # response arrives after the client closed
        assert proxy.session_count() == 0
    finally:
        proxy.stop(grace=0.2)
        slow.stop()
    # A closed client looks half-closed, so the reply was still
    # relayed; the store holds exactly what the server answered.
    stored = proxy.store.get(store_key("phrases", canonical_key(1)))
    with ProtocolClient(server.address) as direct:
        assert stored.body == direct.request(find).body


def test_half_closed_client_gets_its_reply_then_eof(server):
    proxy = start_proxy(server.address)
    try:
        with ProtocolClient(proxy.address) as client:
            request_id = client.send({"find": "phrases", "filter": {"_id": {"$eq": 2}}})
            client.sock.shutdown(socket.SHUT_WR)
            assert client.receive_response(request_id).header.response_to == request_id
            assert client.sock.recv(1) == b""
        deadline = time.monotonic() + 2.0
        while proxy.session_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert proxy.session_count() == 0
    finally:
        proxy.stop(grace=0.2)


def test_hit_does_not_overtake_an_owed_reply(server):
    slow = DelayPipe(server.address, oneway_ms=100.0).start()
    proxy = start_proxy(slow.address)
    try:
        with ProtocolClient(proxy.address) as client:
            client.find(1)  # request 1 fills key 1
            ids = [client.send({"find": "phrases", "filter": {"_id": {"$eq": k}}})
                   for k in (2, 1)]  # a miss, then a read of the cached key
            got = [client.receive().header.response_to for _ in ids]
        assert got == ids == [2, 3]
    finally:
        proxy.stop(grace=0.2)
        slow.stop()
    stats = proxy.store.snapshot_stats()
    assert (stats.hits, stats.misses, stats.bypasses) == (0, 2, 1)


def test_write_to_one_collection_leaves_another_cached_and_current(server):
    proxy = start_proxy(server.address)
    find_b = {"find": "b", "filter": {"_id": {"$eq": 5}}}
    update_a = {"update": "a",
                "updates": [{"q": {"_id": {"$eq": 5}}, "u": {"$set": {"phrase": "new"}}}]}
    try:
        with ProtocolClient(proxy.address) as client:
            client.request(find_b)
            assert client.request_doc(update_a)["nModified"] == 1
            via_proxy = client.request(find_b)
        with ProtocolClient(server.address) as direct:
            assert direct.request(find_b).body == via_proxy.body
    finally:
        proxy.stop(grace=0.2)
    assert proxy.store.snapshot_stats().hits == 1


def test_write_naming_an_integral_double_id_invalidates_the_int_key(server):
    # A server matches _id 5.0 and 5 as one document, so the write must
    # drop what a find of 5 cached.
    proxy = start_proxy(server.address)
    update = {"update": "phrases",
              "updates": [{"q": {"_id": 5.0}, "u": {"$set": {"phrase": "new"}}}]}
    try:
        with ProtocolClient(proxy.address) as client:
            client.find(5)
            assert client.request_doc(update)["n"] == 1
            via_proxy = client.request({"find": "phrases", "filter": {"_id": {"$eq": 5}}})
        assert decode_document(via_proxy.body)["cursor"]["firstBatch"][0]["phrase"] == "new"
        with ProtocolClient(server.address) as direct:
            assert direct.request({"find": "phrases", "filter": {"_id": 5}}).body == via_proxy.body
    finally:
        proxy.stop(grace=0.2)


def test_insert_over_a_cached_id_is_seen_by_the_next_find(server):
    # The server's insert overwrites an existing _id, so the insert must
    # drop what the first find cached.
    proxy = start_proxy(server.address)
    insert = {"insert": "phrases", "documents": [{"_id": 7, "phrase": "inserted"}]}
    try:
        with ProtocolClient(proxy.address) as client:
            client.find(7)
            assert client.request_doc(insert)["n"] == 1
            assert client.find(7)["cursor"]["firstBatch"] == [insert["documents"][0]]
    finally:
        proxy.stop(grace=0.2)
    stats = proxy.store.snapshot_stats()
    assert (stats.hits, stats.misses, stats.bypasses) == (0, 2, 0)


def test_cache_keys_are_scoped_by_collection(server):
    proxy = start_proxy(server.address)
    fresh = MockKVServer(keyspace=50).start()
    find_b = {"find": "b", "filter": {"_id": {"$eq": 5}}}
    try:
        with ProtocolClient(proxy.address) as client:
            client.find(5, collection="a")
            got = client.request(find_b)
        with ProtocolClient(fresh.address) as direct:
            expected = direct.request(find_b)
        assert got.body == expected.body
    finally:
        proxy.stop(grace=0.2)
        fresh.stop()
    stats = proxy.store.snapshot_stats()
    assert (stats.hits, stats.misses) == (0, 2)


def test_collection_not_named_by_a_string_is_never_cached(server):
    proxy = start_proxy(server.address)
    find_6 = {"find": 6, "filter": {"_id": {"$eq": 1}}}
    update_7 = {"update": 7,
                "updates": [{"q": {"_id": {"$eq": 2}}, "u": {"$set": {"phrase": "new"}}}]}
    try:
        with ProtocolClient(proxy.address) as client:
            client.request({"find": 5, "filter": {"_id": {"$eq": 1}}})
            got = client.request(find_6)
            client.find(2)
            client.find(2)  # a hit: key 2 was cached
            client.request(update_7)  # a keyed write, but the key is unscoped
            client.find(2)  # a miss: the write dropped every entry
        with ProtocolClient(server.address) as direct:
            assert direct.request(find_6).body == got.body
    finally:
        proxy.stop(grace=0.2)
    stats = proxy.store.snapshot_stats()
    assert (stats.hits, stats.misses, stats.bypasses) == (1, 2, 2)


def test_coordination_traffic_passes_byte_identically(server):
    proxy = start_proxy(server.address)
    try:
        ops = [{"hello": 1, "client": "t"}, {"ping": 1}]
        with ProtocolClient(server.address) as direct:
            expected = [send_and_read(direct, op) for op in ops]
        with ProtocolClient(proxy.address) as proxied:
            assert [send_and_read(proxied, op) for op in ops] == expected
    finally:
        proxy.stop(grace=0.2)


def test_coordination_soak_1000_messages_byte_identical(server):
    proxy = start_proxy(server.address)
    try:
        with ProtocolClient(server.address) as direct:
            expected = [send_and_read(direct, {"ping": i}) for i in range(1000)]
        with ProtocolClient(proxy.address) as proxied:
            assert [send_and_read(proxied, {"ping": i}) for i in range(1000)] == expected
    finally:
        proxy.stop(grace=0.2)
    stats = proxy.store.snapshot_stats()
    assert stats.hits == stats.misses == stats.bypasses == 0


def test_oversize_message_tears_down_session_only(server):
    proxy = start_proxy(server.address)
    try:
        sock = socket.create_connection(proxy.address, timeout=2)
        sock.sendall((2**31).to_bytes(4, "little") + b"\x00" * 32)
        rfile = sock.makefile("rb")
        with pytest.raises(ConnectionClosed):
            read_message(rfile)
        sock.close()
        with ProtocolClient(proxy.address) as client:  # proxy still serving
            assert client.find(1)["ok"] == 1.0
    finally:
        proxy.stop(grace=0.2)


BAD_LENGTHS = st.integers(0, HEADER_SIZE - 1) | st.integers(DEFAULT_MAX_MESSAGE_BYTES + 1, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(
    sender=st.sampled_from(["client", "upstream"]),
    kind=st.sampled_from(["binary", "length", "document"]),
    data=st.binary(min_size=1, max_size=120),
    length=BAD_LENGTHS,
    answers_pending=st.booleans(),
)
def test_bad_bytes_end_only_the_session_that_sent_them(sender, kind, data, length,
                                                       answers_pending):
    find = {"find": "p", "filter": {"_id": 5}}
    with SteppedWorld([[find], [find, find]]) as world:
        bad, good = world.sessions
        world.send(bad)  # forwarded: the bad session has a find pending
        world.send(good)
        if kind == "length":
            data = length.to_bytes(4, "little") + data
        elif kind == "document":  # a whole frame whose body is not a valid document
            data = make_message(999, bad.awaited[0] if answers_pending else 0, data).to_bytes()
        (bad.client if sender == "client" else bad.server).sock.sendall(data)
        world.settle()  # no exception escapes Loop.step
        if kind == "length":
            assert not bad.client.reading and not bad.server.reading
        while good.sent < len(good.script) or good.at_server or good.replies:
            if good.replies:
                world.reply(good)
            elif good.at_server:
                world.apply(good)
            else:
                world.send(good)
        assert good.violations == [] and not good.awaited
        assert good.client.reading and world.proxy.store.snapshot_stats().hits == 1


def test_per_leg_order_preserved_with_pipelined_messages(server):
    proxy = start_proxy(server.address)
    try:
        with ProtocolClient(proxy.address) as client:
            ids = [
                client.send({"find": "phrases", "filter": {"_id": {"$eq": 1}}}),
                client.send({"ping": 1}),
                client.send({"find": "phrases", "filter": {"_id": {"$eq": 2}}}),
            ]
            got = [client.receive().header.response_to for _ in ids]
        assert got == ids
    finally:
        proxy.stop(grace=0.2)


def test_capacity_zero_never_stores_and_still_answers(server):
    proxy = start_proxy(server.address, capacity=0)
    try:
        with ProtocolClient(proxy.address) as client:
            for _ in range(3):
                doc = client.find(5)
                assert doc["cursor"]["firstBatch"][0]["_id"] == 5
    finally:
        proxy.stop(grace=0.2)
    stats = proxy.store.snapshot_stats()
    assert stats.misses == 3 and stats.hits == 0
    assert stats.rejected_fills == 3 and stats.fills == 0
    assert proxy.store.entry_count() == 0


def test_bind_failure_raises():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    addr = blocker.getsockname()[:2]
    try:
        with pytest.raises(BindFailure):
            CacheProxy(ProxyConfig(listen=addr, upstream=("127.0.0.1", 1), capacity=1)).start()
    finally:
        blocker.close()


def test_stats_rows_idle_and_snapshot_agreement(tmp_path, server):
    path = tmp_path / "stats.csv"
    proxy = start_proxy(server.address, stats_interval=0.1, stats_out=str(path))
    try:
        time.sleep(0.35)
        assert len(path.read_text().splitlines()) >= 3  # rows reach the file at once
        with ProtocolClient(proxy.address) as client:
            for key in (1, 1, 2):
                client.find(key)
        time.sleep(0.25)
    finally:
        proxy.stop(grace=0.2)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) >= 3
    assert float(rows[0]["rps"]) == 0.0 and int(rows[0]["hits"]) == 0
    last = rows[-1]
    stats = proxy.store.snapshot_stats()
    assert int(last["hits"]) == stats.hits == 1
    assert int(last["misses"]) == stats.misses == 2
    # per-interval deltas reassemble the workload total
    total = round(sum(float(r["rps"]) for r in rows) * 0.1)
    assert total == stats.hits + stats.misses + stats.bypasses == 3


def test_stats_file_that_fails_stops_rows_not_the_proxy(server):
    proxy = start_proxy(server.address, stats_interval=0.05, stats_out="/dev/full")
    try:
        time.sleep(0.15)  # rows fall due on the loop thread
        with ProtocolClient(proxy.address) as client:
            assert client.find(1)["ok"] == 1.0
    finally:
        with pytest.raises(OSError):  # closing cannot write what the file refused
            proxy.stop(grace=0.2)


def test_stats_csv_written(tmp_path, server):
    path = tmp_path / "stats.csv"
    proxy = start_proxy(server.address, stats_interval=0.1, stats_out=str(path))
    try:
        with ProtocolClient(proxy.address) as client:
            client.find(1)
        time.sleep(0.25)
    finally:
        proxy.stop(grace=0.2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "ts,hits,misses,bypasses,fills,rejected_fills,invalidations,entries,rps"
    assert len(lines) >= 2


def test_graceful_stop_with_idle_client(server):
    proxy = start_proxy(server.address)
    client = ProtocolClient(proxy.address)
    client.find(1)
    t0 = time.monotonic()
    proxy.stop(grace=0.3)
    assert time.monotonic() - t0 < 2.0
    assert proxy.session_count() == 0
    client.close()


def _non_mock_threads() -> int:
    return sum(1 for t in threading.enumerate() if not t.name.startswith("mock-"))


def test_all_sessions_share_one_loop_thread(tmp_path, server):
    before = _non_mock_threads()
    proxy = start_proxy(server.address, stats_interval=0.1,
                        stats_out=str(tmp_path / "stats.csv"))
    clients = []
    try:
        for key in range(1, 5):
            clients.append(ProtocolClient(proxy.address))
            assert clients[-1].find(key)["ok"] == 1.0
        assert proxy.session_count() == 4
        assert _non_mock_threads() - before <= 1  # the loop, which also takes the stats rows
    finally:
        for client in clients:
            client.close()
        proxy.stop(grace=0.2)


def test_hanging_upstream_connect_blocks_no_other_session(monkeypatch):
    # An upstream whose accept queue is full drops SYNs, so connects hang.
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    fillers = []
    for _ in range(4):
        filler = socket.socket()
        filler.setblocking(False)
        filler.connect_ex(listener.getsockname())
        fillers.append(filler)
    monkeypatch.setattr(proxy_module, "CONNECT_TIMEOUT_S", 0.3)
    proxy = start_proxy(listener.getsockname()[:2])
    clients = []
    try:
        t0 = time.monotonic()
        clients = [socket.create_connection(proxy.address, timeout=2) for _ in range(2)]
        for sock in clients:
            with pytest.raises(ConnectionClosed):
                read_message(sock.makefile("rb"))
            assert time.monotonic() - t0 < 0.55
    finally:
        t1 = time.monotonic()
        proxy.stop(grace=0.2)
        assert time.monotonic() - t1 < 1.0
        for sock in clients + fillers + [listener]:
            sock.close()


def test_slow_upstream_lookup_after_start_holds_up_no_session(server, monkeypatch):
    # The upstream is resolved at start; a lookup on the loop thread for a
    # new client would hold up every other session.
    proxy = start_proxy(server.address)
    getaddrinfo = socket.getaddrinfo

    def slow(*args, **kwargs):
        if threading.current_thread().name == "proxy-loop":
            time.sleep(0.3)
        return getaddrinfo(*args, **kwargs)

    try:
        with ProtocolClient(proxy.address) as settled:
            settled.find(1)  # a miss and its fill
            monkeypatch.setattr(socket, "getaddrinfo", slow)
            with ProtocolClient(proxy.address) as newcomer:
                time.sleep(0.05)  # the newcomer is accepted
                t0 = time.monotonic()
                assert settled.find(1)["cursor"]["firstBatch"][0]["_id"] == 1
                assert time.monotonic() - t0 < 0.1
                assert newcomer.find(2)["cursor"]["firstBatch"][0]["_id"] == 2
    finally:
        proxy.stop(grace=0.2)
    assert proxy.store.snapshot_stats().hits == 1


def test_idle_proxy_makes_no_zero_timeout_turns_for_its_timers(server, monkeypatch):
    # Each session's connect timer fires while the proxy is idle; waiting
    # for it needs no spin, so no loop turn polls with a zero timeout.
    monkeypatch.setattr(proxy_module, "CONNECT_TIMEOUT_S", 0.5)
    proxy = CacheProxy(ProxyConfig(listen=("127.0.0.1", 0), upstream=server.address,
                                   capacity=100, shutdown_grace=0.5))
    timeouts, run_timers = [], proxy._run_timers

    def counted():
        timeout = run_timers()
        timeouts.append(timeout)
        return timeout

    proxy._run_timers = counted
    proxy.start()
    clients = []
    try:
        for key in range(1, 21):
            clients.append(ProtocolClient(proxy.address))
            clients[-1].find(key)
        assert proxy.session_count() == 20
        timeouts.clear()
        time.sleep(1.5)
        assert proxy.session_count() == 20
        assert [t for t in list(timeouts) if t is not None and t <= 0] == []
    finally:
        for client in clients:
            client.close()
        proxy.stop(grace=0.2)


def test_backpressure_bounds_queue_of_a_client_that_does_not_read():
    big = MockKVServer(keyspace=4, doc_size=64 * 1024).start()
    proxy = start_proxy(big.address)
    finds = [{"find": "phrases", "filter": {"_id": {"$eq": 1 + i % 4}}} for i in range(160)]
    try:
        with ProtocolClient(big.address) as direct:
            # The same request ids as the proxied client, which fills the cache first.
            expected = [direct.request(body).to_bytes() for body in finds[:4] + finds][4:]
        largest = max(len(frame) for frame in expected)
        with ProtocolClient(proxy.address) as client:
            # Before any reply: shrunk after the kernel has grown it, the
            # buffer stalls each refill on a ~200 ms window probe.
            client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
            for body in finds[:4]:
                client.request(body)  # fill the cache: every find below is a hit
            for body in finds:
                client.send(body)
            peak = 0
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                peak = max([peak] + [s.queued_bytes() for s in list(proxy._connections)])
                time.sleep(0.002)
            got = [client.receive().to_bytes() for _ in finds]
        assert MAX_QUEUED_BYTES <= peak <= MAX_QUEUED_BYTES + largest
        # A hit carries a request id of the proxy's own; all else is the server's.
        assert [f[:4] + f[8:] for f in got] == [f[:4] + f[8:] for f in expected]
    finally:
        proxy.stop(grace=0.2)
        big.stop()
    assert proxy.store.snapshot_stats().hits == len(finds)


def test_ended_session_drops_what_its_legs_held():
    big = MockKVServer(keyspace=4, doc_size=64 * 1024).start()
    proxy = start_proxy(big.address)
    find = {"find": "phrases", "filter": {"_id": {"$eq": 1}}}
    try:
        client = ProtocolClient(proxy.address)
        client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
        for _ in range(80):  # never read: the replies pile up in the proxy
            client.send(find)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            sessions = list(proxy._connections)
            if sessions and sessions[0].queued_bytes() >= MAX_QUEUED_BYTES:
                break
            time.sleep(0.005)
        (session,) = sessions
        assert session.queued_bytes() >= MAX_QUEUED_BYTES
        client.close()
        deadline = time.monotonic() + 2.0
        while proxy.session_count() and time.monotonic() < deadline:
            time.sleep(0.005)
        # The session's connect timer still refers to it, but it holds nothing.
        assert session.closed and proxy.session_count() == 0
        assert sum(len(leg.inbuf) + len(leg.outbuf) for leg in session.legs) == 0
    finally:
        proxy.stop(grace=0.2)
        big.stop()


def test_stop_does_not_wait_for_a_pending_stats_timer(tmp_path, server):
    proxy = start_proxy(server.address, stats_interval=1.0, stats_out=str(tmp_path / "s.csv"))
    time.sleep(0.05)
    t0 = time.monotonic()
    proxy.stop(grace=0)
    assert time.monotonic() - t0 < 0.5


def test_slow_upstream_delays_only_its_own_session(server):
    slow = DelayPipe(server.address, oneway_ms=200.0).start()
    proxy = start_proxy(slow.address)
    try:
        with ProtocolClient(proxy.address) as fast, ProtocolClient(proxy.address) as waiting:
            fast.find(1)  # fills the key through the slow upstream
            request_id = waiting.send({"find": "phrases", "filter": {"_id": {"$eq": 2}}})
            time.sleep(0.05)  # the miss is now upstream
            t0 = time.monotonic()
            assert fast.find(1)["cursor"]["firstBatch"][0]["_id"] == 1
            assert time.monotonic() - t0 < 0.05
            assert waiting.receive_response(request_id).header.response_to == request_id
    finally:
        proxy.stop(grace=0.2)
        slow.stop()
    assert proxy.store.snapshot_stats().hits == 1


def test_stop_drains_forwarded_requests_the_engine_does_not_track(server):
    # A range find and a hello are relayed untracked; stop still waits
    # for their replies, as it waits for a tracked find's.
    slow = DelayPipe(server.address, oneway_ms=150.0).start()
    proxy = start_proxy(slow.address)
    range_find = {"find": "phrases", "filter": {"_id": {"$gt": 60}}}
    try:
        with ProtocolClient(proxy.address) as client:
            ids = [client.send(range_find), client.send({"hello": 1})]
            time.sleep(0.05)  # both are now upstream
            t0 = time.monotonic()
            proxy.stop(grace=1.0)
            assert time.monotonic() - t0 < 0.9  # it stopped once both were answered
            got = [client.receive() for _ in ids]
        assert [m.header.response_to for m in got] == ids
        assert decode_document(got[0].body)["ok"] == 1.0
        assert proxy.store.snapshot_stats().bypasses == 1
    finally:
        proxy.stop(grace=0.2)
        slow.stop()


def test_only_the_loop_thread_touches_a_running_proxys_store(tmp_path, server, monkeypatch):
    calls, phase = [], ["starting"]

    def recorded(name, method):
        def call(*args, **kwargs):
            calls.append((phase[0], name, threading.current_thread().name))
            return method(*args, **kwargs)
        return call

    for name, method in inspect.getmembers(CacheStore, inspect.isfunction):
        if not name.startswith("_"):
            monkeypatch.setattr(CacheStore, name, recorded(name, method))
    proxy = start_proxy(server.address, stats_interval=0.05, stats_out=str(tmp_path / "s.csv"))
    phase[0] = "running"
    keyed = {"update": "phrases",
             "updates": [{"q": {"_id": 1}, "u": {"$set": {"phrase": "new"}}}]}
    unkeyed = {"update": "phrases",
               "updates": [{"q": {"phrase": "new"}, "u": {"$set": {"phrase": "newer"}}}]}
    two_statements = {"update": "phrases", "updates": keyed["updates"] * 2}
    try:
        with ProtocolClient(proxy.address) as client:
            client.find(1)  # a miss and its fill
            client.find(1)  # a hit
            client.request(keyed)
            client.request(unkeyed)
            client.request(two_statements)  # a bypass
            client.request({"find": "phrases", "filter": {"_id": {"$gt": 3}}})  # a bypass
        time.sleep(0.15)  # stats rows fall due
    finally:
        phase[0] = "stopping"
        proxy.stop(grace=0.2)
    running = [(name, thread) for when, name, thread in calls if when == "running"]
    assert {thread for _, thread in running} == {"proxy-loop"}
    names = [name for name, _ in running]
    assert {"get", "put", "invalidate", "invalidate_all", "record_bypass"} <= set(names)
    assert names.count("snapshot_stats") >= 2 and names.count("entry_count") >= 2
    stats = proxy.store.snapshot_stats()
    assert (stats.hits, stats.misses, stats.fills, stats.bypasses) == (1, 1, 1, 2)
