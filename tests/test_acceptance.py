"""Acceptance suite: one test per criterion, one pass/fail line each.

Scenario cells run at desk scale (delays divided by 10, 1,000 requests)
and are checked with scale-invariant ratios, so the thresholds don't
depend on the hardware the suite runs on. Shared cells are computed
once and reused across criteria.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they pass.
"""

from __future__ import annotations

import io
import itertools
import random
import statistics
import threading
import time

import pytest

from netkvcache import wire
from netkvcache.netlab.mockserver import MockKVServer
from netkvcache.netlab.scenario import DelaySpec, ScenarioConfig, ScenarioResult, run_scenario
from netkvcache.netlab.workload import MetricsReport, ProtocolClient
from netkvcache.proxy import CacheProxy, ProxyConfig
from netkvcache.storage import CacheStore, Miss, PutOutcome, canonical_key
from support import random_document, random_header, send_and_read

# Desk-scale profile: delay ratios preserved, wall time bounded.
TIME_SCALE = 10.0
REQUESTS = 1000
SEED = 42

# Allowance for proxy/server processing and localhost fabric on top of
# the emulated delays, used where a criterion pins an absolute window.
EPSILON_MS = 1.0


def _pass(n: int, detail: str) -> None:
    print(f"[acceptance] criterion {n:2d}: PASS — {detail}")


# -- shared scenario cells -------------------------------------------------------

_CELLS: dict[str, ScenarioResult] = {}


def _config(key: str) -> ScenarioConfig:
    base = dict(
        requests=REQUESTS, keyspace=100,
        time_scale=TIME_SCALE, seed=SEED,
    )
    scenario, _, variant = key.partition("/")
    if scenario == "A0":
        # criterion 3 runs at literally zero emulated distance
        cfg = ScenarioConfig(name="A-zero", delays=DelaySpec(0.0, 0.0), **base)
    else:
        cfg = ScenarioConfig.named(scenario, **base)
    if variant == "nocache":
        cfg.with_cache = False
    else:
        cfg.with_cache = True
        cfg.capacity = int(variant.removeprefix("cap"))
    return cfg


def cell(key: str) -> ScenarioResult:
    if key not in _CELLS:
        _CELLS[key] = run_scenario(_config(key))
    return _CELLS[key]


def scaled(spec: DelaySpec) -> DelaySpec:
    return DelaySpec(spec.client_cache_oneway_ms / TIME_SCALE,
                     spec.cache_server_oneway_ms / TIME_SCALE)


# -- criteria ----------------------------------------------------------------------


def test_criterion_1_scenario_b_reduction():
    baseline = cell("B-ohio/nocache").report
    cached = cell("B-ohio/cap100").report
    ratio = cached.post_warmup_mean() / baseline.mean()
    assert ratio <= 0.20, (
        f"post-warm-up cached mean {cached.post_warmup_mean():.2f} ms is "
        f"{ratio:.1%} of the no-cache mean {baseline.mean():.2f} ms"
    )
    _pass(1, f"scenario B post-warm-up mean {cached.post_warmup_mean():.2f} ms "
             f"= {ratio:.1%} of no-cache {baseline.mean():.2f} ms (bound 20%)")


def test_criterion_2_scenario_c_reduction():
    baseline = cell("C-ohio/nocache").report
    cached = cell("C-ohio/cap100").report
    d = scaled(_config("C-ohio/cap100").delays)
    target = 2 * d.client_cache_oneway_ms + EPSILON_MS
    mean = cached.post_warmup_mean()
    assert 0.75 * target <= mean <= 1.25 * target, (
        f"post-warm-up mean {mean:.2f} ms outside ±25% of {target:.2f} ms"
    )
    reduction = 1 - mean / baseline.mean()
    assert reduction >= 0.80, f"only {reduction:.1%} below the no-cache mean"
    _pass(2, f"scenario C post-warm-up mean {mean:.2f} ms within ±25% of "
             f"{target:.2f} ms and {reduction:.1%} below no-cache")


def test_criterion_3_scenario_a_overhead():
    # Three pairs, so that a pause of the test process that lands in one
    # cell moves one of three means, not the verdict; each pair alternates
    # which cell runs first.
    reports = {"A0/nocache": [], "A0/cap100": []}
    for order in (1, -1, 1):
        for key in list(reports)[::order]:
            reports[key].append(run_scenario(_config(key)).report)
    direct, cached = reports.values()
    direct_mean = statistics.median(r.mean() for r in direct)
    cached_mean = statistics.median(r.mean() for r in cached)
    assert cached_mean > direct_mean, (
        f"median cached mean {cached_mean:.3f} ms not above median direct mean {direct_mean:.3f} ms"
    )
    strata = MetricsReport([r for report in cached for r in report.records], 0.0).stratified_means()
    assert strata["miss"] > strata["hit"], (
        f"first-request (miss) mean {strata['miss']:.3f} ms not above "
        f"hit mean {strata['hit']:.3f} ms"
    )
    _pass(3, f"zero-distance median cached mean {cached_mean:.3f} ms > direct "
             f"{direct_mean:.3f} ms over 3 alternating pairs; "
             f"miss {strata['miss']:.3f} > hit {strata['hit']:.3f} ms")


def test_criterion_4_hit_miss_stratification():
    report = cell("B-ohio/cap100").report
    d = scaled(_config("B-ohio/cap100").delays)
    strata = report.stratified_means()
    expected_miss = 2 * (d.client_cache_oneway_ms + d.cache_server_oneway_ms)
    assert 0.85 * expected_miss <= strata["miss"] <= 1.15 * expected_miss, (
        f"miss mean {strata['miss']:.2f} ms outside ±15% of {expected_miss:.2f} ms"
    )
    hit_floor = 2 * d.client_cache_oneway_ms
    assert hit_floor <= strata["hit"] <= hit_floor + 10.0, (
        f"hit mean {strata['hit']:.2f} ms outside [{hit_floor:.2f}, {hit_floor + 10:.2f}]"
    )
    assert strata["hit"] < 0.25 * strata["miss"], (
        f"hit mean {strata['hit']:.2f} ms is not under 25% of miss mean {strata['miss']:.2f} ms"
    )
    _pass(4, f"miss mean {strata['miss']:.2f} ms ≈ {expected_miss:.2f} ms; "
             f"hit mean {strata['hit']:.2f} ms = "
             f"{strata['hit'] / strata['miss']:.1%} of miss mean")


def test_criterion_5_capacity_monotonicity():
    capacities = [10, 30, 70, 100]
    means = [cell(f"B-ohio/cap{c}").report.post_warmup_mean() for c in capacities]
    for (c_small, m_small), (c_big, m_big) in zip(zip(capacities, means),
                                                  zip(capacities[1:], means[1:])):
        assert m_big <= m_small, (
            f"capacity {c_big} mean {m_big:.2f} ms exceeds capacity {c_small} mean {m_small:.2f} ms"
        )
    stats = cell("B-ohio/cap10").report.store_stats
    hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
    assert abs(hit_rate - 0.10) <= 0.05, f"capacity-10 hit rate {hit_rate:.1%} not within 10% ± 5pp"
    _pass(5, "post-warm-up means non-increasing over capacities "
             + " > ".join(f"{m:.1f}" for m in means)
             + f" ms; capacity-10 hit rate {hit_rate:.1%} (oracle 10%)")


def test_criterion_6_throughput_gain():
    baseline = cell("B-ohio/nocache").report
    cached = cell("B-ohio/cap100").report
    steady = cached.steady_state_rps()
    floor = 5 * baseline.overall_rps()
    assert steady >= floor, f"steady-state {steady:.0f} rps below 5x no-cache ({floor:.0f} rps)"
    r1, r2, r3 = cached.phase_rates(3)
    assert r1 < 0.5 * r2, f"no warm-up ramp visible ({r1:.0f} vs {r2:.0f} rps)"
    assert r2 <= 1.15 * r3, f"throughput fell after warm-up ({r2:.0f} vs {r3:.0f} rps)"
    _pass(6, f"steady-state {steady:.0f} rps ≥ 5 x no-cache {baseline.overall_rps():.0f} rps; "
             f"warm-up ramp {r1:.0f} → {r2:.0f} → {r3:.0f} rps")


def test_criterion_7_write_invalidate_freshness():
    trials = 1000
    key = 7
    rng = random.Random(1007)
    server = MockKVServer(keyspace=10).start()
    proxy = CacheProxy(ProxyConfig(
        listen=("127.0.0.1", 0), upstream=server.address,
        capacity=100, shutdown_grace=0.2,
    )).start()
    stale = []
    try:
        writer = ProtocolClient(proxy.address)
        reader = ProtocolClient(proxy.address)
        writer.request_doc({"insert": "phrases", "documents": [{"_id": key, "v": -1}]})

        def read_value() -> int:
            doc = reader.find(key)
            return doc["cursor"]["firstBatch"][0]["v"]

        for trial in range(trials):
            gaps = [rng.uniform(0, 0.0007) for _ in range(6)]
            writer_delay = rng.uniform(0, 0.0015)
            stop = threading.Event()

            def reader_loop():
                for gap in gaps:
                    if stop.is_set():
                        return
                    read_value()  # may legitimately be the old value
                    time.sleep(gap)

            racer = threading.Thread(target=reader_loop)
            racer.start()
            time.sleep(writer_delay)
            writer.request_doc({
                "update": "phrases",
                "updates": [{"q": {"_id": {"$eq": key}}, "u": {"$set": {"v": trial}}}],
            })
            # update acknowledged: every find issued from here on must be fresh
            stop.set()
            racer.join()
            for probe in range(2):
                value = read_value()
                if value != trial:
                    stale.append((trial, probe, value))
        writer.close()
        reader.close()
    finally:
        proxy.stop(grace=0.2)
        server.stop()
    assert not stale, f"stale reads after acknowledged updates: {stale[:5]}"
    _pass(7, f"{trials} seeded update/find interleavings across two sessions, "
             f"0 stale reads after the update acknowledgment")


def test_criterion_8_epoch_safety_oracle():
    def oracle_stored(order: tuple[str, ...]) -> bool:
        # fill lands iff no invalidation between the miss and the fill
        return not (order.index("miss") < order.index("invalidate") < order.index("fill"))

    checked = 0
    for wipe_all in (False, True):
        for order in itertools.permutations(("miss", "invalidate", "fill")):
            if order.index("miss") > order.index("fill"):
                continue
            store = CacheStore(capacity=4)
            key = canonical_key(1)
            token = outcome = None
            for event in order:
                if event == "miss":
                    result = store.get(key)
                    assert isinstance(result, Miss)
                    token = result.token
                elif event == "invalidate":
                    store.invalidate_all() if wipe_all else store.invalidate(key)
                else:
                    outcome = store.put(key, b"v", token)
            assert (outcome is PutOutcome.STORED) == oracle_stored(order), (wipe_all, order)
            checked += 1
    assert checked == 6  # 3 orderings x {per-key, global} invalidation
    _pass(8, "all interleavings of {miss, invalidate, fill} match the oracle "
             "(fill stored iff no invalidation in between), per-key and global")


def test_criterion_9_codec_properties():
    rng = random.Random(2024)
    for _ in range(1000):
        h = random_header(rng)
        assert wire.decode_header(wire.encode_header(h)) == h
    for _ in range(1000):
        doc = random_document(rng)
        encoded = wire.encode_document(doc)
        assert wire.decode_document(encoded) == doc

    fuzzed = 0
    for _ in range(5000):  # raw random blobs
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
        try:
            wire.decode_document(blob)
        except wire.WireError:
            pass
        fuzzed += 1
    for _ in range(3000):  # mutations of valid encodings
        data = bytearray(wire.encode_document(random_document(rng)))
        for _ in range(rng.randint(1, 4)):
            mode = rng.randrange(3)
            if mode == 0 and data:
                data[rng.randrange(len(data))] = rng.randrange(256)
            elif mode == 1 and len(data) > 1:
                del data[rng.randrange(len(data))]
            else:
                data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
        try:
            wire.decode_document(bytes(data))
        except wire.WireError:
            pass
        fuzzed += 1
    for _ in range(2000):  # random byte streams through the framer
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        try:
            wire.read_message(io.BytesIO(blob), max_bytes=1 << 20)
        except wire.WireError:
            pass
        fuzzed += 1
    assert fuzzed >= 10000
    _pass(9, f"1000 header + 1000 document round trips exact; "
             f"{fuzzed} fuzz inputs produced only typed errors")


def _mixed_ops(seed: int, count: int = 500) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        key = rng.randint(1, 50)
        roll = rng.random()
        if roll < 0.55:
            ops.append({"find": "phrases", "filter": {"_id": {"$eq": key}}})
        elif roll < 0.65:
            ops.append({"find": "phrases", "filter": {"_id": {"$gt": key}}})
        elif roll < 0.75:
            ops.append({"insert": "phrases", "documents": [{"_id": key, "v": rng.random()}]})
        elif roll < 0.90:
            ops.append({"update": "phrases",
                        "updates": [{"q": {"_id": {"$eq": key}},
                                     "u": {"$set": {"v": rng.random()}}}]})
        elif roll < 0.97:
            ops.append({"delete": "phrases", "deletes": [{"q": {"_id": key}, "limit": 1}]})
        else:
            ops.append({"ping": 1})
    return ops


def _transcribed_run(ops: list[dict], through_proxy: bool):
    """The replies the client read, one per request, and the mock's transcripts."""
    server = MockKVServer(keyspace=50, record_transcript=True).start()
    proxy = None
    target = server.address
    try:
        if through_proxy:
            proxy = CacheProxy(ProxyConfig(
                listen=("127.0.0.1", 0), upstream=server.address,
                capacity=0, shutdown_grace=0.2,
            )).start()
            target = proxy.address
        with ProtocolClient(target) as client:
            replies = [send_and_read(client, op)
                       for op in [{"hello": 1, "client": "netlab"}] + ops]
    finally:
        if proxy is not None:
            proxy.stop(grace=0.2)
        server.stop()
    return replies, server.transcripts


def test_criterion_10_transparency():
    ops = _mixed_ops(seed=777, count=500)
    direct_replies, direct_server = _transcribed_run(ops, through_proxy=False)
    proxied_replies, proxied_server = _transcribed_run(ops, through_proxy=True)
    assert proxied_replies == direct_replies
    assert len(proxied_server) == len(direct_server) == 1
    assert proxied_server[0]["received"] == direct_server[0]["received"]
    assert proxied_server[0]["sent"] == direct_server[0]["sent"]
    messages = len(direct_replies) + len(direct_server[0]["received"]) + len(direct_server[0]["sent"])
    _pass(10, f"capacity-0 transcripts of a 500-request mixed workload are "
              f"byte-identical to a direct connection: the client's replies and "
              f"the server's requests and replies ({messages} messages)")


def test_criterion_11_stats_conservation():
    for key in ("B-ohio/cap100", "B-ohio/cap10"):
        report = cell(key).report
        stats = report.store_stats
        finds = len(report.records)
        assert stats["hits"] + stats["misses"] + stats["bypasses"] == finds, (key, stats)
        # every miss in these runs gets a successful non-empty response
        assert stats["fills"] + stats["rejected_fills"] == stats["misses"], (key, stats)
        assert report.reconciled is True
    _pass(11, "hits+misses+bypasses equals issued finds and "
              "fills+rejected_fills equals misses for capacities 100 and 10")
