"""Closed-loop workload client, metrics collection, and the offline
hit-rate simulator used to label individual requests.

The client issues one request at a time and waits for the matching
response, so throughput is the reciprocal of mean latency. Request
outcomes (hit/miss) are not observable on the wire; they are labeled by
replaying the deterministic key sequence through a small, independent
model of the residency policy, and reconciled against the proxy's own
counters by the scenario runner.
"""

from __future__ import annotations

import random
import socket
import statistics
import time
from collections import OrderedDict
from dataclasses import dataclass

from .. import wire


@dataclass
class WorkloadConfig:
    batches: int = 30
    per_batch: int = 1000
    keyspace: int = 100
    seed: int = 42
    request_timeout_s: float = 10.0
    hello: bool = True

    @property
    def total_requests(self) -> int:
        return self.batches * self.per_batch


def key_sequence(cfg: WorkloadConfig) -> list[int]:
    """The exact uniform key sequence a run with this config will issue."""
    rng = random.Random(cfg.seed)
    return [rng.randint(1, cfg.keyspace) for _ in range(cfg.total_requests)]


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


@dataclass
class RequestRecord:
    seq: int
    key: int
    outcome: str
    latency_ms: float
    completed_at: float  # seconds since workload start


@dataclass
class MetricsReport:
    records: list[RequestRecord]
    duration_s: float
    timeouts: int = 0
    store_stats: dict | None = None
    store_entries: int | None = None
    reconciled: bool | None = None

    @property
    def samples(self) -> list[float]:
        return [r.latency_ms for r in self.records]

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def median(self) -> float:
        return statistics.median(self.samples)

    def percentile(self, p: float) -> float:
        ordered = sorted(self.samples)
        idx = max(0, min(len(ordered) - 1, round(p / 100 * len(ordered)) - 1))
        return ordered[idx]

    def post_warmup_records(self, fraction: float = 0.8) -> list[RequestRecord]:
        """The final ``fraction`` of requests, past the population phase."""
        start = len(self.records) - int(len(self.records) * fraction)
        return self.records[start:]

    def post_warmup_mean(self, fraction: float = 0.8) -> float:
        return statistics.fmean(r.latency_ms for r in self.post_warmup_records(fraction))

    def stratified_means(self) -> dict[str, float]:
        groups: dict[str, list[float]] = {}
        for r in self.records:
            groups.setdefault(r.outcome, []).append(r.latency_ms)
        return {k: statistics.fmean(v) for k, v in groups.items()}

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    def hit_rate(self) -> float:
        counts = self.outcome_counts()
        eligible = counts.get("hit", 0) + counts.get("miss", 0)
        return counts.get("hit", 0) / eligible if eligible else 0.0

    def throughput_series(self) -> list[tuple[int, int]]:
        """Requests completed in each whole second of the run."""
        buckets: dict[int, int] = {}
        for r in self.records:
            buckets[int(r.completed_at)] = buckets.get(int(r.completed_at), 0) + 1
        return sorted(buckets.items())

    def overall_rps(self) -> float:
        return len(self.records) / self.duration_s if self.duration_s > 0 else 0.0

    def phase_rates(self, phases: int = 3) -> list[float]:
        """Completion rate over consecutive request-count phases.

        Finer-grained than the per-second series; used to see the
        warm-up ramp on short scaled runs.
        """
        n = len(self.records)
        rates = []
        bounds = [round(i * n / phases) for i in range(phases + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi <= lo:
                continue
            t0 = self.records[lo - 1].completed_at if lo > 0 else 0.0
            t1 = self.records[hi - 1].completed_at
            span = max(t1 - t0, 1e-9)
            rates.append((hi - lo) / span)
        return rates

    def steady_state_rps(self, fraction: float = 0.5) -> float:
        """Completion rate over the final ``fraction`` of requests."""
        n = len(self.records)
        start = n - int(n * fraction)
        t0 = self.records[start - 1].completed_at if start > 0 else 0.0
        t1 = self.records[-1].completed_at
        return (n - start) / max(t1 - t0, 1e-9)


class ProtocolClient:
    """Blocking request/response client for the wire protocol."""

    def __init__(self, address: tuple[str, int], timeout_s: float = 10.0,
                 record_transcript: bool = False):
        self.sock = socket.create_connection(address, timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout_s = timeout_s
        self._stream = wire.SocketStream(self.sock)
        self._next_id = 1
        self.transcript = {"sent": [], "received": []} if record_transcript else None

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ProtocolClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def send(self, body_doc: dict) -> int:
        request_id = self._next_id
        self._next_id += 1
        m = wire.make_message(request_id, 0, wire.encode_document(body_doc))
        if self.transcript is not None:
            self.transcript["sent"].append(m.to_bytes())
        wire.write_message(self._stream, m)
        return request_id

    def receive_response(self, request_id: int) -> wire.RawMessage:
        """Read until the response matching ``request_id`` arrives.

        Stale responses (from an earlier timed-out request) are discarded.
        """
        while True:
            m = wire.read_message(self._stream)
            if self.transcript is not None:
                self.transcript["received"].append(m.to_bytes())
            if m.header.response_to == request_id:
                return m

    def request(self, body_doc: dict) -> wire.RawMessage:
        return self.receive_response(self.send(body_doc))

    def request_doc(self, body_doc: dict) -> dict:
        return wire.decode_document(self.request(body_doc).body)

    def find(self, key, collection: str = "phrases") -> dict:
        return self.request_doc({"find": collection, "filter": {"_id": {"$eq": key}}})


def run_workload(
    target: tuple[str, int],
    cfg: WorkloadConfig,
    outcomes: list[str] | None = None,
) -> MetricsReport:
    """Issue the configured find workload and measure per-request latency.

    ``outcomes`` labels each request (from ``simulate_outcomes``); when
    omitted every request is labeled "direct".
    """
    keys = key_sequence(cfg)
    if outcomes is None:
        outcomes = ["direct"] * len(keys)
    records: list[RequestRecord] = []
    timeouts = 0
    with ProtocolClient(target, timeout_s=cfg.request_timeout_s) as client:
        if cfg.hello:
            client.request_doc({"hello": 1, "client": "netlab"})
        started = time.perf_counter()
        for seq, key in enumerate(keys):
            body = {"find": "phrases", "filter": {"_id": {"$eq": key}}}
            t0 = time.perf_counter()
            outcome = outcomes[seq]
            try:
                client.receive_response(client.send(body))
            except (socket.timeout, TimeoutError):
                timeouts += 1
                outcome = "timeout"
            t1 = time.perf_counter()
            records.append(RequestRecord(
                seq=seq, key=key, outcome=outcome,
                latency_ms=(t1 - t0) * 1000.0,
                completed_at=t1 - started,
            ))
        duration = time.perf_counter() - started
    return MetricsReport(records=records, duration_s=duration, timeouts=timeouts)
