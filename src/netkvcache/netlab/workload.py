"""Closed-loop workload client and metrics collection.

``run_workload`` finds the keys it is given one at a time, waiting for
each response before the next request, so throughput is the reciprocal
of mean latency. Its client frames replies through a ``loop.Leg``, as
every loop does, so a reply cut short by a timeout is finished on the
next read. Whether a request hit the cache is not visible on the wire:
``run_workload`` labels each request ``direct`` (or ``timeout``) and keeps
its request id, and the scenario runner relabels a cached cell's requests
from what the mock server received.
"""

from __future__ import annotations

import math
import socket
import statistics
import time
from dataclasses import dataclass

from .. import wire
from ..loop import Leg


@dataclass
class RequestRecord:
    seq: int
    key: int
    outcome: str
    latency_ms: float
    completed_at: float  # seconds since workload start
    request_id: int  # as sent; the mock's transcript names the ones it received


@dataclass
class MetricsReport:
    records: list[RequestRecord]
    duration_s: float
    store_stats: dict | None = None
    store_entries: int | None = None
    reconciled: bool | None = None

    @property
    def timeouts(self) -> int:
        return sum(r.outcome == "timeout" for r in self.records)

    @property
    def samples(self) -> list[float]:
        return [r.latency_ms for r in self.records]

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def median(self) -> float:
        return statistics.median(self.samples)

    def percentile(self, p: float) -> float:
        ordered = sorted(self.samples)
        idx = max(0, min(len(ordered) - 1, math.ceil(p * len(ordered) / 100) - 1))  # nearest rank
        return ordered[idx]

    def post_warmup_records(self, fraction: float = 0.8) -> list[RequestRecord]:
        """The final ``fraction`` of requests, past the population phase."""
        start = len(self.records) - int(len(self.records) * fraction)
        return self.records[start:]

    def post_warmup_mean(self, fraction: float = 0.8) -> float:
        return statistics.fmean(r.latency_ms for r in self.post_warmup_records(fraction))

    def by_outcome(self) -> dict[str, MetricsReport]:
        """One report per outcome label, in order of first appearance."""
        groups: dict[str, list[RequestRecord]] = {}
        for r in self.records:
            groups.setdefault(r.outcome, []).append(r)
        return {k: MetricsReport(v, self.duration_s) for k, v in groups.items()}

    def stratified_means(self) -> dict[str, float]:
        return {k: g.mean() for k, g in self.by_outcome().items()}

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
    """Blocking request/response client for the wire protocol. Its socket
    is a ``loop.Leg``: bytes read before a timeout stay in ``inbuf`` for
    the next ``receive``."""

    def __init__(self, address: tuple[str, int], timeout_s: float = 10.0):
        self.sock = socket.create_connection(address, timeout=timeout_s)
        self.leg = Leg(self.sock, "client")
        self.sock.settimeout(timeout_s)  # after Leg made it non-blocking
        self._next_id = 1

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
        self.sock.sendall(m.to_bytes())
        return request_id

    def receive(self) -> wire.RawMessage:
        """Read the next message; each recv waits up to the timeout."""
        while not self.leg.frame_ready() and self.leg.fill():
            pass
        return wire.read_message(self.leg)

    def receive_response(self, request_id: int) -> wire.RawMessage:
        """Read until the response matching ``request_id`` arrives.

        Stale responses (from an earlier timed-out request) are discarded.
        """
        while True:
            m = self.receive()
            if m.header.response_to == request_id:
                return m

    def request(self, body_doc: dict) -> wire.RawMessage:
        return self.receive_response(self.send(body_doc))

    def request_doc(self, body_doc: dict) -> dict:
        return wire.decode_document(self.request(body_doc).body)

    def find(self, key, collection: str = "phrases") -> dict:
        return self.request_doc({"find": collection, "filter": {"_id": {"$eq": key}}})


def run_workload(target: tuple[str, int], keys: list[int], timeout_s: float) -> MetricsReport:
    """Send a hello, then find each key in turn and time each find.

    Each request is labeled "direct", or "timeout" if its reply did not
    come within ``timeout_s`` of a read.
    """
    records: list[RequestRecord] = []
    with ProtocolClient(target, timeout_s) as client:
        client.request_doc({"hello": 1, "client": "netlab"})
        started = time.perf_counter()
        for seq, key in enumerate(keys):
            body = {"find": "phrases", "filter": {"_id": {"$eq": key}}}
            t0 = time.perf_counter()
            outcome = "direct"
            request_id = client.send(body)
            try:
                client.receive_response(request_id)
            except TimeoutError:
                outcome = "timeout"
            t1 = time.perf_counter()
            records.append(RequestRecord(
                seq=seq, key=key, outcome=outcome,
                latency_ms=(t1 - t0) * 1000.0,
                completed_at=t1 - started, request_id=request_id,
            ))
        duration = time.perf_counter() - started
    return MetricsReport(records=records, duration_s=duration)
