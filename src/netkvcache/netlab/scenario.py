"""Scenario orchestration: wire client, delay links, proxy, and mock
server together on one host, run the workload, and emit result files.

The built-in scenarios model three geographic layouts with one-way
delays per link (milliseconds, full scale):

    A        0.25 / 0.25   everything close together
    B-ohio   0.25 / 82     cache next to the client, server remote
    B-tokyo  0.25 / 146
    C-ohio   10   / 72     client, cache, and server all apart
    C-tokyo  10   / 136

The direct (no-cache) path for a spec is the same two links end to end.
A ``time_scale`` divisor shrinks delays for quick runs while preserving
their ratios; a link whose scaled delay is exactly zero is wired as a
plain connection (no emulated distance, no relay process).

A cell runs with its client and loop threads on one CPU; see
``_one_cpu``.
"""

from __future__ import annotations

import csv
import gc
import logging
import os
import random
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..proxy import STATS_CSV_COLUMNS, CacheProxy, ProxyConfig
from ..storage import Policy
from .delay import DelayPipe
from .mockserver import MockKVServer
from .workload import MetricsReport, run_workload

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DelaySpec:
    client_cache_oneway_ms: float
    cache_server_oneway_ms: float

    @property
    def direct_oneway_ms(self) -> float:
        return self.client_cache_oneway_ms + self.cache_server_oneway_ms


SCENARIO_DELAYS: dict[str, DelaySpec] = {
    "A": DelaySpec(0.25, 0.25),
    "B-ohio": DelaySpec(0.25, 82.0),
    "B-tokyo": DelaySpec(0.25, 146.0),
    "C-ohio": DelaySpec(10.0, 72.0),
    "C-tokyo": DelaySpec(10.0, 136.0),
}


@dataclass
class ScenarioConfig:
    name: str = "custom"
    delays: DelaySpec = field(default_factory=lambda: DelaySpec(0.0, 0.0))
    capacity: int = 100
    policy: Policy = Policy.NOEVICT
    keyspace: int = 100
    requests: int = 30_000
    with_cache: bool = True
    time_scale: float = 1.0
    seed: int = 42
    out_dir: str | None = None

    @classmethod
    def named(cls, name: str, **overrides) -> "ScenarioConfig":
        if name not in SCENARIO_DELAYS:
            raise ValueError(
                f"unknown scenario {name!r}; choose from {sorted(SCENARIO_DELAYS)} or build a custom config"
            )
        return cls(name=name, delays=SCENARIO_DELAYS[name], **overrides)

    @property
    def scaled_delays(self) -> DelaySpec:
        return DelaySpec(
            self.delays.client_cache_oneway_ms / self.time_scale,
            self.delays.cache_server_oneway_ms / self.time_scale,
        )

    @property
    def request_timeout_s(self) -> float:
        """Ten times the expected round trip, floored so that near-zero-delay
        runs are not trigger-happy."""
        expected_rtt_s = 2 * self.scaled_delays.direct_oneway_ms / 1000.0
        return max(1.0, 10 * expected_rtt_s)


def key_sequence(cfg: ScenarioConfig) -> list[int]:
    """The exact uniform key sequence a cell with this config will issue."""
    rng = random.Random(cfg.seed)
    return [rng.randint(1, cfg.keyspace) for _ in range(cfg.requests)]


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    report: MetricsReport

    @property
    def label(self) -> str:
        mode = f"capacity {self.config.capacity}" if self.config.with_cache else "no cache"
        return f"{self.config.name} ({mode})"


def _one_cpu(stack: ExitStack) -> None:
    """Keep the calling thread, and the threads it starts, on one CPU until
    ``stack`` unwinds.

    The lab's threads take turns on one interpreter lock, so a second CPU
    buys them little. What it costs: a frame handed to a thread that
    sleeps on the other CPU has to wake that CPU first, which on a
    virtual machine took 0.1-0.5 ms and at times several ms, against
    0.025 ms links at time scale 10. On one CPU the hand-off is a context
    switch.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    stack.callback(os.sched_setaffinity, 0, allowed)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one scenario cell end to end and collect its metrics."""
    delays = cfg.scaled_delays
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        _one_cpu(stack)  # first: the loop threads inherit it
        server = MockKVServer(keyspace=cfg.keyspace, record_transcript=True).start()
        stack.callback(server.stop)
        upstream = server.address

        if delays.cache_server_oneway_ms > 0:
            pipe2 = DelayPipe(upstream, delays.cache_server_oneway_ms).start()
            stack.callback(pipe2.stop)
            upstream = pipe2.address

        proxy = None
        if cfg.with_cache:
            proxy = CacheProxy(ProxyConfig(
                listen=("127.0.0.1", 0),
                upstream=upstream,
                capacity=cfg.capacity,
                policy=cfg.policy,
                stats_out=str(out_dir / "stats.csv") if out_dir else None,
                shutdown_grace=1.0,
            )).start()
            stack.callback(proxy.stop)
            upstream = proxy.address

        if delays.client_cache_oneway_ms > 0:
            pipe1 = DelayPipe(upstream, delays.client_cache_oneway_ms).start()
            stack.callback(pipe1.stop)
            upstream = pipe1.address

        gc.collect()  # here, not inside the timed requests: a full one can take ~20 ms
        report = run_workload(upstream, key_sequence(cfg), cfg.request_timeout_s)

    # Every loop has stopped, and its thread's join orders its writes before
    # these reads: the proxy's store and the mock's transcripts.
    if proxy is not None:
        received = {m.header.request_id for t in server.transcripts for m in t["received"]}
        for r in report.records:
            if r.outcome != "timeout":
                r.outcome = "miss" if r.request_id in received else "hit"
        forwarded = sum(r.request_id in received for r in report.records)
        answered = len(report.records) - forwarded  # by the proxy alone
        stats = proxy.store.snapshot_stats()
        report.store_stats = vars(stats).copy()
        report.store_entries = proxy.store.entry_count()
        report.reconciled = (stats.hits, stats.misses + stats.bypasses) == (answered, forwarded)
        if not report.reconciled:
            log.warning(
                "%s: store counters disagree with what the server received "
                "(answered/forwarded %d/%d, store hits %d, misses+bypasses %d)",
                cfg.name, answered, forwarded, stats.hits, stats.misses + stats.bypasses,
            )

    result = ScenarioResult(cfg, report)
    if out_dir is not None:
        write_outputs(out_dir, result)
    return result


def write_outputs(out_dir: Path, result: ScenarioResult) -> None:
    """Write a cell's result files; a cached cell's proxy wrote stats.csv."""
    report = result.report

    with open(out_dir / "requests.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["seq", "key", "outcome", "latency_ms"])
        for r in report.records:
            writer.writerow([r.seq, r.key, r.outcome, f"{r.latency_ms:.3f}"])

    with open(out_dir / "throughput.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["second", "rps"])
        for second, count in report.throughput_series():
            writer.writerow([second, count])

    if not result.config.with_cache:
        with open(out_dir / "stats.csv", "w", newline="") as f:
            csv.writer(f).writerow(STATS_CSV_COLUMNS)  # the header alone

    (out_dir / "summary.txt").write_text(summarize_single(result))


def summarize_single(result: ScenarioResult) -> str:
    cfg, report = result.config, result.report
    lines = [
        f"scenario: {result.label}",
        f"delays (one-way ms, scaled /{cfg.time_scale:g}): "
        f"client-cache {cfg.scaled_delays.client_cache_oneway_ms:g}, "
        f"cache-server {cfg.scaled_delays.cache_server_oneway_ms:g}",
        f"requests: {len(report.records)} "
        f"(keys 1..{cfg.keyspace}, seed {cfg.seed})",
        f"latency ms: mean {report.mean():.2f}  median {report.median():.2f}  "
        f"p95 {report.percentile(95):.2f}  p99 {report.percentile(99):.2f}",
        *(f"latency ms, {outcome}: n {len(g.records)}  mean {g.mean():.2f}  "
          f"p50 {g.percentile(50):.2f}  p99 {g.percentile(99):.2f}"
          for outcome, g in report.by_outcome().items()),
        f"post-warm-up mean (final 80%): {report.post_warmup_mean():.2f} ms",
        f"throughput: overall {report.overall_rps():.1f} rps, "
        f"steady state {report.steady_state_rps():.1f} rps",
        f"timeouts: {report.timeouts}",
    ]
    if report.store_stats is not None:
        lines.append(f"store stats: {report.store_stats} entries={report.store_entries}")
        lines.append(f"reconciled with what the server received: {report.reconciled}")
    return "\n".join(lines) + "\n"


@dataclass
class SweepResult:
    scenario: str
    baseline: ScenarioResult
    cells: list[ScenarioResult]  # one per capacity, ascending


def run_capacity_sweep(
    base: ScenarioConfig, capacities: list[int], out_root: str | None = None
) -> SweepResult:
    """Run a no-cache baseline plus one cell per capacity."""
    def cell_dir(tag: str) -> str | None:
        return str(Path(out_root) / tag) if out_root else None

    baseline = run_scenario(replace(
        base, with_cache=False, out_dir=cell_dir("no-cache")
    ))
    cells = [
        run_scenario(replace(
            base, with_cache=True, capacity=c, out_dir=cell_dir(f"capacity-{c}")
        ))
        for c in sorted(capacities)
    ]
    return SweepResult(base.name, baseline, cells)


def summarize(sweep: SweepResult) -> str:
    """Capacity-sweep grid: mean latency per cell plus improvement row."""
    direct_mean = sweep.baseline.report.mean()
    header = ["scenario", "no cache"] + [
        f"cap {c.config.capacity}" for c in sweep.cells
    ]
    means = [f"{direct_mean:.2f} ms"] + [
        f"{c.report.mean():.2f} ms" for c in sweep.cells
    ]
    improvements = ["-"] + [
        f"{(1 - c.report.mean() / direct_mean) * 100:+.1f}%" for c in sweep.cells
    ]
    rps = [f"{sweep.baseline.report.overall_rps():.1f}"] + [
        f"{c.report.overall_rps():.1f}" for c in sweep.cells
    ]
    rows = [
        header,
        [sweep.scenario + " mean"] + means,
        ["improvement"] + improvements,
        ["rps"] + rps,
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    ) + "\n"
