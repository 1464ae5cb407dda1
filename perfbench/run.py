"""End-to-end benchmark of the caching proxy, with a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot-mix|miss-large|wan-read \\
        --seed N --seconds S --trace 0|1

Each run launches the mock server, the proxy and (for wan-read) a delay
helper as separate processes, fills the cache, then drives a closed loop
for S seconds and checks every reply. ``--trace 0`` prints the
end-to-end metrics; set-up is repeated three times and its median
reported. ``--trace 1`` measures S/2 seconds untraced, then S/2 seconds
with spans recorded inside the proxy, and prints the per-layer metrics
and the tracing overhead. The last line of output is one JSON object
holding the metrics BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import array
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import loadgen
import spans
from procs import HERE, ROOT, SRC, Stack
from workloads import WORKLOADS

SETUPS = 3
# Idle time around the measured window: longer than one stats interval,
# so the proxy records a row between warm-up and measurement and another
# after the last reply (it never records a final partial interval).
GAP_S = 2.5 * Stack.STATS_INTERVAL_S
_ROW_MARGIN_S = 0.02


@dataclass
class Segment:
    """One set-up and its measured window."""

    setup_s: float
    warm_failed: int
    tally: loadgen.Tally
    t_start: int
    t_stop: int
    t_drained: int
    cpu_ns: dict[str, int]
    generator_cpu_ns: int
    hits: int
    misses: int
    rss_kb: int
    threads: int

    @property
    def window_s(self) -> float:
        return (self.t_drained - self.t_start) / 1e9

    def rps(self) -> float:
        done = sum(1 for t in self.tally.done_ns if t <= self.t_stop)
        return done / ((self.t_stop - self.t_start) / 1e9)

    def p99_ms(self) -> float:
        """Nearest-rank 99th percentile of request latency over the window."""
        return _quantile(self.tally.latency_ns, 0.99) / 1e6

    def p50_ms(self) -> float:
        """Median request latency of each one-second slice, averaged.

        On a shared host, CPU speed changes in phases of seconds, so on a
        CPU-bound workload the latencies of a whole run form one cluster per
        phase, and its median jumps between clusters with the phase mix.
        Each slice's median tracks the speed of its own second; their
        average moves with the mix smoothly, as the mean does.
        """
        slices: dict[int, list[int]] = {}
        for done, latency in zip(self.tally.done_ns, self.tally.latency_ns):
            second = min((done - self.t_start) // 1_000_000_000,
                         (self.t_stop - self.t_start - 1) // 1_000_000_000)
            slices.setdefault(second, []).append(latency)
        return statistics.fmean(_quantile(v, 0.5) for v in slices.values()) / 1e6

    def per_request_us(self, role: str) -> float:
        return self.cpu_ns[role] / 1e3 / self.tally.attempted


def _quantile(values, q: float) -> int:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _set_up(wl, stack: Stack):
    """Launch, load, and fill the cache; returns (sockets, set-up seconds, failures)."""
    t0 = time.perf_counter()
    mock_addr, entry = stack.start()
    with loadgen.connect(mock_addr) as mock:
        wl.load(mock)
    socks = [loadgen.connect(entry) for _ in range(wl.connections)]
    wl.start(wl.warmup())
    warm = loadgen.drive(socks, wl)
    return socks, time.perf_counter() - t0, warm.failed


def _window_counts(rows: list[dict], after_warm: float, start: float, drained: float):
    """Hits and misses between the stats rows that bracket the window."""
    before = [r for r in rows
              if after_warm + _ROW_MARGIN_S < float(r["ts"]) < start - _ROW_MARGIN_S]
    after = [r for r in rows if float(r["ts"]) > drained + _ROW_MARGIN_S]
    if not before or not after:
        raise RuntimeError("proxy stats rows do not bracket the measured window")
    return (int(after[0]["hits"]) - int(before[-1]["hits"]),
            int(after[0]["misses"]) - int(before[-1]["misses"]))


def segment(wl, stack: Stack, seconds: float) -> Segment:
    """Set up ``stack``, measure for ``seconds``, and stop the proxy."""
    socks = []
    try:
        socks, setup_s, warm_failed = _set_up(wl, stack)
        after_warm = time.time()
        time.sleep(GAP_S)
        wall_start = time.time()
        cpu0, gen0 = stack.cpu_ns(), time.process_time_ns()
        t_start = time.monotonic_ns()
        t_stop = t_start + int(seconds * 1e9)
        wl.start()
        tally = loadgen.drive(socks, wl, stop_ns=t_stop)
        t_drained = time.monotonic_ns()
        cpu1, gen1 = stack.cpu_ns(), time.process_time_ns()
        wall_drained = time.time()
        rss_kb, threads = stack.proxy.status("VmHWM"), stack.proxy.status("Threads")
        for sock in socks:
            sock.close()
        time.sleep(GAP_S)
        stack.stop_proxy()
        with open(stack.stats_csv, newline="") as f:
            hits, misses = _window_counts(list(csv.DictReader(f)), after_warm,
                                          wall_start, wall_drained)
    finally:
        for sock in socks:
            sock.close()
        stack.close()
    return Segment(setup_s, warm_failed, tally, t_start, t_stop, t_drained,
                   {role: cpu1[role] - cpu0[role] for role in cpu1}, gen1 - gen0,
                   hits, misses, rss_kb, threads)


def measured_run(wl_cls, seed: int, seconds: float, run_dir: Path):
    """The end-to-end metrics, with their sample counts."""
    wl = wl_cls(seed)
    setups = []
    for i in range(SETUPS - 1):
        stack = Stack(wl, run_dir, f"setup{i}", traced=False)
        try:
            socks, setup_s, failed = _set_up(wl, stack)
            for sock in socks:
                sock.close()
        finally:
            stack.close()
        setups.append((setup_s, failed))
    seg = segment(wl, Stack(wl, run_dir, "measure", traced=False), seconds)
    setups.append((seg.setup_s, seg.warm_failed))
    t = seg.tally
    n_lat = len(t.latency_ns)
    stale = t.stale / t.reads if t.reads else 0.0
    # All are printed. BENCHMARK.json gates those that CPU steal on a small
    # shared VM does not move past a bound: stalls in the closed loop move
    # the mean (so rps), the tail and the proxy's CPU per request (more
    # lock hand-offs) far more than the median.
    rows = {
        "rps": (seg.rps(), "1/s", n_lat),
        "p50_ms": (seg.p50_ms(), "ms", n_lat),
        "p99_ms": (seg.p99_ms(), "ms", n_lat),
        "proxy_cpu_us_per_req": (seg.per_request_us("proxy"), "us", t.attempted),
        "proxy_rss_mb": (seg.rss_kb / 1024, "MB", 1),
        "hit_ratio": (seg.hits / (seg.hits + seg.misses), "ratio", seg.hits + seg.misses),
        "stale_read_ratio": (stale, "ratio", t.reads),
        "fresh_read_ratio": (1.0 - stale, "ratio", t.reads),
        "error_rate": (t.failed / t.attempted, "ratio", t.attempted),
        "setup_s": (statistics.median(s for s, _ in setups), "s", len(setups)),
    }
    failed = t.failed + sum(f for _, f in setups)
    return rows, t.attempted, failed, True


def _delay_records(path: Path, t0: int, t1: int):
    data = array.array("q")
    with open(path, "rb") as f:
        data.frombytes(f.read())
    due, done = data[0::2], data[1::2]
    in_window = [(d, e) for d, e in zip(due, done) if t0 <= e <= t1]
    overshoot = [e - d for d, e in in_window if d]
    return len(in_window), (statistics.fmean(overshoot) / 1e6 if overshoot else 0.0)


def traced_run(wl_cls, seed: int, seconds: float, run_dir: Path):
    """Per-layer metrics from a traced window, plus the tracing overhead."""
    half = seconds / 2
    wl = wl_cls(seed)
    plain = segment(wl, Stack(wl, run_dir, "untraced", traced=False), half)
    stack = Stack(wl, run_dir, "traced", traced=True)
    seg = segment(wl, stack, half)
    names, cols = spans.load(str(stack.spans_out))
    calls, whole_run, root_cpu = spans.summarize(names, cols, seg.t_start, seg.t_drained)
    requests = seg.tally.attempted

    def per_req(name):
        return calls[name].n / requests

    def cpu_us(name):
        c = calls[name]
        return c.cpu / c.n / 1e3 if c.n else 0.0

    def wait_us(name):
        c = calls[name]
        return (c.wall - c.cpu) / c.n / 1e3 if c.n else 0.0

    def self_us(name):
        c = calls[name]
        return c.self_wall / c.n / 1e3 if c.n else 0.0

    def mean_bytes(name):
        c = calls[name]
        return c.bytes / c.n if c.n else 0.0

    get, put = calls["storage.get"], calls["storage.put"]
    pending = calls["engine.handle_client"].outcomes
    setup_spans = whole_run["proxy.session_setup"]
    proxy_cpu = seg.cpu_ns["proxy"]
    m = {}
    for name in ("wire.read_message", "wire.write_message", "wire.decode_document",
                 "flows.classify_client", "engine.parse_command",
                 "engine.response_is_cacheable", "engine.synthesize_response",
                 "storage.get", "storage.put"):
        m[f"{name}.calls"] = per_req(name)
        m[f"{name}.cpu_us"] = cpu_us(name)
    for name in ("wire.read_message", "wire.write_message", "storage.get"):
        m[f"{name}.wait_us"] = wait_us(name)
    m["wire.read_message.bytes"] = mean_bytes("wire.read_message")
    m["flows.classify_client.coordination_share"] = calls["flows.classify_client"].share(1)
    m["engine.parse_command.bypass_share"] = calls["engine.parse_command"].share(1)
    m["engine.response_is_cacheable.bytes"] = mean_bytes("engine.response_is_cacheable")
    m["engine.response_is_cacheable.true_share"] = calls["engine.response_is_cacheable"].share(1)
    m["engine.handle_client.self_us"] = self_us("engine.handle_client")
    m["engine.handle_server.self_us"] = self_us("engine.handle_server")
    m["engine.pending.max_depth"] = max(pending, default=0)
    m["storage.get.hit_share"] = get.share(1)
    m["storage.put.stored_share"] = put.share(0, 1)
    m["storage.put.rejected_stale_share"] = put.share(2)
    m["storage.put.rejected_full_share"] = put.share(3)
    m["storage.put.evictions"] = put.outcomes[1] / requests
    m["storage.invalidate.calls"] = per_req("storage.invalidate")
    m["storage.invalidate_all.calls"] = per_req("storage.invalidate_all")
    m["proxy.session_setup_ms"] = setup_spans.wall / setup_spans.n / 1e6 if setup_spans.n else 0.0
    m["proxy.cpu_util"] = proxy_cpu / (seg.window_s * 1e9)
    m["proxy.threads"] = seg.threads
    m["proxy.unattributed_cpu_share"] = 1 - root_cpu / proxy_cpu
    upstream = calls["wire.read_message"].outcomes[1]  # replies the proxy read from upstream
    m["netlab.mockserver.cpu_us_per_req"] = seg.cpu_ns["mock"] / 1e3 / upstream if upstream else 0.0
    m["netlab.workload.client_cpu_util"] = seg.generator_cpu_ns / (seg.window_s * 1e9)
    m["netlab.delay.overshoot_ms"] = m["netlab.delay.cpu_us_per_msg"] = 0.0
    if wl.delays_ms is not None:
        delivered, m["netlab.delay.overshoot_ms"] = _delay_records(
            stack.delay_out, seg.t_start, seg.t_drained)
        m["netlab.delay.cpu_us_per_msg"] = seg.cpu_ns["delay"] / 1e3 / delivered
    m["tracing.rps_untraced"] = plain.rps()
    m["tracing.rps_traced"] = seg.rps()
    m["tracing.p50_ms_untraced"] = plain.p50_ms()
    m["tracing.p50_ms_traced"] = seg.p50_ms()
    m["tracing.p99_ms_untraced"] = plain.p99_ms()
    m["tracing.p99_ms_traced"] = seg.p99_ms()

    # The proxy's own counters and the traced store calls must agree.
    agree = (get.outcomes[1], get.outcomes[0]) == (seg.hits, seg.misses)
    if not agree:
        print(f"hit-share cross-check failed: stats rows {seg.hits}/{seg.misses} hits/misses, "
              f"traced storage.get {get.outcomes[1]}/{get.outcomes[0]}", file=sys.stderr)
    units = {name: unit for name, unit in _reported("per_layer")}
    rows = {name: (value, units[name], requests) for name, value in m.items()}
    attempted = plain.tally.attempted + seg.tally.attempted
    failed = (plain.tally.failed + seg.tally.failed + plain.warm_failed + seg.warm_failed)
    return rows, attempted, failed, agree


def _reported(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each metric BENCHMARK.json lists under ``kind``."""
    with open(ROOT / "BENCHMARK.json") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def layout(wl_cls, seconds: float, trace: int) -> dict:
    with open(HERE / "layout.json") as f:
        record = json.load(f)
    record.update({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": wl_cls.name,
        "connections": wl_cls.connections,
        "seconds": seconds,
        "trace": trace,
    })
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end and per-layer proxy benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Unwind through the finally blocks that stop the child processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "netkvcache" / "cli.py").is_file():
        print(f"error: no netkvcache sources under {SRC}", file=sys.stderr)
        return 2
    wl_cls = WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else measured_run
        rows, attempted, failed, agree = run(wl_cls, args.seed, args.seconds, run_dir)
    except (loadgen.LoadError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    print("layout " + json.dumps(layout(wl_cls, args.seconds, args.trace)))
    for name, (value, unit, n) in rows.items():
        print(f"{args.workload:<11} {name:<44} {value:>14.6g} {unit:<6} n={n}")
    # The last line carries the metrics BENCHMARK.json lists for this mode.
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": failed == 0 and agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": rows[name][0], "unit": unit}
                    for name, unit in _reported(kind)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
