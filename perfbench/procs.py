"""The processes a workload runs in, and what the benchmark reads about them.

Layout, one process each: the mock server, the proxy, and (for workloads
with delay) a helper hosting both delay pipes. The load generator is the
benchmark process itself. All traffic crosses the loopback interface.
"""

from __future__ import annotations

import glob
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOST = "127.0.0.1"
_ADDRESS = r"(\d+\.\d+\.\d+\.\d+):(\d+)"


class Proc:
    """One child process whose output goes to a log file in the run directory."""

    def __init__(self, role: str, argv: list[str], log_path: Path, stdin=None):
        self.role = role
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        with open(log_path, "wb") as log:
            self.popen = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=env,
                stdin=stdin if stdin is not None else subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        self.pid = self.popen.pid

    def wait_for_address(self, label: str, timeout_s: float = 60.0) -> tuple[str, int]:
        """Poll the log until a line ``<label> HOST:PORT`` appears."""
        pattern = re.compile(re.escape(label) + r"\s+" + _ADDRESS)
        deadline = time.monotonic() + timeout_s
        while True:
            match = pattern.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.popen.poll() is not None:
                raise RuntimeError(f"{self.role} exited with code {self.popen.returncode}:\n"
                                   + self.log_path.read_text(errors="replace")[-2000:])
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.role} did not report '{label}' in {timeout_s:.0f} s")
            time.sleep(0.002)

    def cpu_ns(self) -> int:
        """User plus system CPU of every live thread, in nanoseconds.

        The same time ``/proc/<pid>/stat`` gives as utime + stime in clock
        ticks, read per thread from schedstat at nanosecond resolution; no
        thread starts or ends inside a measurement window.
        """
        total = 0
        for path in glob.glob(f"/proc/{self.pid}/task/*/schedstat"):
            try:
                with open(path) as f:
                    total += int(f.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass
        return total

    def status(self, field: str) -> int:
        """An integer field of ``/proc/<pid>/status`` (kB for memory fields)."""
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise KeyError(field)

    def stop(self, timeout_s: float = 15.0) -> int:
        """SIGTERM, wait, and SIGKILL if it does not end in time."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
        try:
            return self.popen.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            return self.popen.wait()


class Stack:
    """The mock server, optional delay helper and proxy of one set-up."""

    STATS_INTERVAL_S = 0.2

    def __init__(self, workload, run_dir: Path, tag: str, traced: bool):
        self.workload = workload
        self.run_dir = run_dir
        self.tag = tag
        self.traced = traced
        self.procs: list[Proc] = []
        self.mock = self.helper = self.proxy = None
        self.stats_csv = run_dir / f"{tag}-stats.csv"
        self.spans_out = run_dir / f"{tag}-proxy-spans"
        self.delay_out = run_dir / f"{tag}-delay-spans"

    def _launch(self, role: str, argv: list[str], stdin=None) -> Proc:
        proc = Proc(role, argv, self.run_dir / f"{self.tag}-{role}.log", stdin)
        self.procs.append(proc)
        return proc

    def start(self) -> tuple[tuple[str, int], tuple[str, int]]:
        """Launch every process; returns (mock address, address clients use)."""
        wl = self.workload
        self.mock = self._launch("mock", [
            "-u", "-m", "netkvcache.netlab.cli", "mock-server",
            "--listen", f"{HOST}:0", *wl.mock_args(),
        ])
        mock_addr = self.mock.wait_for_address("mock server on")
        upstream = mock_addr
        if wl.delays_ms is not None:
            near_ms, far_ms = wl.delays_ms
            argv = ["-u", str(HERE / "delay_helper.py"), "--target", f"{HOST}:{mock_addr[1]}",
                    "--near-ms", str(near_ms), "--far-ms", str(far_ms)]
            if self.traced:
                argv += ["--trace-out", str(self.delay_out)]
            self.helper = self._launch("delay", argv, stdin=subprocess.PIPE)
            upstream = self.helper.wait_for_address("far pipe on")
        cli = [
            "--listen", f"{HOST}:0", "--upstream", f"{upstream[0]}:{upstream[1]}",
            "--capacity", str(wl.capacity), "--policy", wl.policy,
            "--stats-interval", str(self.STATS_INTERVAL_S), "--stats-out", str(self.stats_csv),
            "--shutdown-grace", "1", "--log-level", "info",
        ]
        if self.traced:
            argv = [str(HERE / "traced_proxy.py"), "--spans-out", str(self.spans_out), "--", *cli]
        else:
            argv = ["-m", "netkvcache.cli", *cli]
        self.proxy = self._launch("proxy", argv)
        entry = self.proxy.wait_for_address("listening on")
        if self.helper is not None:
            self.helper.popen.stdin.write(f"{entry[0]}:{entry[1]}\n".encode())
            self.helper.popen.stdin.flush()
            entry = self.helper.wait_for_address("near pipe on")
        return mock_addr, entry

    def cpu_ns(self) -> dict[str, int]:
        return {p.role: p.cpu_ns() for p in self.procs}

    def stop_proxy(self) -> None:
        if self.proxy is not None and self.proxy.stop() != 0:
            raise RuntimeError("proxy exited uncleanly:\n"
                               + self.proxy.log_path.read_text(errors="replace")[-2000:])

    def close(self) -> None:
        """Stop every process, proxy first, and wait for each to end."""
        for proc in reversed(self.procs):
            if proc.popen.stdin is not None:
                proc.popen.stdin.close()
            proc.stop()
