from __future__ import annotations

import signal
import socket
import subprocess
import sys
import time

from netkvcache import cli as proxy_cli
from netkvcache.netlab import cli as netlab_cli


def test_proxy_cli_rejects_negative_capacity(capsys):
    rc = proxy_cli.main([
        "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1", "--capacity", "-1",
    ])
    assert rc == 2


def test_proxy_cli_bind_failure_exit_code():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    host, port = blocker.getsockname()[:2]
    try:
        rc = proxy_cli.main([
            "--listen", f"{host}:{port}", "--upstream", "127.0.0.1:1",
            "--capacity", "5",
        ])
    finally:
        blocker.close()
    assert rc == 1


def test_proxy_cli_clean_shutdown_exit_zero():
    proc = subprocess.Popen(
        [sys.executable, "-m", "netkvcache.cli",
         "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:9",
         "--capacity", "3", "--shutdown-grace", "0.2", "--log-level", "error"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    time.sleep(0.8)
    proc.send_signal(signal.SIGINT)
    rc = proc.wait(timeout=5)
    assert rc == 0


def test_netlab_cli_run_tiny(capsys, tmp_path):
    rc = netlab_cli.main([
        "run", "--scenario", "custom", "--delays", "0.2,1.0",
        "--keyspace", "5", "--batches", "1", "--per-batch", "20",
        "--capacity", "5", "--seed", "3", "--out", str(tmp_path / "oot"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "post-warm-up mean" in out
    assert (tmp_path / "oot" / "requests.csv").exists()


def test_netlab_cli_sweep_tiny(capsys):
    rc = netlab_cli.main([
        "sweep", "--scenario", "custom", "--delays", "0.2,1.0",
        "--keyspace", "5", "--batches", "1", "--per-batch", "15",
        "--capacities", "2,5", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no cache" in out and "cap 5" in out


def test_netlab_cli_custom_requires_delays():
    import pytest
    with pytest.raises(SystemExit):
        netlab_cli.main(["run", "--scenario", "custom", "--batches", "1", "--per-batch", "1"])
