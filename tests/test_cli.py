from __future__ import annotations

import functools
import inspect
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from netkvcache import cli as proxy_cli
from netkvcache.netlab import cli as netlab_cli
from netkvcache.netlab.mockserver import MockKVServer
from netkvcache.netlab.scenario import DelaySpec, ScenarioConfig
from netkvcache.proxy import ProxyConfig


def test_proxy_process_does_not_load_dataclasses():
    # Without site, so only what the proxy's own imports load is counted.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, netkvcache.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_proxy_cli_rejects_negative_capacity(capsys):
    rc = proxy_cli.main([
        "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1", "--capacity", "-1",
    ])
    assert rc == 2


def test_proxy_cli_rejects_nonpositive_stats_interval(tmp_path):
    # A child process, so a proxy that wrongly starts cannot hang the suite.
    done = subprocess.run(
        [sys.executable, "-m", "netkvcache.cli",
         "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1", "--capacity", "1",
         "--stats-interval", "0", "--stats-out", str(tmp_path / "stats.csv")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=10,
    )
    assert done.returncode == 2


@pytest.mark.parametrize("option, value", [
    ("--stats-interval", "inf"),
    ("--shutdown-grace", "nan"),
    ("--shutdown-grace", "inf"),
    ("--shutdown-grace", "-1"),
])
def test_proxy_cli_rejects_a_non_finite_or_negative_interval(option, value, tmp_path):
    # A child process, so a proxy that wrongly starts cannot hang the suite.
    done = subprocess.run(
        [sys.executable, "-m", "netkvcache.cli",
         "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1", "--capacity", "1",
         "--stats-out", str(tmp_path / "stats.csv"), f"{option}={value}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=10,
    )
    assert done.returncode == 2


def test_proxy_cli_unopenable_stats_out_is_one_error_line(tmp_path):
    path = tmp_path / "missing" / "stats.csv"
    done = subprocess.run(
        [sys.executable, "-m", "netkvcache.cli",
         "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1", "--capacity", "1",
         "--stats-out", str(path)],
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 1
    assert str(path) in done.stderr
    assert "Traceback" not in done.stderr


def test_proxy_cli_unresolvable_upstream_is_one_error_line():
    # The lookup fails in-process, so no name server is asked.
    code = ("import socket, sys\n"
            "def fail(*args, **kwargs):\n"
            "    raise socket.gaierror(socket.EAI_NONAME, 'Name or service not known')\n"
            "socket.getaddrinfo = fail\n"
            "from netkvcache import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    done = subprocess.run(
        [sys.executable, "-c", code,
         "--listen", "127.0.0.1:0", "--upstream", "db.invalid:27017", "--capacity", "1"],
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 1
    assert "cannot resolve upstream" in done.stderr and "db.invalid" in done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.strip().splitlines()) == 1


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


def test_proxy_cli_stats_rows_survive_sigkill(tmp_path):
    path = tmp_path / "stats.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "netkvcache.cli",
         "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:9", "--capacity", "3",
         "--stats-interval", "0.05", "--stats-out", str(path), "--log-level", "error"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 10.0
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.5)
    proc.kill()
    proc.wait(timeout=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "ts,hits,misses,bypasses,fills,rejected_fills,invalidations,entries,rps"
    assert len(lines) >= 3


def test_netlab_cli_run_tiny(capsys, tmp_path):
    rc = netlab_cli.main([
        "run", "--delays", "0.2,1.0",
        "--keyspace", "5", "--requests", "20",
        "--capacity", "5", "--seed", "3", "--out", str(tmp_path / "oot"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "post-warm-up mean" in out
    assert (tmp_path / "oot" / "requests.csv").exists()


def test_netlab_cli_sweep_tiny(capsys):
    rc = netlab_cli.main([
        "sweep", "--delays", "0.2,1.0",
        "--keyspace", "5", "--requests", "15",
        "--capacities", "2,5", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no cache" in out and "cap 5" in out


class _Built(Exception):
    """Raised by a stand-in for what a command builds, with what it was given."""


def _built(*args, **kwargs):
    raise _Built(args, kwargs)


def test_each_command_given_only_its_required_options_builds_the_defaults(monkeypatch):
    monkeypatch.setattr(proxy_cli, "run_proxy", _built)
    monkeypatch.setattr(netlab_cli, "run_scenario", _built)
    # Wrapped, so the parser still reads the constructor's defaults through it.
    monkeypatch.setattr(netlab_cli, "MockKVServer", functools.wraps(MockKVServer)(_built))
    built = []
    for main, argv in [
        (proxy_cli.main, ["--listen", "127.0.0.1:1", "--upstream", "127.0.0.1:2", "--capacity", "3"]),
        (netlab_cli.main, ["run"]),
        (netlab_cli.main, ["mock-server", "--listen", "127.0.0.1:0"]),
    ]:
        with pytest.raises(_Built) as got:
            main(argv)
        built.append(got.value.args)
    mock_defaults = inspect.signature(MockKVServer).parameters
    assert built == [
        ((ProxyConfig(("127.0.0.1", 1), ("127.0.0.1", 2), 3),), {}),
        ((ScenarioConfig.named("B-ohio"),), {}),
        ((), {"listen": ("127.0.0.1", 0)}
             | {name: mock_defaults[name].default for name in ("keyspace", "seed", "doc_size")}),
    ]


_SCENARIO_DEFAULTS = [getattr(ScenarioConfig, name) for name in
                      ("keyspace", "requests", "policy", "time_scale", "seed")]


@pytest.mark.parametrize("main, argv, defaults", [
    (proxy_cli.main, [], [ProxyConfig._field_defaults[name] for name in
                          ("policy", "log_level", "stats_interval", "shutdown_grace")]),
    (netlab_cli.main, ["run"], ["B-ohio", ScenarioConfig.capacity, *_SCENARIO_DEFAULTS]),
    (netlab_cli.main, ["sweep"], ["B-ohio", "10,30,70,100", *_SCENARIO_DEFAULTS]),
    (netlab_cli.main, ["mock-server"], [inspect.signature(MockKVServer).parameters[name].default
                                        for name in ("keyspace", "seed", "doc_size")]),
], ids=["netkv-cache", "run", "sweep", "mock-server"])
def test_help_shows_each_default(main, argv, defaults, capsys):
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--help"])
    assert exited.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    for value in defaults:
        assert f"(default: {getattr(value, 'value', value)})" in shown


def test_netlab_cli_delays_make_a_custom_layout_and_no_named_one(monkeypatch, capsys):
    monkeypatch.setattr(netlab_cli, "run_scenario", _built)
    with pytest.raises(_Built) as got:
        netlab_cli.main(["run", "--delays", "5,5"])
    assert got.value.args == ((ScenarioConfig(delays=DelaySpec(5.0, 5.0)),), {})
    for name in ("A", "B-ohio"):  # B-ohio is also the default
        with pytest.raises(SystemExit) as exited:
            netlab_cli.main(["run", "--scenario", name, "--delays", "5,5"])
        assert exited.value.code == 2
        assert "argument --delays: not allowed with argument --scenario" in capsys.readouterr().err


@pytest.mark.parametrize("main, option, args", [
    (proxy_cli.main, "--listen", ["--listen", "127.0.0.1:abc"]),
    (proxy_cli.main, "--listen", ["--listen", "nohost"]),
    (proxy_cli.main, "--upstream", ["--upstream", "127.0.0.1:x"]),
    (proxy_cli.main, "--listen", ["--listen", "127.0.0.1:99999"]),
    (netlab_cli.main, "--listen", ["mock-server", "--listen", "127.0.0.1:99999"]),
], ids=["port-abc", "no-port", "upstream-port-x", "port-99999", "mock-port-99999"])
def test_bad_address_is_a_usage_error(main, option, args, capsys):
    if main is proxy_cli.main:  # good values first: the last of an option wins
        args = ["--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1", "--capacity", "1", *args]
    with pytest.raises(SystemExit) as exited:
        main(args)
    assert exited.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


@pytest.mark.parametrize("option, args", [
    ("--delays", ["run", "--delays", "5"]),
    ("--delays", ["run", "--delays=-1,5"]),
    ("--time-scale", ["run", "--time-scale", "0"]),
    ("--capacities", ["sweep", "--capacities", "10,x"]),
    ("--capacities", ["sweep", "--capacities", "-5"]),
    ("--capacity", ["run", "--capacity", "-1"]),
    ("--keyspace", ["run", "--keyspace", "0"]),
    ("--keyspace", ["sweep", "--keyspace", "-3"]),
    ("--requests", ["run", "--requests", "0"]),
    ("--requests", ["sweep", "--requests", "0"]),
])
def test_netlab_cli_rejects_bad_numbers_with_a_usage_error(option, args, capsys):
    with pytest.raises(SystemExit) as exited:  # small defaults first: the last of an option wins
        netlab_cli.main([args[0], "--keyspace", "2", "--requests", "1", *args[1:]])
    assert exited.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err
