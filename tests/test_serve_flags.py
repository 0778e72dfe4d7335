"""``repro serve`` and ``repro worker`` check their numbers while
parsing: an out-of-range value, or a flag that was deleted, exits 2
before a port is bound or a coordinator is contacted.  A port that
cannot be bound ends ``repro serve`` with one ``error:`` line, exit 1,
and nothing it opened left open."""

import socket
import threading

import pytest

from repro.cli import build_parser, main


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--lease-ttl", "0", "expected a positive number"),
        ("--unit-attempts", "0", "expected a positive integer"),
        ("--rate-limit", "0", "expected a positive number"),
        ("--burst", "0", "expected a positive integer"),
        ("--max-pending", "-1", "expected a non-negative integer"),
        ("--max-budget", "0", "expected a positive integer"),
        ("--lease-ttl", "inf", "expected a positive number"),
        ("--rate-limit", "nan", "expected a positive number"),
        ("--rate-limit", "fast", "expected a positive number"),
        ("--ttl", "nan", "expected a positive number"),
        ("--ttl", "inf", "expected a positive number"),
        ("--ttl", "-1", "expected a positive number"),
        ("--ttl", "0", "expected a positive number"),
    ],
)
def test_out_of_range_value_is_a_usage_error(flag, value, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["serve", flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: {message}, got {value!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value, parsed",
    [
        ("--lease-ttl", "0.5", 0.5),
        ("--unit-attempts", "1", 1),
        ("--rate-limit", "2.5", 2.5),
        ("--burst", "1", 1),
        ("--max-pending", "0", 0),
        ("--max-budget", "1", 1),
        ("--ttl", "0.5", 0.5),
    ],
)
def test_in_range_value_parses(flag, value, parsed):
    args = build_parser().parse_args(["serve", flag, value])
    assert getattr(args, flag[2:].replace("-", "_")) == parsed


def test_buffer_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["serve", "--buffer", "8"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --buffer 8" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, retired",
    [
        (["serve", "--port", "0", "--log-level", "info"], "--log-level info"),
        (["serve", "--port", "0", "--no-trace"], "--no-trace"),
        (["worker", "--log-level", "info"], "--log-level info"),
    ],
)
def test_log_and_trace_switches_are_gone(argv, retired, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {retired}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--poll", "0", "expected a positive number"),
        ("--poll", "-1", "expected a positive number"),
        ("--poll", "nan", "expected a positive number"),
        ("--exit-idle", "0", "expected a positive number"),
        ("--exit-idle", "nan", "expected a positive number"),
        ("--max-units", "0", "expected a positive integer"),
        ("--max-units", "-1", "expected a positive integer"),
    ],
)
def test_worker_out_of_range_value_is_a_usage_error(
    flag, value, message, capsys, monkeypatch
):
    from repro.service.worker import CampaignWorker

    def contact(self):
        raise AssertionError("the worker contacted its coordinator")

    monkeypatch.setattr(CampaignWorker, "run", contact)
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--url", "http://127.0.0.1:9", flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: {message}, got {value!r}" in captured.err
    assert captured.out == ""


@pytest.fixture
def bound_port():
    """A loopback port another socket already listens on."""
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        yield holder.getsockname()[1]


def queue_workers() -> set[threading.Thread]:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("jobqueue-worker-")
    }


def test_serve_on_a_bound_port_closes_its_queue(bound_port):
    from repro.service.server import serve

    before = queue_workers()
    with pytest.raises(OSError):
        serve(port=bound_port, workers=2)
    assert queue_workers() <= before


def test_serve_command_on_a_bound_port_is_one_error_line(
    bound_port, tmp_path, capsys, monkeypatch
):
    from repro.service.cache import EvaluationCache
    from repro.store import RunStore

    closed = []
    for cls in (EvaluationCache, RunStore):
        def spy(self, close=cls.close, name=cls.__name__):
            closed.append(name)
            close(self)

        monkeypatch.setattr(cls, "close", spy)
    before = queue_workers()
    code = main([
        "serve", "--port", str(bound_port),
        "--cache", str(tmp_path / "evals.sqlite"),
        "--store", str(tmp_path / "runs.sqlite"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cannot serve on 127.0.0.1:{bound_port}: ")
    assert sorted(closed) == ["EvaluationCache", "RunStore"]
    assert queue_workers() <= before
