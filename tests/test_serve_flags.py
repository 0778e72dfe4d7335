"""``repro serve`` checks its numbers while parsing: an out-of-range
value, or a flag that was deleted, exits 2 before a port is bound."""

import pytest

from repro.cli import build_parser


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
