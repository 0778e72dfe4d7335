"""CLI tests for cache maintenance (`repro cache stats|compact|migrate`)."""

import json

import pytest

from repro.cli import main
from repro.service.cache import EvaluationCache


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def sqlite_cache(tmp_path):
    path = tmp_path / "evals.sqlite"
    with EvaluationCache(path) as cache:
        cache.put_many({f"k{i}": (float(i), float(i) * 2) for i in range(8)})
        cache.put_many({f"k{i}": (9.0, 9.0) for i in range(3)})  # overwrites
    return path


@pytest.fixture
def legacy_log(tmp_path):
    """A log in the removed JSONL tier's layout, written with plain json:
    11 lines, 8 live keys (a later line for a key wins)."""
    path = tmp_path / "evals.jsonl"
    records = [(f"k{i}", [float(i), float(i) * 2]) for i in range(8)]
    records += [(f"k{i}", [9.0, 9.0]) for i in range(3)]
    path.write_text(
        "".join(
            json.dumps({"key": key, "objectives": objectives}) + "\n"
            for key, objectives in records
        ),
        encoding="utf-8",
    )
    return path


def legacy_entries(path) -> dict:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        entries[record["key"]] = tuple(record["objectives"])
    return entries


class TestCacheStats:
    def test_table_output(self, sqlite_cache, capsys):
        assert run_cli("cache", "stats", str(sqlite_cache)) == 0
        out = capsys.readouterr().out
        assert "sqlite" in out
        assert "entries" in out
        assert "pending writes" not in out

    def test_json_output(self, sqlite_cache, capsys):
        assert run_cli("cache", "stats", str(sqlite_cache), "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert info["backend"] == "sqlite"
        assert info["entries"] == 8
        assert info["disk_bytes"] > 0
        for dropped in ("pending_writes", "flush_every", "log_lines",
                        "stale_lines"):
            assert dropped not in info

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert run_cli("cache", "stats", str(tmp_path / "nope.sqlite")) == 1
        assert "no evaluation cache" in capsys.readouterr().err
        assert not (tmp_path / "nope.sqlite").exists()  # not silently created

    @pytest.mark.parametrize("command", ["stats", "compact", "migrate"])
    def test_directory_is_an_error(self, tmp_path, command, capsys):
        argv = ["cache", command, str(tmp_path)]
        if command == "migrate":
            argv.append(str(tmp_path / "out.sqlite"))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: no evaluation cache at {tmp_path}\n"
        )

    def test_legacy_log_names_migrate(self, legacy_log, capsys):
        assert run_cli("cache", "stats", str(legacy_log)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"repro cache migrate {legacy_log} NEW.sqlite" in err


class TestCacheCompact:
    def test_sqlite_vacuum(self, tmp_path, capsys):
        path = tmp_path / "evals.sqlite"
        with EvaluationCache(path) as cache:
            cache.put_many({f"k{i}": (float(i),) for i in range(8)})
        assert run_cli("cache", "compact", str(path)) == 0
        assert "vacuumed" in capsys.readouterr().out


class TestCacheMigrate:
    def test_jsonl_to_sqlite_preserves_entries(self, legacy_log, tmp_path, capsys):
        dst = tmp_path / "evals.sqlite"
        assert run_cli("cache", "migrate", str(legacy_log), str(dst)) == 0
        out = capsys.readouterr().out
        assert f"migrated 8 entries: {legacy_log} [jsonl]" in out
        assert "(8 stored)" in out
        expected = legacy_entries(legacy_log)
        assert expected["k0"] == (9.0, 9.0)  # last line wins
        with EvaluationCache(dst) as out_cache:
            assert out_cache.backend == "sqlite"
            assert sorted(out_cache.items()) == sorted(expected.items())
            keys = list(expected)
            assert out_cache.get_many(keys) == [expected[k] for k in keys]

    def test_sqlite_to_sqlite_copies_entries(self, sqlite_cache, tmp_path, capsys):
        dst = tmp_path / "copy.sqlite"
        assert run_cli("cache", "migrate", str(sqlite_cache), str(dst)) == 0
        assert "[sqlite]" in capsys.readouterr().out
        with EvaluationCache(sqlite_cache) as src, EvaluationCache(dst) as out:
            assert sorted(out.items()) == sorted(src.items())

    def test_small_batches_cover_everything(self, legacy_log, tmp_path):
        dst = tmp_path / "evals.sqlite"
        assert run_cli(
            "cache", "migrate", str(legacy_log), str(dst), "--batch-size", "3"
        ) == 0
        with EvaluationCache(dst) as out:
            assert len(out) == 8

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_batch_size_must_be_positive(self, legacy_log, tmp_path, size, capsys):
        dst = tmp_path / "evals.sqlite"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("cache", "migrate", str(legacy_log), str(dst),
                    "--batch-size", size)
        assert exit_info.value.code == 2
        assert "--batch-size" in capsys.readouterr().err
        assert not dst.exists()

    def test_rejects_same_src_and_dst(self, legacy_log, capsys):
        assert run_cli(
            "cache", "migrate", str(legacy_log), str(legacy_log)
        ) == 1
        assert "distinct" in capsys.readouterr().err


class TestCampaignFlushFlag:
    """``--cache-flush-every`` is gone: its round as a hidden, ignored
    flag is over, so it fails as an unknown argument."""

    @pytest.mark.parametrize("command", ["campaign", "serve"])
    def test_rejects_cache_flush_every(self, command, tmp_path, capsys):
        cache = tmp_path / "evals.sqlite"
        args = ["--spec", "4096:INT4"] if command == "campaign" else ["--port", "0"]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *args, "--cache", str(cache),
                    "--cache-flush-every", "32")
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache-flush-every 32" in (
            capsys.readouterr().err
        )
        assert not cache.exists()  # rejected before any work started

    @pytest.mark.parametrize("command", ["campaign", "serve"])
    def test_hidden_from_help(self, command, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        assert "--cache-flush-every" not in capsys.readouterr().out


class TestCacheOpenErrors:
    """``campaign`` and ``serve`` report a cache path they cannot open
    as one ``error:`` line and exit 1, before any work starts."""

    def test_campaign_directory_cache(self, tmp_path, capsys):
        assert run_cli("campaign", "--spec", "4096:INT4",
                       "--cache", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"error: evaluation cache path {tmp_path} is a directory\n"
        )

    def test_campaign_legacy_log(self, legacy_log, capsys):
        before = legacy_log.read_bytes()
        assert run_cli("campaign", "--spec", "4096:INT4",
                       "--cache", str(legacy_log)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "repro cache migrate" in err
        assert legacy_log.read_bytes() == before

    def test_serve_directory_cache(self, tmp_path, capsys):
        assert run_cli("serve", "--port", "0", "--cache", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"error: evaluation cache path {tmp_path} is a directory\n"
        )


class TestCampaignCacheReport:
    def test_all_exhaustive_campaign_reports_cache_not_consulted(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "evals.sqlite"
        with EvaluationCache(cache) as seeded:
            seeded.put_many({"unrelated": (1.0, 2.0)})
        rc = run_cli(
            "campaign", "--spec", "4096:INT4", "--spec", "4096:INT8",
            "--cache", str(cache),
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy: 4096:INT4=exhaustive, 4096:INT8=exhaustive\n" in out
        assert (
            "cache[sqlite]: not consulted (every spec was enumerated "
            "exhaustively), 1 entries stored"
        ) in out
        assert "hit rate" not in out
        with EvaluationCache(cache) as reopened:
            assert len(reopened) == 1

    def test_ga_campaign_reports_hits_and_misses(self, tmp_path, capsys):
        cache = tmp_path / "evals.sqlite"
        argv = (
            "campaign", "--spec", "4096:INT4",
            "--population", "16", "--generations", "4",
            "--exhaustive-threshold", "0", "--cache", str(cache),
        )
        assert run_cli(*argv) == 0
        capsys.readouterr()
        assert run_cli(*argv) == 0
        out = capsys.readouterr().out
        assert "misses (hit rate 100.0%)" in out
        assert "not consulted" not in out
