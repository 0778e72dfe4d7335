"""CLI tests for cache maintenance (`repro cache stats|compact|migrate`)."""

import json

import pytest

from repro.cli import main
from repro.service.cache import EvaluationCache


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def jsonl_cache(tmp_path):
    path = tmp_path / "evals.jsonl"
    with EvaluationCache(path) as cache:
        cache.put_many({f"k{i}": (float(i), float(i) * 2) for i in range(8)})
        cache.put_many({f"k{i}": (9.0, 9.0) for i in range(3)})  # stale lines
    return path


class TestCacheStats:
    def test_table_output(self, jsonl_cache, capsys):
        assert run_cli("cache", "stats", str(jsonl_cache)) == 0
        out = capsys.readouterr().out
        assert "jsonl" in out
        assert "entries" in out
        assert "stale lines" in out

    def test_json_output(self, jsonl_cache, capsys):
        assert run_cli("cache", "stats", str(jsonl_cache), "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert info["backend"] == "jsonl"
        assert info["entries"] == 8
        assert info["log_lines"] == 11
        assert info["stale_lines"] == 3

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert run_cli("cache", "stats", str(tmp_path / "nope.jsonl")) == 1
        assert "no evaluation cache" in capsys.readouterr().err
        assert not (tmp_path / "nope.jsonl").exists()  # not silently created


class TestCacheCompact:
    def test_jsonl_compact_drops_stale_lines(self, jsonl_cache, capsys):
        assert run_cli("cache", "compact", str(jsonl_cache)) == 0
        out = capsys.readouterr().out
        assert "11 -> 8 lines" in out
        with EvaluationCache(jsonl_cache) as cache:
            assert cache.info()["log_lines"] == 8
            assert cache.get("k0") == (9.0, 9.0)  # last write wins

    def test_sqlite_vacuum(self, tmp_path, capsys):
        path = tmp_path / "evals.sqlite"
        with EvaluationCache(path) as cache:
            cache.put_many({f"k{i}": (float(i),) for i in range(8)})
        assert run_cli("cache", "compact", str(path)) == 0
        assert "vacuumed" in capsys.readouterr().out


class TestCacheMigrate:
    def test_jsonl_to_sqlite_preserves_entries(self, jsonl_cache, tmp_path, capsys):
        dst = tmp_path / "evals.sqlite"
        assert run_cli("cache", "migrate", str(jsonl_cache), str(dst)) == 0
        assert "migrated 8 entries" in capsys.readouterr().out
        with EvaluationCache(jsonl_cache) as src, EvaluationCache(dst) as out:
            assert out.backend == "sqlite"
            assert sorted(out.items()) == sorted(src.items())

    def test_small_batches_cover_everything(self, jsonl_cache, tmp_path):
        dst = tmp_path / "evals.sqlite"
        assert run_cli(
            "cache", "migrate", str(jsonl_cache), str(dst), "--batch-size", "3"
        ) == 0
        with EvaluationCache(dst) as out:
            assert len(out) == 8

    def test_rejects_same_src_and_dst(self, jsonl_cache, capsys):
        assert run_cli(
            "cache", "migrate", str(jsonl_cache), str(jsonl_cache)
        ) == 1
        assert "distinct" in capsys.readouterr().err


class TestCampaignFlushFlag:
    def test_campaign_accepts_cache_flush_every(self, tmp_path, capsys):
        cache = tmp_path / "evals.sqlite"
        rc = run_cli(
            "campaign", "--spec", "4096:INT4",
            "--population", "16", "--generations", "4",
            # The GA route: exhaustive specs never write to the cache.
            "--exhaustive-threshold", "0",
            "--cache", str(cache), "--cache-flush-every", "32",
        )
        assert rc == 0
        with EvaluationCache(cache) as reopened:
            assert len(reopened) > 0  # flushed by campaign end


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
        assert "strategy: 4096:INT4=exhaustive, 4096:INT8=exhaustive;" in out
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
