"""Tests for campaign progress events and the bounded event buffer."""

import dataclasses
import json
import sys
import threading
import time

import pytest

from repro.service import events as events_module
from repro.service.events import CampaignEvent, EventBuffer, EventKind


def event(kind=EventKind.GENERATION_DONE, **overrides) -> CampaignEvent:
    payload = dict(
        kind=kind,
        spec_index=0,
        spec="4096:INT8",
        generation=3,
        generations=10,
        evaluations=120,
        front_size=17,
        cache_hit_rate=0.25,
    )
    payload.update(overrides)
    return CampaignEvent(**payload)


def watch_blocking(buffer: EventBuffer) -> threading.Event:
    """Swap in a condition that reports when a reader blocks on it."""
    blocked = threading.Event()

    class Reporting(threading.Condition):
        def wait(self, timeout=None):
            blocked.set()
            return super().wait(timeout)

    buffer._cond = Reporting()
    return blocked


def wait_in_thread(buffer: EventBuffer) -> tuple[threading.Thread, dict]:
    """Start ``wait_since(0, timeout=60)`` on a thread; its answer lands
    in the returned dict under ``"got"``."""
    results = {}

    def wait():
        results["got"] = buffer.wait_since(0, timeout=60.0)

    thread = threading.Thread(target=wait)
    thread.start()
    return thread, results


class TestCampaignEvent:
    @pytest.mark.parametrize("kind", list(EventKind))
    def test_json_round_trip(self, kind):
        original = event(kind=kind, message="detail")
        assert CampaignEvent.from_json(original.to_json()) == original

    def test_kind_accepts_raw_string(self):
        assert CampaignEvent(kind="spec_done").kind is EventKind.SPEC_DONE

    def test_terminal_kinds(self):
        terminal = {k for k in EventKind if k.terminal}
        assert terminal == {
            EventKind.CAMPAIGN_DONE,
            EventKind.CAMPAIGN_FAILED,
            EventKind.CAMPAIGN_CANCELLED,
        }

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_to_dict_matches_asdict(self, kind):
        """The hand-written encoder keeps the dataclass encoding: same
        keys, same order, same JSON bytes."""
        original = event(kind=kind, message="detail", wall_time_s=1.5)
        expected = dataclasses.asdict(original)
        expected["kind"] = original.kind.value
        payload = original.to_dict()
        assert payload == expected
        assert list(payload) == list(expected)
        assert json.dumps(payload) == json.dumps(expected)
        assert original.to_json() == json.dumps(expected, sort_keys=True)

    def test_from_dict_drops_unknown_keys(self):
        """An event field added by a newer server is dropped with a
        warning instead of failing the watcher."""
        original = event(seq=4)
        payload = dict(original.to_dict(), recall=0.75)
        with pytest.warns(RuntimeWarning, match="CampaignEvent key.*'recall'"):
            loaded = CampaignEvent.from_dict(payload)
        assert loaded == original

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_describe_is_single_line(self, kind):
        rendered = event(
            kind=kind, message="boom", wall_time_s=1.5
        ).describe()
        assert rendered
        assert "\n" not in rendered


class TestEventBuffer:
    def test_append_stamps_increasing_seq(self):
        buffer = EventBuffer()
        assert [buffer.append(event()) for _ in range(3)] == [0, 1, 2]
        events, cursor, done = buffer.since(0)
        assert [e.seq for e in events] == [0, 1, 2]
        assert cursor == 3
        assert not done

    def test_cursor_reads_are_incremental(self):
        buffer = EventBuffer()
        buffer.append(event())
        events, cursor, _ = buffer.since(0)
        assert len(events) == 1
        buffer.append(event())
        buffer.append(event())
        events, cursor, _ = buffer.since(cursor)
        assert [e.seq for e in events] == [1, 2]
        assert buffer.since(cursor)[0] == []

    def test_overflow_drops_oldest(self):
        buffer = EventBuffer(maxlen=4)
        for _ in range(10):
            buffer.append(event())
        events, cursor, _ = buffer.since(0)
        assert [e.seq for e in events] == [6, 7, 8, 9]
        assert buffer.dropped == 6
        assert cursor == 10

    def test_terminal_event_closes(self):
        buffer = EventBuffer()
        buffer.append(event())
        buffer.append(event(kind=EventKind.CAMPAIGN_DONE))
        assert buffer.closed
        # Late appends are discarded: the terminal event stays last.
        assert buffer.append(event()) == -1
        events, _, done = buffer.since(0)
        assert done
        assert events[-1].kind is EventKind.CAMPAIGN_DONE

    def test_wait_since_times_out_empty(self):
        buffer = EventBuffer()
        events, cursor, done = buffer.wait_since(0, timeout=0.05)
        assert events == [] and cursor == 0 and not done

    def test_wait_since_wakes_on_append(self):
        buffer = EventBuffer()
        results = {}

        def consume():
            results["got"] = buffer.wait_since(0, timeout=5.0)

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        buffer.append(event())
        thread.join(timeout=5.0)
        events, cursor, _ = results["got"]
        assert [e.seq for e in events] == [0]
        assert cursor == 1

    def test_batch_waits_for_the_terminal_event(self, monkeypatch):
        """Holding news on an open stream, a waiter keeps waiting within
        the batching window and answers with the terminal event the
        moment it lands."""
        monkeypatch.setattr(events_module, "BATCH_WINDOW_S", 30.0)
        buffer = EventBuffer()
        blocked = watch_blocking(buffer)
        buffer.append(event())
        thread, results = wait_in_thread(buffer)
        while thread.is_alive() and not blocked.wait(0.01):
            pass
        buffer.append(event(kind=EventKind.CAMPAIGN_DONE))
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        events, cursor, done = results["got"]
        assert [e.kind for e in events] == [
            EventKind.GENERATION_DONE, EventKind.CAMPAIGN_DONE,
        ]
        assert cursor == 2 and done

    def test_batching_reader_blocks_once_over_many_events(self, monkeypatch):
        """Non-terminal events do not wake a reader inside its window:
        it blocks once and answers with everything at the terminal
        event."""
        monkeypatch.setattr(events_module, "BATCH_WINDOW_S", 30.0)
        buffer = EventBuffer()
        waits = []

        class Counting(threading.Condition):
            def wait(self, timeout=None):
                waits.append(timeout)
                return super().wait(timeout)

        buffer._cond = Counting()
        buffer.append(event())
        thread, results = wait_in_thread(buffer)
        while thread.is_alive() and not waits:
            time.sleep(0.001)
        for generation in range(10):
            buffer.append(event(generation=generation))
            time.sleep(0.002)  # room for a woken reader to wait again
        buffer.append(event(kind=EventKind.CAMPAIGN_DONE))
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        events, cursor, done = results["got"]
        assert [e.seq for e in events] == list(range(12))
        assert cursor == 12 and done
        assert len(waits) == 1

    def test_news_waiters_still_wake_per_event(self):
        """A reader waiting for news wakes at the next event, not at its
        timeout."""
        buffer = EventBuffer()
        thread, results = wait_in_thread(buffer)
        while thread.is_alive() and not buffer._news_waiters:
            time.sleep(0.001)
        buffer.append(event())
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert [e.seq for e in results["got"][0]] == [0]
        assert buffer._news_waiters == 0

    def test_zero_window_returns_the_first_news(self, monkeypatch):
        monkeypatch.setattr(events_module, "BATCH_WINDOW_S", 0.0)
        buffer = EventBuffer()
        thread, results = wait_in_thread(buffer)
        buffer.append(event())
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        events, cursor, done = results["got"]
        assert [e.seq for e in events] == [0]
        assert cursor == 1 and not done

    def test_batch_window_ends_at_the_caller_timeout(self, monkeypatch):
        monkeypatch.setattr(events_module, "BATCH_WINDOW_S", 30.0)
        buffer = EventBuffer()
        buffer.append(event())
        events, cursor, done = buffer.wait_since(0, timeout=0.05)
        assert [e.seq for e in events] == [0]
        assert cursor == 1 and not done

    def test_rejects_silly_maxlen(self):
        with pytest.raises(ValueError):
            EventBuffer(maxlen=0)

    def test_overflow_under_concurrent_writers(self):
        # Many producers hammer a small buffer at once: every append is
        # either retained or counted as dropped (no lost events), and
        # the retained window is contiguous, in-order, and full.
        buffer = EventBuffer(maxlen=8)
        threads, per_thread = 8, 250

        def produce(worker_id):
            for i in range(per_thread):
                buffer.append(event(spec_index=worker_id, generation=i))

        workers = [
            threading.Thread(target=produce, args=(w,))
            for w in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        total = threads * per_thread
        retained = buffer.replay()
        assert len(retained) + buffer.dropped == total
        seqs = [e.seq for e in retained]
        # The window is the contiguous tail of the global sequence.
        assert seqs == list(range(total - len(retained), total))
        assert len(retained) == buffer.maxlen
        assert not buffer.closed

    def test_many_readers_race_the_producer(self):
        """More readers than cores, each moving between waiting for news
        and batching, under a short switch interval: every reader sees
        every event once, in order, and stops at the terminal one."""
        buffer = EventBuffer(maxlen=1024)
        total, readers = 300, 6
        seen = [[] for _ in range(readers)]

        def consume(i):
            cursor = 0
            while True:
                events, cursor, done = buffer.wait_since(cursor, timeout=30.0)
                seen[i].extend(e.seq for e in events)
                if done:
                    return

        def produce():
            for i in range(total - 1):
                buffer.append(event(generation=i))
                if i % 13 == 0:
                    time.sleep(0.001)
            buffer.append(event(kind=EventKind.CAMPAIGN_DONE))

        threads = [
            threading.Thread(target=consume, args=(i,)) for i in range(readers)
        ]
        threads.append(threading.Thread(target=produce))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [list(range(total))] * readers
        assert buffer._news_waiters == 0

    def test_cursor_reads_race_the_producer(self):
        # A producer streams 200 events (terminal last) while a consumer
        # drains by cursor: the consumer must see every event exactly
        # once, in order, and stop at the terminal one.
        buffer = EventBuffer(maxlen=1024)
        total = 200

        def produce():
            for i in range(total - 1):
                buffer.append(event(generation=i))
                if i % 17 == 0:
                    time.sleep(0.001)
            buffer.append(event(kind=EventKind.CAMPAIGN_DONE))

        producer = threading.Thread(target=produce)
        producer.start()
        seen = []
        cursor = 0
        while True:
            events, cursor, done = buffer.wait_since(cursor, timeout=5.0)
            seen.extend(events)
            if done:
                break
        producer.join(timeout=5.0)
        assert [e.seq for e in seen] == list(range(total))
        assert seen[-1].terminal
