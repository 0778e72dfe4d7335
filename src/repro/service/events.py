"""Typed, JSON-able progress events for streaming campaigns.

A running campaign reports its progress as :class:`CampaignEvent`
records: one ``SPEC_STARTED``/``SPEC_DONE`` pair per specification, one
``GENERATION_DONE`` per completed GA generation in between.  The job
that holds the request then appends exactly one terminal event
(``CAMPAIGN_DONE``, ``CAMPAIGN_FAILED`` or ``CAMPAIGN_CANCELLED``).
Every event round-trips through JSON, so the same stream serves
in-process observers, the job queue's per-job buffers, and the HTTP
front-end.

:class:`EventBuffer` is the bounded, thread-safe fan-out primitive the
job queue attaches to each job: producers append, consumers read
incrementally by cursor (``since``) or block until news arrives
(``wait_since``, which then collects the events of one
:data:`BATCH_WINDOW_S` into a single read).  When the buffer overflows,
the *oldest* events are dropped and counted — late subscribers lose
history, never liveness, and the terminal event is always retained once
it lands.
"""

from __future__ import annotations

import enum
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from repro.problems.base import filter_unknown_keys

__all__ = [
    "EventKind",
    "CampaignEvent",
    "CampaignObserver",
    "EventBuffer",
    "CampaignCancelled",
]

#: Seconds a long-poll that already holds news keeps waiting for more
#: before it answers, so a busy stream reaches its watcher in one read
#: per window instead of one read per event.  The terminal event ends
#: the wait at once.
BATCH_WINDOW_S = 0.02


class CampaignCancelled(RuntimeError):
    """Raised when a campaign is stopped cooperatively mid-run."""


class EventKind(str, enum.Enum):
    """What a :class:`CampaignEvent` announces."""

    SPEC_STARTED = "spec_started"
    GENERATION_DONE = "generation_done"
    SPEC_DONE = "spec_done"
    CAMPAIGN_DONE = "campaign_done"
    CAMPAIGN_FAILED = "campaign_failed"
    CAMPAIGN_CANCELLED = "campaign_cancelled"

    @property
    def terminal(self) -> bool:
        """True for the three end-of-stream kinds."""
        return self in (
            EventKind.CAMPAIGN_DONE,
            EventKind.CAMPAIGN_FAILED,
            EventKind.CAMPAIGN_CANCELLED,
        )


@dataclass(frozen=True)
class CampaignEvent:
    """One progress announcement from a running campaign.

    Only the fields that make sense for the event's kind are populated;
    the rest stay ``None`` so every event shares one JSON schema.

    Attributes:
        kind: what happened.
        seq: position in the job's event stream (stamped by
            :class:`EventBuffer`; ``-1`` until buffered).
        spec_index: 0-based index of the spec within the campaign.
        spec: human-readable spec label (``"<wstore>:<precision>"``).
        generation: completed generations for the spec (on
            ``GENERATION_DONE``/``SPEC_DONE``).
        generations: configured generation budget per spec.
        evaluations: unique genomes evaluated so far (per spec for
            spec-scoped events, campaign total on ``CAMPAIGN_DONE``).
        front_size: current rank-0 front size (merged frontier size on
            ``CAMPAIGN_DONE``).
        cache_hit_rate: shared evaluation-cache hit rate over the
            campaign's time window when the campaign runs cached (a
            cache shared across a server includes concurrent campaigns'
            lookups), else the GA's own memoisation rate.
        wall_time_s: end-to-end campaign wall clock (terminal events).
        message: failure/cancellation detail.
    """

    kind: EventKind
    seq: int = -1
    spec_index: int | None = None
    spec: str | None = None
    generation: int | None = None
    generations: int | None = None
    evaluations: int | None = None
    front_size: int | None = None
    cache_hit_rate: float | None = None
    wall_time_s: float | None = None
    message: str | None = None

    def __post_init__(self) -> None:
        # Tolerate the raw string from JSON payloads.
        if not isinstance(self.kind, EventKind):
            object.__setattr__(self, "kind", EventKind(self.kind))

    @property
    def terminal(self) -> bool:
        return self.kind.terminal

    def to_dict(self) -> dict:
        # Field by field: dataclasses.asdict deep-copies through a
        # generic recursion, and a batched poll encodes every event of
        # a GA job.  The keys keep the field order.
        return {
            "kind": self.kind.value,
            "seq": self.seq,
            "spec_index": self.spec_index,
            "spec": self.spec,
            "generation": self.generation,
            "generations": self.generations,
            "evaluations": self.evaluations,
            "front_size": self.front_size,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_time_s": self.wall_time_s,
            "message": self.message,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignEvent":
        """Load one event; keys a newer server added are dropped with a
        warning, so an older watcher keeps streaming."""
        return cls(**filter_unknown_keys(payload, cls, "CampaignEvent"))

    @classmethod
    def from_json(cls, text: str) -> "CampaignEvent":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """One-line human rendering (used by ``repro watch``)."""
        prefix = f"[{self.spec}] " if self.spec else ""
        if self.kind is EventKind.SPEC_STARTED:
            return f"{prefix}spec started ({self.generations} generations)"
        if self.kind is EventKind.GENERATION_DONE:
            hit = (
                f", cache hit {self.cache_hit_rate:.0%}"
                if self.cache_hit_rate is not None
                else ""
            )
            return (
                f"{prefix}generation {self.generation}/{self.generations}: "
                f"{self.evaluations} evaluations, front {self.front_size}{hit}"
            )
        if self.kind is EventKind.SPEC_DONE:
            return (
                f"{prefix}spec done after {self.generation} generations: "
                f"{self.evaluations} evaluations, front {self.front_size}"
            )
        if self.kind is EventKind.CAMPAIGN_DONE:
            return (
                f"campaign done: {self.front_size} frontier designs, "
                f"{self.evaluations} evaluations, "
                f"{self.wall_time_s:.2f} s"
            )
        if self.kind is EventKind.CAMPAIGN_FAILED:
            return f"campaign failed: {self.message}"
        return f"campaign cancelled: {self.message or 'stop requested'}"


#: Campaign-level progress callback.  May be invoked from several worker
#: threads at once, so implementations must be thread-safe
#: (:meth:`EventBuffer.append` is).
CampaignObserver = Callable[[CampaignEvent], None]


class EventBuffer:
    """Bounded, cursor-addressed event log for one job.

    Producers call :meth:`append`; each event is stamped with a
    monotonically increasing ``seq``.  Consumers poll
    :meth:`since`/:meth:`wait_since` with the next sequence number they
    want — reads never consume, so any number of watchers can stream
    the same job independently.

    The buffer keeps at most ``maxlen`` events: overflow drops the
    oldest (counted in :attr:`dropped`).  A terminal event closes the
    buffer — further appends are discarded and all waiters wake up.
    Any other event wakes waiters only while a reader is waiting for
    news: a reader inside its batching window waits for the terminal
    event alone, so it blocks once per window, not once per event.
    """

    def __init__(self, maxlen: int = 256) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._events: deque[CampaignEvent] = deque()
        self._cond = threading.Condition()
        self._next_seq = 0
        self.dropped = 0
        self._closed = False
        #: Readers blocked until the next event (not batching ones).
        self._news_waiters = 0

    @property
    def closed(self) -> bool:
        """True once a terminal event has been buffered."""
        with self._cond:
            return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    def append(self, event: CampaignEvent) -> int:
        """Stamp and buffer ``event``; returns its sequence number.

        Events arriving after the stream closed are dropped (returns
        ``-1``) — the terminal event is by definition the last word.
        """
        with self._cond:
            if self._closed:
                return -1
            event = replace(event, seq=self._next_seq)
            self._next_seq += 1
            self._events.append(event)
            if len(self._events) > self.maxlen:
                self._events.popleft()
                self.dropped += 1
            if event.terminal:
                self._closed = True
            # A reader inside its batching window waits for the
            # terminal event alone; only news waiters need the others.
            if event.terminal or self._news_waiters:
                self._cond.notify_all()
            return event.seq

    def since(self, cursor: int = 0) -> tuple[list[CampaignEvent], int, bool]:
        """Events with ``seq >= cursor``, the next cursor, and closed-ness.

        Feeding the returned cursor back in yields only news, so a
        polling consumer sees every retained event exactly once.  A
        cursor older than the retention window silently skips the
        dropped events (check :attr:`dropped`).
        """
        with self._cond:
            events = [e for e in self._events if e.seq >= cursor]
            return events, self._next_seq, self._closed

    def wait_since(
        self, cursor: int = 0, timeout: float | None = None
    ) -> tuple[list[CampaignEvent], int, bool]:
        """Like :meth:`since`, but blocks until there is news, then batches.

        Waits until an event with ``seq >= cursor`` exists or the stream
        closes.  Holding news while the stream is still open, it keeps
        waiting for the terminal event for at most :data:`BATCH_WINDOW_S`
        more (never past ``timeout`` from the call), then returns every
        event since ``cursor``: a busy stream costs its watcher one read
        per window rather than one per event.  The terminal event ends
        the wait at once, and on timeout it returns whatever is there
        (possibly nothing).  The three-tuple is read atomically, so
        ``closed=True`` guarantees the returned events include
        everything up to and including the terminal one (within the
        retention window).
        """
        start = time.monotonic()
        with self._cond:
            self._news_waiters += 1
            try:
                self._cond.wait_for(
                    lambda: self._closed or self._next_seq > cursor, timeout
                )
            finally:
                self._news_waiters -= 1
            if not self._closed and self._next_seq > cursor:
                window = BATCH_WINDOW_S
                if timeout is not None:
                    window = min(window, start + timeout - time.monotonic())
                if window > 0:
                    self._cond.wait_for(lambda: self._closed, window)
            events = [e for e in self._events if e.seq >= cursor]
            return events, self._next_seq, self._closed

    def replay(self) -> Iterable[CampaignEvent]:
        """Snapshot of every retained event, oldest first."""
        with self._cond:
            return list(self._events)
