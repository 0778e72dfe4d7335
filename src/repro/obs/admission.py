"""Server-side admission control for the campaign service.

Three independent guards, all optional, all configured through one
frozen :class:`AdmissionPolicy` (``repro serve`` flags map onto it):

* **budget caps** — a request's total work estimate
  (``specs x generations x population``) above ``max_budget`` is
  rejected up front with a ``413``-style structured envelope, before
  any GA state is allocated;
* **per-client rate limiting** — a token bucket per client id
  (``X-Client-Id`` header, else the remote address) refilled at
  ``rate_limit`` requests/second with ``burst`` capacity; over-rate
  clients get ``429`` with a ``Retry-After`` hint;
* **bounded queue** — more than ``max_pending`` not-yet-running jobs
  answers ``429`` + ``Retry-After`` instead of queueing unboundedly.

Rejections raise :class:`AdmissionError`, which the HTTP layer maps
onto the structured error envelope; every rejection is counted in
``repro_admission_rejected_total{reason=...}``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import get_registry

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionPolicy",
    "RateLimiter",
    "TokenBucket",
    "request_budget",
]


class AdmissionError(Exception):
    """A rejected request: HTTP status, machine code, retry hint."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after_s = retry_after_s

    @property
    def headers(self) -> dict[str, str]:
        if self.retry_after_s is None:
            return {}
        # Retry-After is delta-seconds; round up so clients never retry
        # a fraction of a second early and bounce straight off again.
        return {"Retry-After": str(max(1, math.ceil(self.retry_after_s)))}


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` cap."""

    def __init__(self, rate: float, burst: int) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, now: float | None = None) -> float:
        """Take one token; returns 0.0 on success, else seconds to wait."""
        now = time.monotonic() if now is None else now
        with self._lock:
            elapsed = max(0.0, now - self._updated)
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class RateLimiter:
    """Per-client token buckets behind one lock.

    The client table is bounded: past ``max_clients`` the least
    recently *seen* client's bucket is dropped (a dropped client simply
    starts over with a full bucket — safe, it only ever forgives).
    """

    def __init__(self, rate: float, burst: int, max_clients: int = 4096) -> None:
        if max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        self.rate = rate
        self.burst = burst
        self.max_clients = max_clients
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}

    def try_acquire(self, client_id: str) -> float:
        """0.0 when the client may proceed, else seconds to wait."""
        with self._lock:
            bucket = self._buckets.pop(client_id, None)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst)
            # Re-insert at the end: plain dicts iterate in insertion
            # order, so the front is always the least recently seen.
            self._buckets[client_id] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.pop(next(iter(self._buckets)))
        return bucket.try_acquire()


def request_budget(request) -> int:
    """Total work estimate of one campaign request.

    ``specs x generations x population`` — an upper bound on genome
    evaluations before cache hits, the quantity a budget cap bounds.
    """
    return len(request.specs) * request.generations * request.population_size


@dataclass(frozen=True)
class AdmissionPolicy:
    """Which guards are active (``None`` disables a guard).

    Attributes:
        rate_limit: sustained submissions/second allowed per client.
        burst: bucket capacity on top of ``rate_limit`` (defaults to
            ``ceil(rate_limit)``, at least 1, when left ``None``).
        max_pending: most not-yet-running jobs the queue may hold.
        max_budget: largest ``specs x generations x population`` a
            single request may ask for.
    """

    rate_limit: float | None = None
    burst: int | None = None
    max_pending: int | None = None
    max_budget: int | None = None

    def __post_init__(self) -> None:
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be > 0 when given")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be >= 1 when given")
        if self.max_pending is not None and self.max_pending < 0:
            raise ValueError("max_pending must be >= 0 when given")
        if self.max_budget is not None and self.max_budget < 1:
            raise ValueError("max_budget must be >= 1 when given")

    @property
    def enabled(self) -> bool:
        return any(
            value is not None
            for value in (self.rate_limit, self.max_pending, self.max_budget)
        )


class AdmissionController:
    """Applies one :class:`AdmissionPolicy` to incoming submissions.

    Check order is cheapest-and-most-specific first: the budget cap
    (pure arithmetic, per-request), then the client's rate, then the
    queue bound — so an oversized request is named as such even when
    the queue also happens to be full.
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._limiter = None
        if policy.rate_limit is not None:
            burst = policy.burst
            if burst is None:
                burst = max(1, math.ceil(policy.rate_limit))
            self._limiter = RateLimiter(policy.rate_limit, burst)

    @staticmethod
    def _reject(reason: str) -> None:
        """Count one rejection in the current process registry."""
        get_registry().counter(
            "repro_admission_rejected_total",
            "Submissions rejected by admission control",
            ("reason",),
        ).labels(reason).inc()

    def admit(self, request, client_id: str, pending: int) -> None:
        """Raise :class:`AdmissionError` unless the submission may run.

        Args:
            request: the parsed campaign request.
            client_id: who is asking (header or remote address).
            pending: the queue's current not-yet-running job count.
        """
        policy = self.policy
        if policy.max_budget is not None:
            budget = request_budget(request)
            if budget > policy.max_budget:
                self._reject("budget")
                raise AdmissionError(
                    413,
                    "budget_exceeded",
                    f"request budget {budget} "
                    f"(specs x generations x population) exceeds the "
                    f"server cap {policy.max_budget}; shrink the request "
                    f"or split it into smaller campaigns",
                )
        if self._limiter is not None:
            retry_after = self._limiter.try_acquire(client_id)
            if retry_after > 0.0:
                self._reject("rate")
                raise AdmissionError(
                    429,
                    "rate_limited",
                    f"client {client_id!r} exceeded "
                    f"{policy.rate_limit:g} submissions/s",
                    retry_after_s=retry_after,
                )
        if policy.max_pending is not None and pending >= policy.max_pending:
            self._reject("queue_full")
            # The queue drains at campaign speed; one second is the
            # floor Retry-After can express anyway.
            raise AdmissionError(
                429,
                "queue_full",
                f"{pending} campaigns already pending "
                f"(server cap {policy.max_pending})",
                retry_after_s=1.0,
            )
