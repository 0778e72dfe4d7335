"""Cache backends beyond the built-in SQLite tier.

The interesting one is :class:`RemoteCacheBackend`: a
:class:`~repro.service.cache.CacheBackend` that speaks batched
``get_many``/``put_many`` over a coordinator's ``/api/cache`` JSON
endpoints, so N worker processes share **one** dedup layer — a genome
any worker evaluated is a cache hit for every other worker.  Fronted
by the :class:`~repro.service.cache.EvaluationCache` memory LRU, each
generation costs the worker one HTTP round trip for lookups and one
for stores, mirroring the batch-first SQLite tier.

:func:`make_cache` turns the CLI's cache spec strings into configured
caches: ``memory``, a SQLite file path, or ``remote:http://host:port``.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.service.cache import EvaluationCache, Objectives

__all__ = ["RemoteCacheBackend", "make_cache"]

#: Spec prefix selecting the remote backend (``remote:http://...``).
_REMOTE_PREFIX = "remote:"


class RemoteCacheBackend:
    """Batch-first cache tier speaking the server's JSON envelope.

    Talks to the ``POST /api/cache/get_many`` / ``put_many`` endpoints
    of a :class:`~repro.service.server.CampaignHTTPServer` started with
    a shared cache.  Transient connection errors retry with exponential
    backoff through the underlying
    :class:`~repro.service.server.CampaignClient`.

    ``items()`` is deliberately unsupported — enumerating a remote
    dedup layer over HTTP is an anti-pattern; run ``repro cache``
    tooling against the server's own cache file instead.
    """

    name = "remote"

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 3,
        client=None,
    ) -> None:
        from repro.service.server import CampaignClient

        self.url = url.rstrip("/")
        self._client = client or CampaignClient(
            self.url, timeout=timeout, retries=retries
        )
        #: Server-reported entry count, refreshed by every round trip —
        #: so ``len()`` (metrics collectors scrape it) never does I/O.
        self._entries_hint = 0

    def get(self, key: str) -> Objectives | None:
        return self.get_many([key]).get(key)

    def get_many(self, keys: Sequence[str]) -> dict[str, Objectives]:
        if not keys:
            return {}
        answer = self._client.cache_get_many(list(keys))
        self._entries_hint = int(answer.get("entries") or self._entries_hint)
        return {
            key: tuple(values)
            for key, values in (answer.get("found") or {}).items()
        }

    def put(self, key: str, objectives: Objectives) -> None:
        self.put_many({key: objectives})

    def put_many(self, entries: Mapping[str, Objectives]) -> None:
        if not entries:
            return
        answer = self._client.cache_put_many(
            {key: list(values) for key, values in entries.items()}
        )
        self._entries_hint = int(answer.get("entries") or self._entries_hint)

    def compact(self) -> dict:
        return {"backend": self.name, "url": self.url}

    def __len__(self) -> int:
        return self._entries_hint

    def items(self) -> Iterator[tuple[str, Objectives]]:
        raise NotImplementedError(
            "RemoteCacheBackend does not enumerate entries; "
            "inspect the server's cache file directly"
        )

    def close(self) -> None:
        pass


def make_cache(spec: str | None, *, registry=None) -> EvaluationCache:
    """Build an :class:`EvaluationCache` from a CLI cache spec.

    * ``None`` / ``""`` / ``"memory"`` — memory-only cache;
    * ``"remote:http://host:port"`` (or a bare ``http(s)://`` URL) —
      the server-shared :class:`RemoteCacheBackend`;
    * anything else — a local SQLite cache file.
    """
    if not spec or spec == "memory":
        return EvaluationCache(registry=registry)
    if spec.startswith(_REMOTE_PREFIX):
        spec = spec[len(_REMOTE_PREFIX):]
    if spec.startswith(("http://", "https://")):
        return EvaluationCache(
            backend=RemoteCacheBackend(spec), registry=registry
        )
    return EvaluationCache(spec, registry=registry)
