"""Canonical content hashes: request fingerprints, cache keys, point ids."""

from __future__ import annotations

import hashlib
import json

__all__ = ["stable_hash"]


def stable_hash(payload: object) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``.

    Canonical means sorted keys and no insignificant whitespace, so two
    structurally equal payloads always hash identically regardless of
    construction order.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
