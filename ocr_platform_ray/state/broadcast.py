"""Broadcast small-side tables (SURVEY.md §2.3 T2, §2.4 J1/J5).

The reference caches small dimension data per process (bookId->url LRU,
apps/queue/src/services/book.ts:4-26; Airtable dims fetched once,
lib/airtable/index.ts:19-152).  The Ray-native equivalent: ``ray.put`` the
table ONCE in the submitting process, pass the ObjectRef into stages, and
resolve it at first use with ``cached_get`` — read from the local object
store by every task on the node, never re-shipped per batch."""

from __future__ import annotations

from typing import Any

import ray


_GET_CACHE: dict = {}


def cached_get(ref: "ray.ObjectRef") -> Any:
    """``ray.get`` with a per-worker deserialization cache.

    Lets STATELESS map_batches stages (plain callable instances — no actor
    pool, so no per-execution pool spin-up) still pay the broadcast
    deserialization only once per worker: Ray caches the deserialized task
    closure per worker, so this module-level dict persists across that
    closure's batches."""
    key = ref.hex()
    if key not in _GET_CACHE:
        _GET_CACHE[key] = ray.get(ref)
    return _GET_CACHE[key]
