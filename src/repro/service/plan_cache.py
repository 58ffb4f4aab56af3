"""A generation-stamped LRU cache for compiled citation plans.

The cache never serves stale data: every entry is stamped with the engine's
:meth:`~repro.core.engine.CitationEngine.plan_token` at insertion time — the
pair ``(database generation, engine cache epoch)``.  Any insert/delete on the
database bumps the generation, and any forced ``invalidate_caches()`` bumps
the epoch, so a lookup whose current token differs from the stored stamp is a
miss and evicts the entry — unless the caller can bring the entry forward to
the current token (the result cache of
:class:`~repro.service.service.CitationService` asks its backend to), in
which case it is stored again under the new stamp and served as a hit.
There is deliberately no time-based expiry: entries only go stale when the
data or the views change, and the token captures exactly that.

:class:`GenerationalLRU` is the generic mechanism (also used for the
result cache); :class:`PlanCache` is its plan-flavoured face.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable, Hashable
from typing import Generic, TypeVar

from repro.concurrency import shared_state
from repro.core.engine import CitationPlan

__all__ = ["CacheInfo", "GenerationalLRU", "PlanCache"]

V = TypeVar("V")


@dataclass
class CacheInfo:
    """Counters describing the behaviour of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate(), 4),
        }


@shared_state("_entries", "_info", lock="_lock")
class GenerationalLRU(Generic[V]):
    """A thread-safe LRU cache whose entries carry a validity token.

    ``get`` returns ``None`` either when the key is absent (a miss) or when
    the stored token no longer matches the caller's current token and the
    caller's ``refresh`` cannot bring the entry forward (an invalidation: the
    entry is dropped and counted separately, so hit-rate statistics
    distinguish capacity misses from staleness).

    ``keep_stale=True`` opts into *stale retention*: a token-mismatched
    ``get`` still counts an invalidation and a miss, but leaves the entry in
    place so :meth:`get_stale` can serve it later as a degraded answer (the
    citation service's ``serve_stale`` fallback under deadline or overload
    pressure).  The default drops mismatched entries eagerly, exactly as
    before — existing caches see identical eviction and invalidation counts.
    """

    def __init__(self, maxsize: int = 256, keep_stale: bool = False) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.keep_stale = keep_stale
        self._entries: OrderedDict[Hashable, tuple[Hashable, V]] = OrderedDict()
        self._lock = threading.RLock()
        self._info = CacheInfo()

    def get(
        self,
        key: Hashable,
        token: Hashable,
        refresh: Callable[[V, Hashable], tuple[V, Hashable] | None] | None = None,
    ) -> V | None:
        """Return the cached value for *key* if present and still current.

        An entry stamped with another token is invalid, unless *refresh*,
        called as ``refresh(value, stamp)`` with the cache unlocked, brings
        it forward: it returns the ``(value, token)`` to serve and store in
        the entry's place, and the lookup counts as a hit.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._info.misses += 1
                return None
            stored_token, value = entry
            if stored_token == token:
                self._entries.move_to_end(key)
                self._info.hits += 1
                return value
            if refresh is None:
                self._invalid_locked(key, entry)
                return None
        brought = refresh(value, stored_token)
        with self._lock:
            if brought is None:
                self._invalid_locked(key, entry)
                return None
            value, stamp = brought
            if self._entries.get(key) is entry:
                self._entries[key] = (stamp, value)
                self._entries.move_to_end(key)
            self._info.hits += 1
            return value

    def _invalid_locked(self, key: Hashable, entry: tuple[Hashable, V]) -> None:
        """Count a lookup of an invalid *entry*, dropping it unless stale
        entries are kept (or another caller has replaced it)."""
        if not self.keep_stale and self._entries.get(key) is entry:
            del self._entries[key]
        self._info.invalidations += 1
        self._info.misses += 1

    def get_stale(self, key: Hashable, token: Hashable) -> tuple[V, bool] | None:
        """Return ``(value, fresh)`` for *key* regardless of token validity.

        The degraded-serving accessor: where :meth:`get` refuses
        token-mismatched entries, this returns whatever is stored — ``fresh``
        tells the caller whether the stamp still matches *token*.  Does not
        touch hit/miss counters or LRU order (a stale serve should neither
        look like a cache hit nor keep a dead entry warm); returns ``None``
        only when the key is absent entirely.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            stored_token, value = entry
            return value, stored_token == token

    def put(self, key: Hashable, value: V, token: Hashable) -> None:
        """Insert (or refresh) *key* with a validity stamp of *token*."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (token, value)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._info.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry; return how many were removed."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._info.invalidations += dropped
            return dropped

    def prune(self, token: Hashable) -> int:
        """Drop entries whose stamp differs from *token*; return the count."""
        with self._lock:
            stale = [
                key
                for key, (stored_token, _value) in self._entries.items()
                if stored_token != token
            ]
            for key in stale:
                del self._entries[key]
            self._info.invalidations += len(stale)
            return len(stale)

    def info(self) -> CacheInfo:
        """A consistent copy of the cache counters, taken under the lock."""
        with self._lock:
            return CacheInfo(
                hits=self._info.hits,
                misses=self._info.misses,
                evictions=self._info.evictions,
                invalidations=self._info.invalidations,
            )

    def stats(self) -> dict[str, int | float]:
        """Counters plus occupancy, as a plain dict (for ``stats()`` output)."""
        with self._lock:
            out = self._info.as_dict()
            out["size"] = len(self._entries)
            out["maxsize"] = self.maxsize
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


class PlanCache(GenerationalLRU[CitationPlan]):
    """LRU of :class:`~repro.core.engine.CitationPlan`, keyed by
    ``(fingerprint, mode)``.

    A hit means the whole rewriting search (and economical selection) is
    skipped; the plan's own stamp (``plan.token``) is used at insertion so a
    plan compiled against an older database state can never be returned.
    """

    def store(self, key: Hashable, plan: CitationPlan) -> None:
        """Insert *plan* stamped with the token it was compiled under."""
        self.put(key, plan, plan.token)
