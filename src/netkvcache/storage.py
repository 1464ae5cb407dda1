"""Capacity-bounded key-value response store with write-invalidate coherence.

Keys are canonical byte encodings of scalar values, so two lookups agree
exactly when their encodings are byte-equal. Each key carries an epoch
counter, bumped on every invalidation; a fill must present the epoch
token it obtained at miss time, which rejects any fill that an
invalidation overtook while the server round trip was in flight. The
epoch table is cleared, with a global-epoch bump that rejects only the
fills then in flight, when it reaches ``MAX_EPOCH_KEYS`` keys.

A store has one owner, the thread that runs the proxy, and takes no
lock. Other threads read it only once the proxy has stopped: the join in
``stop`` orders every write of the loop thread before those reads.
"""

from __future__ import annotations

import enum
import struct
from collections import OrderedDict
from types import SimpleNamespace
from typing import Any, NamedTuple

CacheKey = bytes
FillToken = tuple[int, int]  # (key epoch, global epoch) at miss time

_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
MAX_EPOCH_KEYS = 1 << 16  # keys with an epoch of their own, at most


def canonical_key(value: Any) -> CacheKey | None:
    """Encode a scalar as type tag + little-endian payload, or None.

    Only scalars participate in key equality; documents, arrays, and
    anything else return None (the request then bypasses the cache).
    A double with an integral value in the int64 range takes the int's
    key, since a server matches ``5.0`` and ``5`` as one ``_id``;
    booleans stay apart from numbers.
    """
    if isinstance(value, bool):
        return b"\x08\x01" if value else b"\x08\x00"
    if isinstance(value, float) and value.is_integer() and -(2**63) <= value < 2**63:
        value = int(value)
    if isinstance(value, int):
        if _I32_MIN <= value <= _I32_MAX:
            return b"\x10" + struct.pack("<i", value)
        if -(2**63) <= value <= 2**63 - 1:
            return b"\x12" + struct.pack("<q", value)
        return None
    if isinstance(value, float):
        return b"\x01" + struct.pack("<d", value)
    if isinstance(value, str):
        return b"\x02" + value.encode("utf-8")
    if value is None:
        return b"\x0a"
    return None


class Policy(enum.Enum):
    """Behavior when a fill arrives at a full store."""

    NOEVICT = "noevict"
    FIFO = "fifo"
    LRU = "lru"


class PutOutcome(enum.Enum):
    STORED = "stored"
    REJECTED_STALE = "rejected_stale"
    REJECTED_FULL = "rejected_full"


class Hit(NamedTuple):
    body: bytes


class Miss(NamedTuple):
    token: FillToken


class CacheStore:
    """Key -> response-body store, kept by one owning thread (see above)."""

    def __init__(self, capacity: int, policy: Policy = Policy.NOEVICT):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.policy = policy
        self._entries: OrderedDict[CacheKey, bytes] = OrderedDict()
        self._epochs: dict[CacheKey, int] = {}
        self._global_epoch = 0
        # The counters, in the order of ``vars`` of a snapshot.
        self._stats = SimpleNamespace(hits=0, misses=0, bypasses=0, invalidations=0,
                                      fills=0, rejected_fills=0)

    def get(self, key: CacheKey) -> Hit | Miss:
        """Look up a key; a miss returns the epoch token for the later fill."""
        body = self._entries.get(key)
        if body is not None:
            self._stats.hits += 1
            if self.policy is Policy.LRU:
                self._entries.move_to_end(key)
            return Hit(body)
        self._stats.misses += 1
        return Miss((self._epochs.get(key, 0), self._global_epoch))

    def put(self, key: CacheKey, body: bytes, token: FillToken) -> PutOutcome:
        """Conditionally store a response captured for an earlier miss.

        Stores only if no invalidation touched the key (or the whole
        store) since the miss that produced ``token``, and only if there
        is room — under NOEVICT a full store rejects the fill, under
        FIFO/LRU one resident entry is evicted to make room.
        """
        key_epoch = self._epochs.get(key, 0)
        if token != (key_epoch, self._global_epoch):
            self._stats.rejected_fills += 1
            return PutOutcome.REJECTED_STALE
        if key not in self._entries and len(self._entries) >= self.capacity:
            if self.policy is Policy.NOEVICT or self.capacity == 0:
                self._stats.rejected_fills += 1
                return PutOutcome.REJECTED_FULL
            self._entries.popitem(last=False)
        self._entries[key] = body
        if self.policy is Policy.LRU:
            self._entries.move_to_end(key)
        self._stats.fills += 1
        return PutOutcome.STORED

    def invalidate(self, key: CacheKey) -> None:
        """Drop a key and bump its epoch, rejecting any in-flight fill."""
        self._entries.pop(key, None)
        if len(self._epochs) >= MAX_EPOCH_KEYS:
            self._epochs.clear()
            self._global_epoch += 1
        self._epochs[key] = self._epochs.get(key, 0) + 1
        self._stats.invalidations += 1

    def invalidate_all(self) -> None:
        """Drop everything and bump the global epoch; the key epochs it outdates go."""
        removed = len(self._entries)
        self._entries.clear()
        self._epochs.clear()
        self._global_epoch += 1
        self._stats.invalidations += removed

    def record_bypass(self) -> None:
        self._stats.bypasses += 1

    def snapshot_stats(self) -> SimpleNamespace:
        """A copy of the counters, by name: ``vars`` of it gives all six."""
        return SimpleNamespace(**vars(self._stats))

    def entry_count(self) -> int:
        return len(self._entries)

    def resident_keys(self) -> list[CacheKey]:
        return list(self._entries.keys())
