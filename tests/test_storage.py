from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netkvcache.storage import (
    CacheStore,
    Hit,
    Miss,
    Policy,
    PutOutcome,
    canonical_key,
)


def k(i) -> bytes:
    return canonical_key(i)


def fill(store: CacheStore, key, body: bytes) -> PutOutcome:
    result = store.get(key)
    assert isinstance(result, Miss)
    return store.put(key, body, result.token)


# -- canonical keys ------------------------------------------------------------


def test_canonical_keys_distinguish_types():
    assert canonical_key(42) == canonical_key(42.0) != canonical_key(42.5)
    assert canonical_key(42) != canonical_key("42")
    assert canonical_key(1) != canonical_key(True)
    assert canonical_key(0) != canonical_key(False)
    assert canonical_key(None) is not None


def test_canonical_keys_equal_iff_value_equal():
    rng = random.Random(1)
    values = [rng.randint(-(2**40), 2**40) for _ in range(200)]
    for a in values[:50]:
        for b in values[:50]:
            assert (canonical_key(a) == canonical_key(b)) == (a == b)


def test_integral_doubles_take_the_int_key():
    # A server matches 5.0 and 5 as one _id, so the store must too.
    assert canonical_key(5.0) == canonical_key(5)
    assert canonical_key(-0.0) == canonical_key(0)
    assert canonical_key(float(2**40)) == canonical_key(2**40)
    assert canonical_key(-float(2**63)) == canonical_key(-(2**63))
    assert canonical_key(float(2**63)) not in (None, canonical_key(2**63 - 1))
    assert canonical_key(1.0) != canonical_key(True)
    assert canonical_key(0.0) != canonical_key(False)
    assert canonical_key(float("nan")) is not None


def test_canonical_key_rejects_non_scalars():
    assert canonical_key({"a": 1}) is None
    assert canonical_key([1]) is None
    assert canonical_key(2**70) is None


# -- get / put / invalidate -----------------------------------------------------


def test_empty_store_misses():
    store = CacheStore(capacity=4)
    assert isinstance(store.get(k(1)), Miss)


def test_put_then_get_hits():
    store = CacheStore(capacity=4)
    assert fill(store, k(1), b"v1") is PutOutcome.STORED
    assert store.get(k(1)) == Hit(b"v1")


def test_invalidate_removes_entry():
    store = CacheStore(capacity=4)
    fill(store, k(1), b"v1")
    store.invalidate(k(1))
    assert isinstance(store.get(k(1)), Miss)


def test_noevict_rejects_when_full():
    store = CacheStore(capacity=1)
    assert fill(store, k(1), b"v1") is PutOutcome.STORED
    assert fill(store, k(2), b"v2") is PutOutcome.REJECTED_FULL
    assert store.get(k(1)) == Hit(b"v1")
    assert store.entry_count() == 1


def test_capacity_zero_rejects_everything():
    store = CacheStore(capacity=0, policy=Policy.LRU)
    assert fill(store, k(1), b"v1") is PutOutcome.REJECTED_FULL
    assert store.entry_count() == 0


def test_stale_token_rejected_after_invalidate():
    store = CacheStore(capacity=4)
    result = store.get(k(1))
    store.invalidate(k(1))
    assert store.put(k(1), b"old", result.token) is PutOutcome.REJECTED_STALE
    assert isinstance(store.get(k(1)), Miss)


def test_stale_token_rejected_after_invalidate_all():
    store = CacheStore(capacity=4)
    result = store.get(k(1))
    store.invalidate_all()
    assert store.put(k(1), b"old", result.token) is PutOutcome.REJECTED_STALE


def test_invalidate_absent_key_bumps_epoch_only():
    store = CacheStore(capacity=4)
    token_before = store.get(k(1)).token
    store.invalidate(k(1))
    token_after = store.get(k(1)).token
    assert token_after[0] == token_before[0] + 1
    assert store.entry_count() == 0


def test_epoch_table_stays_bounded_and_a_fill_missed_before_its_clear_is_stale():
    store = CacheStore(capacity=4)
    before = store.get(k(-1)).token  # a miss whose fill is still in flight
    peak = 0
    for i in range(200_000):  # distinct keys, so each adds an epoch entry
        store.invalidate(k(i))
        peak = max(peak, len(store._epochs))
    assert peak <= 1 << 16
    assert store.put(k(-1), b"old", before) is PutOutcome.REJECTED_STALE
    assert fill(store, k(-1), b"new") is PutOutcome.STORED
    assert store.get(k(-1)) == Hit(b"new")
    store.invalidate_all()  # its global-epoch bump rejects every older token
    assert not store._epochs


def test_invalidate_all_clears_and_counts_removed():
    store = CacheStore(capacity=10)
    for i in range(5):
        fill(store, k(i), b"v")
    store.invalidate_all()
    assert store.entry_count() == 0
    assert store.snapshot_stats().invalidations == 5


def test_overwrite_fill_same_key_is_stored():
    store = CacheStore(capacity=1)
    fill(store, k(1), b"v1")
    store.invalidate(k(1))
    assert fill(store, k(1), b"v2") is PutOutcome.STORED
    assert store.get(k(1)) == Hit(b"v2")


# -- eviction policies ----------------------------------------------------------


def test_fifo_evicts_oldest_insertion():
    store = CacheStore(capacity=2, policy=Policy.FIFO)
    fill(store, k(1), b"v1")
    fill(store, k(2), b"v2")
    store.get(k(1))  # a hit must not save key 1 under FIFO
    assert fill(store, k(3), b"v3") is PutOutcome.STORED
    assert isinstance(store.get(k(1)), Miss)
    assert store.get(k(2)) == Hit(b"v2")


def test_lru_evicts_least_recently_used():
    store = CacheStore(capacity=2, policy=Policy.LRU)
    fill(store, k(1), b"v1")
    fill(store, k(2), b"v2")
    store.get(k(1))  # the hit refreshes key 1
    assert fill(store, k(3), b"v3") is PutOutcome.STORED
    assert store.get(k(1)) == Hit(b"v1")
    assert isinstance(store.get(k(2)), Miss)


def test_noevict_steady_state_keeps_first_distinct_keys():
    rng = random.Random(6)
    store = CacheStore(capacity=5)
    keys = [rng.randint(1, 30) for _ in range(500)]
    first_distinct: list[int] = []
    for key in keys:
        if key not in first_distinct and len(first_distinct) < 5:
            first_distinct.append(key)
        result = store.get(k(key))
        if isinstance(result, Miss):
            store.put(k(key), b"v", result.token)
    assert sorted(store.resident_keys()) == sorted(k(i) for i in first_distinct)


# -- statistics ------------------------------------------------------------------


def test_fresh_store_has_zero_stats():
    stats = CacheStore(capacity=1).snapshot_stats()
    assert vars(stats) == {
        "hits": 0, "misses": 0, "bypasses": 0,
        "invalidations": 0, "fills": 0, "rejected_fills": 0,
    }


def test_miss_fill_hit_counts():
    store = CacheStore(capacity=1)
    fill(store, k(1), b"v")
    store.get(k(1))
    stats = store.snapshot_stats()
    assert (stats.hits, stats.misses, stats.fills) == (1, 1, 1)


def test_snapshot_is_a_copy():
    store = CacheStore(capacity=1)
    snap = store.snapshot_stats()
    store.get(k(1))
    assert snap.misses == 0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4),
    st.sampled_from(list(Policy)),
    st.lists(
        st.tuples(st.sampled_from(["get_fill", "get", "invalidate", "invalidate_all", "bypass"]),
                  st.integers(1, 8)),
        max_size=60,
    ),
)
# LRU past capacity, with hits, evictions and an invalidation among the fills.
@example(3, Policy.LRU, [("get_fill", key) for key in (1, 2, 3, 1, 4, 5, 1, 6, 2, 7, 8, 1)]
         + [("invalidate", 1), ("get_fill", 3), ("get", 1), ("get_fill", 1)])
def test_invariants_under_random_op_sequences(capacity, policy, ops):
    store = CacheStore(capacity=capacity, policy=policy)
    gets = puts = bypasses = 0
    for op, key in ops:
        if op == "get_fill":
            gets += 1
            result = store.get(k(key))
            if isinstance(result, Miss):
                puts += 1
                store.put(k(key), b"v", result.token)
        elif op == "get":
            gets += 1
            store.get(k(key))
        elif op == "invalidate":
            store.invalidate(k(key))
        elif op == "invalidate_all":
            store.invalidate_all()
        else:
            bypasses += 1
            store.record_bypass()
        assert store.entry_count() <= capacity
    stats = store.snapshot_stats()
    assert stats.hits + stats.misses == gets
    assert stats.fills + stats.rejected_fills == puts
    assert stats.bypasses == bypasses


# -- epoch safety: exhaustive interleavings --------------------------------------


def expected_fill_stored(order: tuple[str, ...]) -> bool:
    # The fill lands iff no invalidation separates the miss from the fill.
    return order.index("invalidate") not in range(order.index("miss") + 1, order.index("fill"))


@pytest.mark.parametrize("wipe", ["invalidate", "invalidate_all"])
def test_all_interleavings_of_miss_invalidate_fill(wipe):
    events = ("miss", "invalidate", "fill")
    for order in itertools.permutations(events):
        if order.index("miss") > order.index("fill"):
            continue
        store = CacheStore(capacity=4)
        token = None
        outcome = None
        for event in order:
            if event == "miss":
                result = store.get(k(1))
                assert isinstance(result, Miss)
                token = result.token
            elif event == "invalidate":
                store.invalidate(k(1)) if wipe == "invalidate" else store.invalidate_all()
            else:
                outcome = store.put(k(1), b"v", token)
        stored = outcome is PutOutcome.STORED
        assert stored == expected_fill_stored(order), order
        # Whatever the path, an invalidation after the fill leaves a miss.
        if order.index("invalidate") > order.index("fill"):
            assert isinstance(store.get(k(1)), Miss)
