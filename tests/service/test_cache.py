"""Unit tests for the query-sketch LRU result cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import SketchLRUCache, pack_entry, read_content_key, unpack_entry
from repro.service.cache import pack_entries


def entry(n: int) -> int:
    return pack_entry(n, n + 1, n + 2, n + 3)


class TestPackedEntry:
    """A cached mapping is one int: every field survives the round trip."""

    TRIALS = 64

    def test_fields_round_trip_at_their_bounds(self):
        subjects = (-1, 0, 1, 2**31 - 2, 2**31 - 1)
        for prefix in subjects:
            for suffix in subjects:
                for hits in range(self.TRIALS + 1):
                    fields = (prefix, hits, suffix, self.TRIALS - hits)
                    assert unpack_entry(pack_entry(*fields)) == fields

    def test_entries_packed_from_result_arrays_equal_the_per_read_pack(self):
        rng = np.random.default_rng(7)
        subject = rng.integers(-1, 2**31, size=2 * 50)
        subject[:4] = (-1, 2**31 - 1, 2**31 - 1, -1)
        hits = rng.integers(0, self.TRIALS + 1, size=subject.size)
        hits[:4] = (0, self.TRIALS, 0, self.TRIALS)
        packed = pack_entries(subject, hits)
        assert packed == [
            pack_entry(int(subject[j]), int(hits[j]), int(subject[j + 1]), int(hits[j + 1]))
            for j in range(0, subject.size, 2)
        ]
        assert all(type(p) is int for p in packed)

    def test_an_unmapped_read_is_a_hit_not_a_miss(self):
        cache = SketchLRUCache(2)
        cache.put(b"k", pack_entry(-1, 0, -1, 0))  # packs to 0
        assert cache.get(b"k") == 0 and cache.hits == 1


class TestContentKey:
    def test_same_segments_same_key(self):
        a = np.array([0, 1, 2, 3], dtype=np.uint8)
        b = np.array([3, 2, 1], dtype=np.uint8)
        assert read_content_key(a, b) == read_content_key(a.copy(), b.copy())

    def test_key_ignores_read_name_by_construction(self):
        # keys are pure content: two differently named duplicate reads collide
        a = np.array([0, 1, 2], dtype=np.uint8)
        assert read_content_key(a, a) == read_content_key(a, a)

    def test_boundary_is_not_ambiguous(self):
        # ("ab", "c") must not equal ("a", "bc")
        ab = np.array([0, 1], dtype=np.uint8)
        a = np.array([0], dtype=np.uint8)
        b = np.array([1], dtype=np.uint8)
        c = np.array([2], dtype=np.uint8)
        bc = np.array([1, 2], dtype=np.uint8)
        assert read_content_key(ab, c) != read_content_key(a, bc)

    def test_key_is_hashlib_blake2b_of_the_framed_segments(self):
        """The key is BLAKE2b-128 of prefix, separator, suffix — whichever
        module the cache takes the hash from — so keys and hits match any
        process that keys reads with ``hashlib``."""
        import hashlib

        def expected(prefix, suffix) -> bytes:
            framed = bytes(prefix.tolist()) + b"\x00|\x00" + bytes(suffix.tolist())
            return hashlib.blake2b(framed, digest_size=16).digest()

        rng = np.random.default_rng(33)
        pairs = [
            (rng.integers(0, 4, size=int(n), dtype=np.uint8),
             rng.integers(0, 4, size=int(m), dtype=np.uint8))
            for n, m in rng.integers(0, 3_000, size=(20, 2))
        ]
        empty = np.zeros(0, dtype=np.uint8)
        one = np.array([2], dtype=np.uint8)
        codes = rng.integers(0, 4, size=4_001, dtype=np.uint8)
        strided = codes[::3]  # a non-contiguous uint8 view
        assert not strided.flags.c_contiguous
        pairs += [
            (empty, empty), (empty, one), (one, empty), (one, one),
            (strided, codes[1::7]), (codes[::-1], strided),
        ]
        for prefix, suffix in pairs:
            assert read_content_key(prefix, suffix) == expected(prefix, suffix)

    def test_module_keys_reads_without_hashlib(self):
        """``hashlib`` imports ``_hashlib`` — OpenSSL — for a hash ``_blake2``
        already provides: the cache must not be what maps it into a server."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys, repro.service.cache; "
            "sys.exit(sorted({'hashlib', '_hashlib'} & set(sys.modules)) or 0)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr


class TestSketchLRUCache:
    def test_put_get_roundtrip(self):
        cache = SketchLRUCache(4)
        cache.put(b"k1", entry(1))
        assert cache.get(b"k1") == entry(1)
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = SketchLRUCache(4)
        assert cache.get(b"nope") is None
        assert cache.misses == 1
        assert cache.hit_ratio == 0.0

    def test_lru_eviction_order(self):
        cache = SketchLRUCache(2)
        cache.put(b"a", entry(1))
        cache.put(b"b", entry(2))
        assert cache.get(b"a") is not None  # refresh a; b is now LRU
        cache.put(b"c", entry(3))
        assert cache.get(b"b") is None  # evicted
        assert cache.get(b"a") is not None
        assert cache.get(b"c") is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_update_moves_to_front(self):
        cache = SketchLRUCache(2)
        cache.put(b"a", entry(1))
        cache.put(b"b", entry(2))
        cache.put(b"a", entry(9))  # update refreshes recency
        cache.put(b"c", entry(3))
        assert cache.get(b"b") is None
        assert cache.get(b"a") == entry(9)

    def test_capacity_zero_disables(self):
        cache = SketchLRUCache(0)
        cache.put(b"a", entry(1))
        assert cache.get(b"a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SketchLRUCache(-1)

    def test_clear(self):
        cache = SketchLRUCache(4)
        cache.put(b"a", entry(1))
        cache.clear()
        assert cache.get(b"a") is None
