"""Tests for the content-addressed artifact cache."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.service.cache import (
    ArtifactCache,
    error_matrix_key,
    image_fingerprint,
    tile_grid_key,
)


class TestFingerprints:
    def test_content_addressed(self, rng):
        image = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        assert image_fingerprint(image) == image_fingerprint(image.copy())

    def test_different_content_differs(self, rng):
        a = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        b = a.copy()
        b[0, 0] ^= 0xFF
        assert image_fingerprint(a) != image_fingerprint(b)

    def test_shape_matters(self):
        flat = np.zeros(256, dtype=np.uint8).reshape(16, 16)
        tall = np.zeros(256, dtype=np.uint8).reshape(32, 8)
        assert image_fingerprint(flat) != image_fingerprint(tall)

    def test_dtype_matters(self):
        # Same shape, same raw bytes (all zero), different dtype.
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.int8)
        assert image_fingerprint(a) != image_fingerprint(b)

    def test_key_schemes_disjoint(self):
        assert tile_grid_key("abc", 8) != error_matrix_key("abc", "abc", 8, "sad")

    def test_transform_flag_changes_matrix_key(self):
        plain = error_matrix_key("a", "b", 8, "sad", allow_transforms=False)
        dihedral = error_matrix_key("a", "b", 8, "sad", allow_transforms=True)
        assert plain != dihedral


class TestLookupAndStats:
    def test_miss_then_hit(self):
        cache = ArtifactCache(max_bytes=1 << 20)
        assert cache.get("k") is None
        cache.put("k", np.arange(10))
        assert (cache.get("k") == np.arange(10)).all()
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_get_or_compute_computes_once(self):
        cache = ArtifactCache(max_bytes=1 << 20)
        calls = []

        def compute():
            calls.append(1)
            return np.ones(4)

        first = cache.get_or_compute("k", compute)
        second = cache.get_or_compute("k", compute)
        assert (first == second).all()
        assert len(calls) == 1

    def test_contains_does_not_touch_stats(self):
        cache = ArtifactCache(max_bytes=1 << 20)
        cache.put("k", np.ones(2))
        assert cache.contains("k")
        assert not cache.contains("other")
        stats = cache.stats
        assert stats.hits == 0 and stats.misses == 0

    def test_clear(self):
        cache = ArtifactCache(max_bytes=1 << 20)
        cache.put("k", np.ones(8))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.current_bytes == 0


class TestEviction:
    def test_lru_eviction_respects_budget(self):
        cache = ArtifactCache(max_bytes=3000)
        for i in range(4):
            cache.put(f"k{i}", np.zeros(128, dtype=np.float64))  # 1024 B each
        assert cache.stats.current_bytes <= 3000
        assert cache.stats.evictions >= 1
        assert not cache.contains("k0")  # oldest went first
        assert cache.contains("k3")

    def test_get_refreshes_lru_order(self):
        cache = ArtifactCache(max_bytes=2100)
        cache.put("a", np.zeros(128))  # 1024 B
        cache.put("b", np.zeros(128))
        cache.get("a")  # refresh: now b is the LRU entry
        cache.put("c", np.zeros(128))
        assert cache.contains("a")
        assert not cache.contains("b")

    def test_oversized_entry_admitted_alone(self):
        cache = ArtifactCache(max_bytes=100)
        cache.put("big", np.zeros(1000))
        assert cache.contains("big")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactCache(max_bytes=0)

    def test_evicted_entry_is_recomputed(self):
        cache = ArtifactCache(max_bytes=2100)
        cache.put("a", np.zeros(128))
        cache.put("b", np.zeros(128))
        cache.put("c", np.zeros(128))  # evicts "a"
        assert cache.get("a") is None
        assert cache.get_or_compute("a", lambda: np.ones(128))[0] == 1


class TestConcurrency:
    def test_hammering_from_threads_is_consistent(self):
        cache = ArtifactCache(max_bytes=64 << 10)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(200):
                    key = f"k{(seed * 7 + i) % 23}"
                    value = cache.get_or_compute(
                        key, lambda k=key: np.full(16, hash(k) % 251)
                    )
                    expected = np.full(16, hash(key) % 251)
                    assert (value == expected).all()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats
        assert stats.hits + stats.misses == 8 * 200
