"""Tests for error-matrix computation (Step 2)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.cost.base import get_metric
from repro.cost.matrix import error_matrix, total_error, total_error_of_permutation
from repro.cost.reference import error_matrix_reference
from repro.exceptions import ValidationError
from repro.tiles.permutation import random_permutation


class TestErrorMatrix:
    def test_matches_reference(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        vec = error_matrix(tiles_in, tiles_tg)
        ref = error_matrix_reference(tiles_in, tiles_tg)
        assert (vec == ref).all()

    def test_shape_and_dtype(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg)
        assert m.shape == (64, 64)
        assert m.dtype == np.int64

    def test_orientation_row_is_input(self, tile_stacks_8x8):
        """E[u, v] must be error(input u, target v), the paper's w_{u,v}."""
        from repro.cost.sad import SADMetric

        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg)
        metric = SADMetric()
        assert m[3, 5] == metric.tile_error(tiles_in[3], tiles_tg[5])
        assert m[5, 3] == metric.tile_error(tiles_in[5], tiles_tg[3])

    def test_identical_stacks_zero_diagonal(self, tile_stacks_8x8):
        tiles_in, _ = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_in)
        assert (np.diag(m) == 0).all()

    def test_chunking_invariant(self, tile_stacks_8x8):
        """Any chunk budget must give bit-identical results."""
        tiles_in, tiles_tg = tile_stacks_8x8
        full = error_matrix(tiles_in, tiles_tg)
        for budget in (1, 1000, 10**9):
            assert (error_matrix(tiles_in, tiles_tg, chunk_budget=budget) == full).all()

    def test_rejects_bad_chunk_budget(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        with pytest.raises(ValidationError, match="chunk_budget"):
            error_matrix(tiles_in, tiles_tg, chunk_budget=0)

    def test_rejects_mismatched_stacks(self, tile_stacks_8x8):
        tiles_in, _ = tile_stacks_8x8
        with pytest.raises(ValidationError, match="differ"):
            error_matrix(tiles_in, tiles_in[:10])

    @pytest.mark.parametrize("metric", ["sad", "ssd", "luminance"])
    def test_all_metrics_produce_valid_matrices(self, metric, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg, metric)
        assert (m >= 0).all()
        assert m.shape == (64, 64)


#: Every registered metric with the tile kinds it accepts.
METRIC_TILES = [
    ("sad", "grey"),
    ("sad", "colour"),
    ("ssd", "grey"),
    ("ssd", "colour"),
    ("luminance", "grey"),
    ("luminance", "colour"),
    ("color", "colour"),
    ("gradient", "grey"),
]


def _stacks(kind: str, s: int = 37, m: int = 4):
    """Seeded input/target stacks; S = 37 is prime, so no chunk of more
    than one row divides it."""
    rng = np.random.default_rng(12)
    shape = (s, m, m) if kind == "grey" else (s, m, m, 3)
    return (
        rng.integers(0, 256, size=shape, dtype=np.uint8),
        rng.integers(0, 256, size=shape, dtype=np.uint8),
    )


class TestChunkInvariance:
    @pytest.mark.parametrize("metric,kind", METRIC_TILES)
    def test_default_chunks_equal_one_wide_chunk(self, metric, kind):
        """The default (metric-sized) chunking gives what one whole-stack
        ``pairwise`` call gives."""
        tiles_in, tiles_tg = _stacks(kind)
        cost = get_metric(metric)
        wide = cost.pairwise(cost.prepare(tiles_in), cost.prepare(tiles_tg))
        np.testing.assert_array_equal(error_matrix(tiles_in, tiles_tg, metric), wide)

    @pytest.mark.parametrize("metric,kind", METRIC_TILES)
    @pytest.mark.parametrize("rows", [1, 2, 5, 36])
    def test_ragged_last_chunk(self, metric, kind, rows):
        """``rows`` rows per chunk: the last chunk is shorter than the
        scratch the earlier chunks reused."""
        tiles_in, tiles_tg = _stacks(kind)
        budget = rows * get_metric(metric).prepare(tiles_tg).size
        full = error_matrix(tiles_in, tiles_tg, metric, chunk_budget=10**9)
        chunked = error_matrix(tiles_in, tiles_tg, metric, chunk_budget=budget)
        np.testing.assert_array_equal(chunked, full)

    @pytest.mark.parametrize("kind", ["grey", "colour"])
    def test_sad_matches_scalar_reference(self, kind):
        tiles_in, tiles_tg = _stacks(kind)
        np.testing.assert_array_equal(
            error_matrix(tiles_in, tiles_tg),
            error_matrix_reference(tiles_in, tiles_tg),
        )


def test_dense_sad_peak_memory_is_output_plus_scratch():
    """At S=1024 the chunked kernel never holds a wide broadcast block:
    peak traced memory stays below the output plus 16 MiB."""
    rng = np.random.default_rng(3)
    tiles_in = rng.integers(0, 256, size=(1024, 8, 8), dtype=np.uint8)
    tiles_tg = rng.integers(0, 256, size=(1024, 8, 8), dtype=np.uint8)
    tracemalloc.start()
    try:
        matrix = error_matrix(tiles_in, tiles_tg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes + 16 * 2**20


class TestTotalError:
    def test_identity_is_trace(self, small_error_matrix):
        perm = np.arange(small_error_matrix.shape[0])
        assert total_error(small_error_matrix, perm) == int(np.trace(small_error_matrix))

    def test_manual_sum(self, small_error_matrix):
        s = small_error_matrix.shape[0]
        perm = random_permutation(s, seed=11)
        expected = sum(int(small_error_matrix[perm[v], v]) for v in range(s))
        assert total_error(small_error_matrix, perm) == expected

    def test_matches_direct_tile_computation(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg)
        perm = random_permutation(64, seed=5)
        assert total_error(m, perm) == total_error_of_permutation(
            tiles_in, tiles_tg, perm
        )

    def test_direct_computation_chunking(self, tile_stacks_8x8):
        """total_error_of_permutation must agree across its internal slabs."""
        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg)
        for seed in range(3):
            perm = random_permutation(64, seed=seed)
            assert total_error(m, perm) == total_error_of_permutation(
                tiles_in, tiles_tg, perm
            )

    def test_rejects_wrong_size_perm(self, small_error_matrix):
        with pytest.raises(ValidationError):
            total_error(small_error_matrix, np.arange(5))
