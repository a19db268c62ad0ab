"""The sparse 2-opt polish is skipped after a certified-optimal warm start.

Sparse ``parallel``/``approximation`` runs warm-start 2-opt from
``solve_sparse``, which solves the sentinel-filled densification of the
shortlist — the very matrix the candidate-restricted sweeps then read.
When that inner solve is exact (``meta["sparse"]["filled_optimal"]``),
no swap can strictly improve the warm start, so
``PhotomosaicGenerator.rearrange`` returns it without sweeping.  This
suite pins that precondition for every registered solver that reports
``optimal=True``: running the polish anyway makes zero swaps and hands
the warm start back, also on shortlists that leave fallback rows.  A
``greedy`` warm start is not certified and still gets polished.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment import get_solver
from repro.assignment.base import available_solvers
from repro.cost import error_matrix, sparse_error_matrix
from repro.cost.base import get_metric
from repro.cost.sparse import SparseErrorMatrix
from repro.imaging import standard_image
from repro.localsearch import local_search_parallel, local_search_serial
from repro.mosaic.config import MosaicConfig
from repro.mosaic.generator import PhotomosaicGenerator
from repro.tiles.grid import TileGrid

_PROBE = np.array([[3, 1, 2], [2, 3, 1], [1, 2, 3]], dtype=np.int64)

#: Registered solvers whose dense solve certifies optimality.
EXACT_SOLVERS = tuple(
    name for name in available_solvers() if get_solver(name).solve(_PROBE).optimal
)


def _random_tiles(s: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    tiles = rng.integers(0, 256, size=(2, s, 4, 4), dtype=np.uint8)
    return tiles[0], tiles[1]


def _fallback_instance() -> SparseErrorMatrix:
    """Every input tile is dark and only two positions are: each row's
    two-wide shortlist names the same two positions, so all but two rows
    fall back to off-shortlist placements."""
    rng = np.random.default_rng(3)
    inputs = rng.integers(0, 30, size=(36, 4, 4), dtype=np.uint8)
    targets = np.full((36, 4, 4), 255, dtype=np.uint8)
    targets[[5, 17]] = 0
    metric = get_metric("sad")
    return SparseErrorMatrix.from_dense(
        error_matrix(inputs, targets),
        2,
        features_in=metric.prepare(inputs),
        features_tg=metric.prepare(targets),
    )


@pytest.fixture(scope="module")
def instances() -> dict[str, SparseErrorMatrix]:
    portrait = standard_image("portrait", 64)
    sailboat = standard_image("sailboat", 64)
    grid = TileGrid.for_image(portrait, 8)
    return {
        "tiny-7": sparse_error_matrix(*_random_tiles(7, 0), top_k=3, seed=1),
        "random-49": sparse_error_matrix(*_random_tiles(49, 1), top_k=4, seed=2),
        "portrait-64": sparse_error_matrix(
            grid.split(portrait), grid.split(sailboat), top_k=8, seed=4
        ),
        "fallback-36": _fallback_instance(),
    }


def test_exact_solvers_are_found():
    assert {"scipy", "hungarian", "jv", "auction"} <= set(EXACT_SOLVERS)
    assert "greedy" not in EXACT_SOLVERS


def test_fallback_instance_has_fallback_rows(instances):
    result = get_solver("scipy").solve_sparse(instances["fallback-36"])
    assert result.meta["sparse"]["fallback"] == 34


#: Brute force enumerates all S! permutations, so it gets the tiny case.
CASES = [
    (name, instance)
    for name in EXACT_SOLVERS
    for instance in ("tiny-7", "random-49", "portrait-64", "fallback-36")
    if name != "bruteforce" or instance == "tiny-7"
]


@pytest.mark.parametrize("name,instance", CASES)
def test_polish_after_exact_warm_start_is_a_no_op(instances, name, instance):
    sparse = instances[instance]
    warm = get_solver(name).solve_sparse(sparse)
    assert warm.meta["sparse"]["filled_optimal"] is True
    filled, mask = sparse.to_dense(), sparse.mask()
    for polished in (
        local_search_parallel(filled, warm.permutation, candidates=mask),
        local_search_serial(filled, warm.permutation, candidates=mask),
    ):
        assert polished.trace.total_swaps == 0
        np.testing.assert_array_equal(polished.permutation, warm.permutation)


def test_greedy_warm_start_is_not_certified(instances):
    warm = get_solver("greedy").solve_sparse(instances["portrait-64"])
    assert warm.meta["sparse"]["filled_optimal"] is False


def _generate(algorithm: str, solver: str, observer=None):
    config = MosaicConfig(
        tile_size=8,
        algorithm=algorithm,
        solver=solver,
        shortlist_top_k=8,
        shortlist_seed=4,
    )
    return PhotomosaicGenerator(config).generate(
        standard_image("portrait", 64),
        standard_image("sailboat", 64),
        observer=observer,
    )


@pytest.mark.parametrize("algorithm", ["parallel", "approximation"])
def test_exact_warm_start_skips_the_polish(algorithm):
    events = []
    result = _generate(algorithm, "scipy", lambda kind, _: events.append(kind))
    assert result.trace is None
    assert result.meta["polish"] == "skipped"
    assert result.meta["warm_start"] == "scipy-sparse"
    assert "sweep" not in events
    # The same computation as sparse exact matching.
    optimization = _generate("optimization", "scipy")
    np.testing.assert_array_equal(result.permutation, optimization.permutation)
    assert result.total_error == optimization.total_error


@pytest.mark.parametrize("algorithm", ["parallel", "approximation"])
def test_greedy_warm_start_is_still_polished(algorithm):
    events = []
    result = _generate(algorithm, "greedy", lambda kind, _: events.append(kind))
    assert result.trace is not None and result.trace.sweeps >= 1
    assert "polish" not in result.meta
    assert result.meta["warm_start"] == "greedy-sparse"
    assert events.count("sweep") == result.trace.sweeps
