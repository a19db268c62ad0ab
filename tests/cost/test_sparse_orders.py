"""Blocked preference orders vs the per-row reference loop.

``_preference_orders`` was rewritten from a per-input-tile Python loop
(one centroid ranking, one head ``lexsort`` and one ``lexsort`` per
remaining cluster, for every row) to blocked array ops: per block of
rows, a stable argsort by sketch distance, then a stable argsort by a
per-position group key (0 for head clusters, else the cluster's rank).
The rewrite must be **bit-identical** — the degree-capped selection,
the ``sparse-2opt-256`` golden and the 1-vs-3-node digests all read
these orders.  This suite keeps the original loop as an executable
specification and diffs the two across sketch kinds, sizes, cluster
counts, block sizes that do not divide ``S``, and duplicated sketches
whose distance ties must break on position.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cost.sparse as sparse_module
from repro.cost.base import get_metric
from repro.cost.sketch import SKETCH_KINDS, pca_axes, sketch_features
from repro.cost.sparse import _preference_orders


def _reference_orders(
    sketch_in: np.ndarray,
    sketch_tg: np.ndarray,
    *,
    clusters: int,
    probes: int,
    head_width: int,
    seed: int | None,
) -> tuple[np.ndarray, int]:
    """The pre-blocking per-row loop, kept as the specification."""
    from repro.library.shortlist import kmeans

    def sq_dist_rows(point, others):
        diff = others - point[None, :]
        return np.einsum("nf,nf->n", diff, diff)

    s = sketch_tg.shape[0]
    if clusters == 0:
        clusters = max(1, int(round(s**0.5)))
    clusters = min(clusters, s)
    centroids, labels = kmeans(sketch_tg, clusters, seed=seed)
    members = [np.flatnonzero(labels == c) for c in range(clusters)]
    probes = max(1, min(probes, clusters))
    orders = np.empty((s, s), dtype=np.int64)
    for u in range(s):
        cluster_rank = np.argsort(
            sq_dist_rows(sketch_in[u], centroids), kind="stable"
        )
        head_count = 0
        covered = 0
        for rank, c in enumerate(cluster_rank):
            covered += members[c].size
            head_count = rank + 1
            if head_count >= probes and covered >= head_width:
                break
        parts = []
        head = np.concatenate([members[c] for c in cluster_rank[:head_count]])
        dist = sq_dist_rows(sketch_in[u], sketch_tg[head])
        parts.append(head[np.lexsort((head, dist))])
        for c in cluster_rank[head_count:]:
            m = members[c]
            dist = sq_dist_rows(sketch_in[u], sketch_tg[m])
            parts.append(m[np.lexsort((m, dist))])
        orders[u] = np.concatenate(parts)
    return orders, clusters


def _sketches(s: int, kind: str, seed: int, duplicates: bool = False):
    """Sketches of random 4x4 tiles, as ``sparse_error_matrix`` makes them.

    With ``duplicates`` a third of the tiles on each side are copies of
    two constant tiles, so many sketch distances tie exactly.
    """
    rng = np.random.default_rng(seed)
    tiles = rng.integers(0, 256, size=(2, s, 4, 4), dtype=np.uint8)
    if duplicates:
        for side in tiles:
            copies = rng.choice(s, size=max(1, s // 3), replace=False)
            side[copies] = np.where(copies % 2 == 0, 40, 200)[:, None, None]
    metric = get_metric("sad")
    fin, ftg = metric.prepare(tiles[0]), metric.prepare(tiles[1])
    if kind == "pca":
        mean, axes = pca_axes(np.concatenate([fin, ftg], axis=0))
        return (fin - mean) @ axes, (ftg - mean) @ axes
    return sketch_features(fin, kind), sketch_features(ftg, kind)


def _assert_matches(monkeypatch, sketch_in, sketch_tg, **kwargs):
    """Blocked orders equal the reference at the default block size and
    at 1- and 3-row blocks (3 divides none of the tested sizes)."""
    expected, expected_clusters = _reference_orders(sketch_in, sketch_tg, **kwargs)
    s, f = sketch_tg.shape
    default = sparse_module._ORDER_BLOCK_ELEMENTS
    for elements in (default, s * f, 3 * s * f):
        monkeypatch.setattr(sparse_module, "_ORDER_BLOCK_ELEMENTS", elements)
        orders, n_clusters = _preference_orders(sketch_in, sketch_tg, **kwargs)
        assert n_clusters == expected_clusters
        np.testing.assert_array_equal(orders, expected)


# One cluster per position is the reference loop's slowest case; at
# S=256 one sketch kind covers it.
CASES = [
    (kind, s, clusters)
    for kind in SKETCH_KINDS
    for s in (1, 2, 37, 256)
    for clusters in ("auto", "one", "all")
    if not (clusters == "all" and s == 256 and kind != "mean")
]


@pytest.mark.parametrize("kind,s,clusters", CASES)
def test_matches_reference(monkeypatch, kind, s, clusters):
    n_clusters = {"auto": 0, "one": 1, "all": s}[clusters]
    sketch_in, sketch_tg = _sketches(s, kind, seed=s)
    _assert_matches(
        monkeypatch,
        sketch_in,
        sketch_tg,
        clusters=n_clusters,
        probes=2,
        head_width=min(s, 8 * max(1, s // 16)),
        seed=3,
    )


@pytest.mark.parametrize("kind", SKETCH_KINDS)
@pytest.mark.parametrize("s", [2, 37, 256])
def test_matches_reference_with_tied_distances(monkeypatch, kind, s):
    """Constant tiles sketch identically: ties break on position."""
    sketch_in, sketch_tg = _sketches(s, kind, seed=7, duplicates=True)
    _assert_matches(
        monkeypatch,
        sketch_in,
        sketch_tg,
        clusters=0,
        probes=2,
        head_width=min(s, 32),
        seed=5,
    )


@pytest.mark.parametrize("s", [2, 37])
def test_probes_beyond_cluster_count(monkeypatch, s):
    """``probes`` above the cluster count caps at it: every cluster is
    head, so each row is one distance-ordered ranking."""
    sketch_in, sketch_tg = _sketches(s, "mean", seed=11)
    _assert_matches(
        monkeypatch,
        sketch_in,
        sketch_tg,
        clusters=4 if s > 4 else 1,
        probes=50,
        head_width=1,
        seed=1,
    )


@pytest.mark.parametrize("s", [2, 37, 256])
def test_head_covering_every_position(monkeypatch, s):
    """``head_width = S`` widens the head over all clusters."""
    sketch_in, sketch_tg = _sketches(s, "pyramid", seed=13, duplicates=True)
    _assert_matches(
        monkeypatch,
        sketch_in,
        sketch_tg,
        clusters=0,
        probes=1,
        head_width=s,
        seed=2,
    )


def test_orders_are_full_permutations():
    sketch_in, sketch_tg = _sketches(37, "mean", seed=17, duplicates=True)
    orders, _ = _preference_orders(
        sketch_in, sketch_tg, clusters=0, probes=2, head_width=8, seed=0
    )
    np.testing.assert_array_equal(
        np.sort(orders, axis=1), np.tile(np.arange(37), (37, 1))
    )
