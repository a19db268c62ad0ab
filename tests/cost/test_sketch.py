"""Unit tests for the tile sketch features (:mod:`repro.cost.sketch`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.sketch import (
    DEFAULT_BUCKETS,
    DEFAULT_PCA_DIMS,
    SKETCH_KINDS,
    bucket_means,
    pca_axes,
    sketch_features,
)
from repro.exceptions import ValidationError


@pytest.fixture(scope="module")
def features(  # deterministic, structured enough for PCA to be non-trivial
) -> np.ndarray:
    grid = np.linspace(0, 255, 20 * 64).reshape(20, 64)
    return (grid + 17 * np.sin(np.arange(64))[None, :]).astype(np.float64)


def test_kinds_constant():
    assert SKETCH_KINDS == ("mean", "pyramid", "pca")


@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_shapes_and_finiteness(features, kind):
    out = sketch_features(features, kind)
    assert out.shape[0] == features.shape[0]
    assert out.ndim == 2
    assert np.isfinite(out).all()


def test_unknown_kind_rejected(features):
    with pytest.raises(ValidationError, match="sketch"):
        sketch_features(features, "wavelet")


def test_mean_sketch_is_bucketed_means(features):
    out = sketch_features(features, "mean", buckets=4)
    assert out.shape == (features.shape[0], 4)
    np.testing.assert_allclose(out, bucket_means(features, 4))
    # Bucket means of a constant row are that constant.
    const = np.full((1, 64), 42.0)
    np.testing.assert_allclose(bucket_means(const, 4), 42.0)


def test_bucket_count_caps_at_feature_width():
    narrow = np.arange(6, dtype=np.float64).reshape(2, 3)
    out = bucket_means(narrow, DEFAULT_BUCKETS)
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out, narrow)


def test_pyramid_sketch_coarsens_progressively(features):
    out = sketch_features(features, "pyramid")
    # The first component is the global mean — the coarsest level.
    np.testing.assert_allclose(out[:, 0], features.mean(axis=1))


def test_pca_sketch_dims(features):
    out = sketch_features(features, "pca", dims=3)
    assert out.shape == (features.shape[0], 3)
    full = sketch_features(features, "pca")
    assert full.shape[1] <= DEFAULT_PCA_DIMS


def test_pca_shared_basis_embeds_both_stacks_consistently(features):
    """Sketching two stacks against one shared basis keeps their
    cross-distances meaningful: sketching a stack against itself as the
    basis equals plain PCA sketching."""
    shared = sketch_features(features, "pca", basis_features=features)
    plain = sketch_features(features, "pca")
    np.testing.assert_allclose(shared, plain, atol=1e-9)

    other = features[::-1] * 0.5
    basis = np.concatenate([features, other], axis=0)
    a = sketch_features(features, "pca", basis_features=basis)
    b = sketch_features(other, "pca", basis_features=basis)
    assert a.shape[1] == b.shape[1]  # one space, comparable distances


def test_sketches_preserve_identical_tiles(features):
    """Two identical feature rows sketch to identical vectors (distance
    zero) for every kind — the property shortlisting relies on."""
    doubled = np.concatenate([features[:1], features[:1], features])
    for kind in SKETCH_KINDS:
        out = sketch_features(doubled, kind)
        np.testing.assert_allclose(out[0], out[1])


def test_sketch_dim_is_much_smaller_than_features(rng):
    wide = rng.normal(size=(32, 4096))
    for kind in SKETCH_KINDS:
        out = sketch_features(wide, kind)
        assert out.shape[1] <= 64


def _eigh_pca(basis: np.ndarray, features: np.ndarray, dims: int) -> np.ndarray:
    """The covariance-``eigh`` PCA sketch, written out as the reference."""
    mean = basis.mean(axis=0, keepdims=True)
    centered = basis - mean
    _, vecs = np.linalg.eigh(centered.T @ centered)
    axes = vecs[:, ::-1][:, :dims]
    signs = np.sign(axes[np.abs(axes).argmax(axis=0), np.arange(dims)])
    signs[signs == 0] = 1.0
    return (features - mean) @ (axes * signs)


def test_pca_with_more_rows_than_features_is_the_eigh_fit(features, rng):
    """N >= F keeps the covariance ``eigh`` arithmetic bit for bit."""
    tall = np.concatenate([features, features[::-1] * 0.5 + 3.0], axis=0)
    tall = np.concatenate([tall, tall + rng.normal(size=tall.shape)], axis=0)
    assert tall.shape[0] >= tall.shape[1]
    np.testing.assert_array_equal(
        sketch_features(tall, "pca"), _eigh_pca(tall, tall, DEFAULT_PCA_DIMS)
    )
    np.testing.assert_array_equal(
        sketch_features(features, "pca", basis_features=tall),
        _eigh_pca(tall, features, DEFAULT_PCA_DIMS),
    )


def test_pca_with_fewer_rows_than_features_matches_eigh(rng):
    """N < F fits the axes by thin SVD of the centred rows: the same
    leading directions and signs as the covariance ``eigh``, up to
    rounding, without forming the F x F covariance."""
    wide = rng.normal(size=(12, 40))
    np.testing.assert_allclose(
        sketch_features(wide, "pca", dims=5), _eigh_pca(wide, wide, 5), atol=1e-9
    )
    mean, axes = pca_axes(rng.normal(size=(3, 40)))
    assert mean.shape == (1, 40)
    assert axes.shape == (40, 3)  # capped at the number of rows
