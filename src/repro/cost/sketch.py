"""Low-dimensional tile sketches for shortlist pruning.

A *sketch* is a cheap summary of a metric's feature vector — a handful of
floats per tile instead of the full ``F = M*M[*3]`` features — used by the
sparse Step-2 builder (:mod:`repro.cost.sparse`) to shortlist candidate
positions *before* any exact metric evaluation, the "Tight Approximation
of Image Matching" direction from PAPERS.md.

Sketches are computed **from the metric's prepared features**, not from
raw pixels, so whatever normalisation/weighting a metric applies in
:meth:`~repro.cost.base.CostMetric.prepare` is reflected in the sketch
space too (a luminance metric shortlists in luminance space, a colour
metric in its weighted space).

Three kinds:

* ``"mean"`` — contiguous bucket means over the feature axis (for SAD/SSD
  these are row-band means of the tile);
* ``"pyramid"`` — bucket means at three resolutions (1, 4, 16 buckets)
  concatenated, a coarse-to-fine summary;
* ``"pca"`` — projection onto the top principal components of the
  *combined* feature cloud (:func:`pca_axes`, fitted once per cloud),
  computed with deterministic ``eigh`` — or a thin SVD when the cloud
  has fewer rows than features — and a sign convention so repeated
  runs agree.

``"mean"`` and ``"pyramid"`` are pure bucket arithmetic: bit-reproducible
across runs and invariant under permutation of the tile axis (row ``i``
of the sketch depends only on tile ``i``).  ``"pca"`` shares the
invariance only up to float rounding, since the covariance accumulation
order follows the tile order.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["SKETCH_KINDS", "sketch_features", "bucket_means", "pca_axes"]

#: Registered sketch kinds (the ``MosaicConfig.sketch`` knob).
SKETCH_KINDS = ("mean", "pyramid", "pca")

#: Feature-axis buckets for the ``"mean"`` sketch.
DEFAULT_BUCKETS = 16

#: Output dimensionality of the ``"pca"`` sketch.
DEFAULT_PCA_DIMS = 8


def _check_features(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
        raise ValidationError(
            f"sketching needs a non-empty (S, F) feature matrix, got shape "
            f"{features.shape}"
        )
    return features.astype(np.float64, copy=False)


def bucket_means(features: np.ndarray, buckets: int) -> np.ndarray:
    """``(S, buckets)`` means over contiguous feature-axis buckets.

    Bucket boundaries follow :func:`numpy.array_split` semantics (the
    first ``F % buckets`` buckets get one extra element), so the split is
    a pure function of ``(F, buckets)`` and reproducible everywhere.
    """
    features = _check_features(features)
    f = features.shape[1]
    buckets = min(max(1, buckets), f)
    edges = np.linspace(0, f, buckets + 1).astype(np.intp)
    out = np.empty((features.shape[0], buckets), dtype=np.float64)
    for b in range(buckets):
        out[:, b] = features[:, edges[b] : edges[b + 1]].mean(axis=1)
    return out


def pca_axes(
    basis_features: np.ndarray, dims: int = DEFAULT_PCA_DIMS
) -> tuple[np.ndarray, np.ndarray]:
    """Fit the ``"pca"`` sketch basis: ``(mean (1, F), axes (F, D))``.

    A matrix is sketched as ``(features - mean) @ axes``.  The axes are
    the top-``dims`` principal directions of ``basis_features``; with
    ``N`` rows and ``F`` columns, ``D = min(dims, F, N)``.  For
    ``N >= F`` they come from ``eigh`` of the ``F x F`` covariance
    (symmetric, so the decomposition is deterministic for a given
    build); for ``N < F``, from the thin SVD of the centred ``N x F``
    matrix, which spans the same leading directions without forming
    the covariance.  Each axis's sign is fixed by making its
    largest-magnitude coefficient positive — without the convention,
    principal directions are only defined up to sign and restarts could
    disagree.
    """
    basis_features = _check_features(basis_features)
    n, f = basis_features.shape
    dims = min(max(1, dims), f, n)
    mean = basis_features.mean(axis=0, keepdims=True)
    centered = basis_features - mean
    if n >= f:
        _, vecs = np.linalg.eigh(centered.T @ centered)
        # eigh returns ascending eigenvalues; take the trailing columns.
        axes = vecs[:, ::-1][:, :dims]
    else:
        # Singular values come back descending.
        axes = np.linalg.svd(centered, full_matrices=False)[2][:dims].T
    anchor = np.abs(axes).argmax(axis=0)
    signs = np.sign(axes[anchor, np.arange(dims)])
    signs[signs == 0] = 1.0
    return mean, axes * signs


def sketch_features(
    features: np.ndarray,
    kind: str = "mean",
    *,
    buckets: int = DEFAULT_BUCKETS,
    dims: int = DEFAULT_PCA_DIMS,
    basis_features: np.ndarray | None = None,
) -> np.ndarray:
    """Reduce ``(S, F)`` prepared features to an ``(S, D)`` sketch.

    Parameters
    ----------
    features:
        Metric-prepared feature matrix (``CostMetric.prepare`` output).
    kind:
        One of :data:`SKETCH_KINDS`.
    buckets:
        Bucket count for ``"mean"`` (capped at ``F``).
    dims:
        Output dimensionality for ``"pca"`` (capped at ``F`` and at the
        number of basis rows; see :func:`pca_axes`).
    basis_features:
        For ``"pca"`` only: fit the projection basis on this matrix
        instead of ``features``.  To sketch several matrices in one
        space, fit the basis once with :func:`pca_axes` and project each
        (:func:`~repro.cost.sparse.sparse_error_matrix` does so for its
        input and target stacks).
    """
    features = _check_features(features)
    if kind == "mean":
        return bucket_means(features, buckets)
    if kind == "pyramid":
        return np.concatenate(
            [bucket_means(features, b) for b in (1, 4, 16)], axis=1
        )
    if kind == "pca":
        mean, axes = pca_axes(
            features if basis_features is None else basis_features, dims
        )
        if mean.shape[1] != features.shape[1]:
            raise ValidationError(
                f"basis features have width {mean.shape[1]}, "
                f"sketch input has {features.shape[1]}"
            )
        return (features - mean) @ axes
    raise ValidationError(
        f"unknown sketch kind {kind!r} (use one of {SKETCH_KINDS})"
    )
