"""Sum-of-absolute-differences metric — the paper's Eq. (1).

``E(I_u, T_v) = sum_{i,j} |I_u[i,j] - T_v[i,j]|``.  Colour tiles flatten
their channels into the feature vector, which is exactly the "only change
the error function" colour extension the paper sketches in Section II.
"""

from __future__ import annotations

import numpy as np

from repro.cost.base import CostMetric, register_metric
from repro.types import TileStack

__all__ = ["SADMetric"]


@register_metric
class SADMetric(CostMetric):
    """Per-pixel L1 tile error (paper Eq. 1)."""

    name = "sad"

    #: 1 Mi int16 elements (~2 MiB) keeps the scratch block of
    #: :meth:`pairwise_into` cache-resident: ~2x faster than one wide
    #: chunk at S=1024 and S=4096 (docs/performance.md).
    chunk_budget = 1024 * 1024

    def prepare(self, tiles: TileStack) -> np.ndarray:
        tiles = np.asarray(tiles)
        # int16 is the narrowest dtype whose subtraction cannot overflow for
        # uint8 pixels; halving feature width doubles effective cache reach
        # in the pairwise kernel (the guides' cache-effects rule).
        return tiles.reshape(tiles.shape[0], -1).astype(np.int16)

    def pairwise(self, input_features: np.ndarray, target_features: np.ndarray) -> np.ndarray:
        diff = np.abs(input_features[:, None, :] - target_features[None, :, :])
        return self._as_error(diff.sum(axis=2, dtype=np.int64))

    def rowwise(self, input_features: np.ndarray, target_features: np.ndarray) -> np.ndarray:
        diff = np.abs(input_features - target_features)
        return self._as_error(diff.sum(axis=1, dtype=np.int64))

    def pairwise_into(
        self,
        input_features: np.ndarray,
        target_features: np.ndarray,
        out: np.ndarray,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Scratch-reusing SAD block: same arithmetic as :meth:`pairwise`.

        ``|a - b|`` summed along the feature axis, with the ``(rows, B,
        F)`` int16 intermediate written into ``scratch`` in place.  The
        dense kernel keeps that intermediate small enough to stay
        cache-resident (:attr:`chunk_budget`) and hands the same buffer
        to every chunk; allocating a fresh broadcast block per call is
        what makes a wide-chunk sweep memory-bound.  Allocation goes
        through the ufunc itself so CuPy inputs produce CuPy scratch.
        """
        rows = input_features.shape[0]
        if (
            scratch is None
            or scratch.shape[0] < rows
            or scratch.shape[1:] != target_features.shape
        ):
            scratch = np.subtract(
                input_features[:, None, :], target_features[None, :, :]
            )
            block = scratch[:rows]
        else:
            block = scratch[:rows]
            np.subtract(
                input_features[:, None, :],
                target_features[None, :, :],
                out=block,
            )
        np.abs(block, out=block)
        np.sum(block, axis=2, dtype=np.int64, out=out)
        return scratch
