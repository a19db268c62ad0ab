"""Greedy assignment baseline.

Sort all ``S^2`` tile/position pairs by error and accept each pair whose
tile and position are both still free.  O(S^2 log S) and typically within a
few percent of optimal on natural images, but with no guarantee — it is the
"obvious baseline" the exact solvers are judged against in the ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.assignment.base import AssignmentResult, AssignmentSolver, register_solver
from repro.types import ErrorMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cost.sparse import SparseErrorMatrix

__all__ = ["GreedySolver"]


@register_solver
class GreedySolver(AssignmentSolver):
    """Globally-greedy matching (no optimality guarantee)."""

    name = "greedy"
    exact = False

    def _solve(self, matrix: ErrorMatrix) -> AssignmentResult:
        n = matrix.shape[0]
        order = np.argsort(matrix, axis=None, kind="stable")
        rows_free = np.ones(n, dtype=bool)
        cols_free = np.ones(n, dtype=bool)
        perm = np.full(n, -1, dtype=np.intp)
        assigned = 0
        accepted_scans = 0
        for flat in order:
            u, v = divmod(int(flat), n)
            accepted_scans += 1
            if rows_free[u] and cols_free[v]:
                perm[v] = u
                rows_free[u] = False
                cols_free[v] = False
                assigned += 1
                if assigned == n:
                    break
        total = int(matrix[perm, np.arange(n)].sum())
        return AssignmentResult(
            permutation=perm,
            total=total,
            optimal=False,
            iterations=accepted_scans,
        )

    def solve_sparse(self, sparse: "SparseErrorMatrix") -> AssignmentResult:
        """Native sparse greedy: scan only the ``S * k`` shortlisted pairs.

        The candidate pairs are visited in the same ``(cost, u, v)``
        order the dense argsort produces, so over the shortlisted subset
        the scan accepts exactly the pairs dense greedy would.  Rows and
        positions the shortlist leaves unmatched are resolved by an
        exact-scored greedy pass over the leftover block (the dense
        fallback), and the reported total is the true Eq. (2) value via
        the retained features.  The complete case delegates to the
        densified path for bit-identity with :meth:`solve`.
        """
        if sparse.complete or sparse.features_in is None:
            return super().solve_sparse(sparse)
        n, k = sparse.size, sparse.top_k
        u_flat = np.repeat(np.arange(n, dtype=np.int64), k)
        v_flat = sparse.indices.ravel()
        c_flat = sparse.costs.ravel()
        # lexsort's last key is primary: cost, then row, then position —
        # the dense flat-argsort order restricted to present pairs.
        order = np.lexsort((v_flat, u_flat, c_flat))
        rows_free = np.ones(n, dtype=bool)
        cols_free = np.ones(n, dtype=bool)
        perm = np.full(n, -1, dtype=np.intp)
        assigned = 0
        scans = 0
        for idx in order:
            u = int(u_flat[idx])
            v = int(v_flat[idx])
            scans += 1
            if rows_free[u] and cols_free[v]:
                perm[v] = u
                rows_free[u] = False
                cols_free[v] = False
                assigned += 1
                if assigned == n:
                    break
        fallback_rows = np.flatnonzero(rows_free)
        fallback = int(fallback_rows.size)
        if fallback:
            from repro.cost.base import get_metric

            cols_left = np.flatnonzero(cols_free)
            metric = get_metric(sparse.metric_name)
            block = metric.pairwise(
                sparse.features_in[fallback_rows],
                sparse.features_tg[cols_left],
            )
            m = fallback_rows.size
            for flat in np.argsort(block, axis=None, kind="stable"):
                i, j = divmod(int(flat), cols_left.size)
                scans += 1
                if rows_free[fallback_rows[i]] and cols_free[cols_left[j]]:
                    perm[cols_left[j]] = fallback_rows[i]
                    rows_free[fallback_rows[i]] = False
                    cols_free[cols_left[j]] = False
                    m -= 1
                    if m == 0:
                        break
        return AssignmentResult(
            permutation=perm,
            total=sparse.exact_total(perm),
            optimal=False,
            iterations=scans,
            meta={
                "sparse": {
                    "top_k": k,
                    "complete": False,
                    "pairs_evaluated": int(
                        sparse.meta.get("pairs_evaluated", 0)
                    ),
                    "fallback": fallback,
                    "exact_fallback": True,
                    "filled_optimal": False,
                }
            },
        )
