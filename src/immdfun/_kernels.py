"""Numeric hot loops in vectorized numpy."""

import numpy as np

# ---------------------------------------------------------------------------
# character-weighted permutation sum:  sum_p w[p] * prod_k M[k, perms[p, k]]
# ---------------------------------------------------------------------------


def imm_sum(mat, perms, weights):
    """Weighted permutation sum over a complex square matrix.

    ``perms`` is an ``(n!, n)`` int64 array of zero-based column choices and
    ``weights`` the float64 character weight of each permutation.
    """
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    rows = np.arange(mat.shape[0])
    live = np.nonzero(weights)[0]
    prods = np.prod(mat[rows[None, :], perms[live]], axis=1)
    return complex(np.dot(weights[live], prods))


# ---------------------------------------------------------------------------
# Ryser permanent over blocks of column subsets
# ---------------------------------------------------------------------------


def ryser_permanent(mat):
    """Permanent via Ryser's inclusion-exclusion, subsets in binary order."""
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    n = mat.shape[0]
    total = 0.0 + 0.0j
    chunk = 1 << min(n, 16)
    subsets = np.arange(1, 1 << n, dtype=np.int64)
    for start in range(0, subsets.size, chunk):
        block = subsets[start : start + chunk]
        masks = ((block[:, None] >> np.arange(n)) & 1).astype(np.float64)
        rowsums = masks @ mat.T
        signs = np.where(masks.sum(axis=1).astype(np.int64) % 2 == 0, 1.0, -1.0)
        total += np.dot(signs, np.prod(rowsums, axis=1))
    if n % 2:
        total = -total
    return complex(total)


__all__ = ["imm_sum", "ryser_permanent"]
