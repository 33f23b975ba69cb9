"""Numeric hot loops in vectorized numpy."""

import numpy as np

# ---------------------------------------------------------------------------
# character-weighted permutation sums:  sum_p w[p] * prod_k M[k, perms[p, k]]
# ---------------------------------------------------------------------------


def imm_sum_batch(mats, perms, weights):
    """Weighted permutation sums of a stack of complex square matrices.

    ``mats`` is (S, n, n), ``perms`` an ``(n!, n)`` int64 array of
    zero-based column choices and ``weights`` the float64 character weight
    of each permutation; returns the (S,) complex sums.  The products run
    over one (S * P, n) array, and each sum is its own dot product, so
    every slice equals the one-slice stack of that matrix bit for bit.
    """
    mats = np.ascontiguousarray(mats, dtype=np.complex128)
    n = mats.shape[-1]
    rows = np.arange(n)
    live = np.nonzero(weights)[0]
    gathered = mats[:, rows[None, :], perms[live]].reshape(-1, n)
    prods = np.prod(gathered, axis=1).reshape(len(mats), live.size)
    w = weights[live]
    return np.array([np.dot(w, row) for row in prods], dtype=np.complex128)


# ---------------------------------------------------------------------------
# Ryser permanent over blocks of column subsets
# ---------------------------------------------------------------------------


def ryser_permanent_batch(mats):
    """Permanents of a stack of complex square matrices via Ryser's
    inclusion-exclusion, column subsets in binary order.

    ``mats`` is (S, n, n); returns the (S,) complex permanents.  The subsets
    run in blocks of B = 2^min(n, 16), and each block's row sums are formed
    for 2^16 / B matrices at a time (at least one), so the scratch memory
    does not grow with S.  The products run over one (S' * B, n) array and
    each block sum is its own dot product, so every slice equals the
    one-slice stack of that matrix bit for bit.
    """
    mats = np.ascontiguousarray(mats, dtype=np.complex128)
    n = mats.shape[-1]
    totals = np.zeros(len(mats), dtype=np.complex128)
    chunk = 1 << min(n, 16)
    per = max(1, (1 << 16) // chunk)
    subsets = np.arange(1, 1 << n, dtype=np.int64)
    for start in range(0, subsets.size, chunk):
        block = subsets[start : start + chunk]
        masks = ((block[:, None] >> np.arange(n)) & 1).astype(np.float64)
        signs = np.where(masks.sum(axis=1).astype(np.int64) % 2 == 0, 1.0, -1.0)
        for first in range(0, len(mats), per):
            group = mats[first : first + per]
            rowsums = masks @ group.transpose(0, 2, 1)
            prods = np.prod(rowsums.reshape(-1, n), axis=1).reshape(len(group), -1)
            for s, row in enumerate(prods, first):
                totals[s] += np.dot(signs, row)
    return -totals if n % 2 else totals


__all__ = ["imm_sum_batch", "ryser_permanent_batch"]
