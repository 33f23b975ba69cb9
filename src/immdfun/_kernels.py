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
    if live.size == 0:
        return 0.0 + 0.0j
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


# ---------------------------------------------------------------------------
# projector action: out = sum_p w[p] * gather(amps, sigma_p)
# ---------------------------------------------------------------------------
#
# ``digits[i, j]`` is the mode (0-based) of tensor factor j in basis state i;
# ``powers[j]`` the mixed-radix weight of factor j, so
# ``i = sum_j digits[i, j] * powers[j]``.  Permutation p sends basis state
# ``i`` to the state whose factor j carries ``digits[i, sigmas[p, j]]``.


def projector_apply(amps, digits, sigmas, weights, powers):
    """Apply ``sum_p weights[p] P(sigma_p)`` to a tensor amplitude vector."""
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    out = np.zeros_like(amps)
    for p in range(sigmas.shape[0]):
        w = weights[p]
        if w == 0.0:
            continue
        gather = digits[:, sigmas[p]] @ powers
        out += w * amps[gather]
    return out


__all__ = ["imm_sum", "ryser_permanent", "projector_apply"]
