"""The u(m) generators C_ij in the Gelfand-Tsetlin basis, for the tests.

C_ii is diagonal with the mode-i occupations and C_{k,k+1} is the simple
raising table; every other C_ij with i < j follows by index gap from the
commutator [C_{i,j-1}, C_{j-1,j}], and C_ji = C_ij^T since the GT matrices
are real.
"""

import numpy as np

from immdfun.sunrep import SUIrrepLabel, _simple_raising, occupations


def generator_matrix(irrep: SUIrrepLabel, i: int, j: int) -> np.ndarray:
    """Matrix of C_ij in the GT basis, 1-based indices."""
    if i == j:
        return np.diag(np.array(occupations(irrep), dtype=np.float64)[:, i - 1])
    if i > j:
        return generator_matrix(irrep, j, i).T
    if j == i + 1:
        return _simple_raising(irrep, i)
    a, b = generator_matrix(irrep, i, j - 1), generator_matrix(irrep, j - 1, j)
    return a @ b - b @ a
