"""Generators the tests build their checks from.

The u(m) generators C_ij in the Gelfand-Tsetlin basis: C_ii is diagonal
with the mode-i occupations and C_{k,k+1} is the simple raising table;
every other C_ij with i < j follows by index gap from the commutator
[C_{i,j-1}, C_{j-1,j}], and C_ji = C_ij^T since the GT matrices are real.

The symmetric group one element at a time: all of S_n as
:class:`~immdfun.symgroup.Permutation` objects, their permutation matrices,
and the size of each conjugacy class.
"""

import math
from itertools import permutations

import numpy as np

from immdfun.errors import DomainError
from immdfun.sunrep import SUIrrepLabel, _simple_raising, occupations
from immdfun.symgroup import Partition, Permutation


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


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n in the deterministic ``itertools.permutations`` order."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return [Permutation(images) for images in permutations(range(1, n + 1))]


def permutation_matrix(s: Permutation) -> np.ndarray:
    """Matrix P with P e_j = e_{s(j)}, so that P_a P_b = P_{a o b}."""
    n = s.n
    mat = np.zeros((n, n))
    for j in range(1, n + 1):
        mat[s(j) - 1, j - 1] = 1.0
    return mat


def class_size(cls: Partition) -> int:
    """Number of permutations with the given cycle type: n! / prod_j j^{m_j} m_j!."""
    counts: dict[int, int] = {}
    for part in cls:
        counts[part] = counts.get(part, 0) + 1
    denom = 1
    for j, mj in counts.items():
        denom *= j**mj * math.factorial(mj)
    return math.factorial(cls.n) // denom
