"""Generators the tests build their checks from.

The u(m) generators C_ij in the Gelfand-Tsetlin basis: C_ii is diagonal
with the mode-i occupations and C_{k,k+1} is the simple raising table,
scattered from its (src, dst, amp) triples into a dense matrix;
every other C_ij with i < j follows by index gap from the commutator
[C_{i,j-1}, C_{j-1,j}], and C_ji = C_ij^T since the GT matrices are real.

The symmetric group one element at a time: :class:`Permutation` objects,
all of S_n in ``itertools.permutations`` order, their permutation matrices,
the size of each conjugacy class, and :func:`young_matrix`, Young's
orthogonal matrix of one permutation from the bubble-sort reference in
:mod:`_tableaux`.  The brute-force oracles build on :class:`Permutation`,
whose cycle type is its own cycle walk, so they share no code with
:func:`~immdfun.symgroup.sn_tables`.
"""

import math
from itertools import permutations

import numpy as np

from immdfun.errors import DomainError
from immdfun.sunrep import SUIrrepLabel, dim_weyl, occupations, raising_tables
from immdfun.symgroup import Partition

from _tableaux import young_orthogonal


def generator_matrix(irrep: SUIrrepLabel, i: int, j: int) -> np.ndarray:
    """Matrix of C_ij in the GT basis, 1-based indices."""
    if i == j:
        return np.diag(np.array(occupations(irrep), dtype=np.float64)[:, i - 1])
    if i > j:
        return generator_matrix(irrep, j, i).T
    if j == i + 1:
        src, dst, amp = raising_tables((irrep,))[i - 1]
        mat = np.zeros((dim_weyl(irrep), dim_weyl(irrep)))
        mat[dst, src] = amp
        return mat
    a, b = generator_matrix(irrep, i, j - 1), generator_matrix(irrep, j - 1, j)
    return a @ b - b @ a


class Permutation:
    """Permutation of {1..n} in one-line notation: ``images[k-1] = sigma(k)``."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise DomainError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """(self o other)(k) = self(other(k)); ``other`` acts first."""
        if self.n != other.n:
            raise DomainError("cannot compose permutations of different degree")
        return Permutation(self.images[other.images[k] - 1] for k in range(self.n))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, img in enumerate(self.images, start=1):
            inv[img - 1] = k
        return Permutation(inv)

    def cycle_type(self) -> Partition:
        lengths, unseen = [], set(self.images)
        while unseen:
            k, length = unseen.pop(), 1
            while self(k) in unseen:
                k = self(k)
                unseen.remove(k)
                length += 1
            lengths.append(length)
        return Partition(sorted(lengths, reverse=True))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


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


def young_matrix(p: Partition, s: Permutation) -> np.ndarray:
    """Young's orthogonal matrix of s in the irrep {p}, in the last-letter
    order of the standard tableaux of p."""
    return young_orthogonal(p, s)
