"""Symmetric group S_n: partitions, characters, class data, and Young's
orthogonal representation matrices.

Characters are computed exactly (integer arithmetic, border-strip removal on
beta-sets); floating-point traces of the orthogonal matrices serve only as
cross-checks in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import permutations as _iter_permutations

import numpy as np

from .errors import DomainError


class Partition(tuple):
    """Weakly decreasing tuple of positive integers summing to n.

    Labels an irrep of S_n and, through consecutive differences of its padded
    form, an SU(m) irrep.  Equal to, and hashed like, the plain tuple of its
    parts.
    """

    __slots__ = ()

    def __new__(cls, *parts):
        if len(parts) == 1 and isinstance(parts[0], (tuple, list)):
            parts = parts[0]
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise DomainError("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise DomainError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError(f"partition parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self):
        return "{" + ",".join(str(p) for p in self) + "}"


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
        return Partition(_cycle_lengths([img - 1 for img in self.images]))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def _cycle_lengths(images) -> tuple[int, ...]:
    """Cycle lengths, longest first, of a permutation given by 0-based images."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            k = images[k]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def sn_tables(n: int) -> tuple[np.ndarray, np.ndarray, tuple[Partition, ...]]:
    """All of S_n as read-only arrays, in ``itertools.permutations`` order.

    Returns the ``(n!, n)`` 0-based one-line images, the index into
    :func:`partitions_of` of each permutation's cycle type, and that class
    list.
    """
    classes = partitions_of(n)
    class_of = {cls.parts: k for k, cls in enumerate(classes)}
    rows = list(_iter_permutations(range(n)))
    class_idx = np.array([class_of[_cycle_lengths(row)] for row in rows], dtype=np.int64)
    images = np.array(rows, dtype=np.int64)
    images.flags.writeable = class_idx.flags.writeable = False
    return images, class_idx, classes


@cache
def character_weights(p: Partition) -> np.ndarray:
    """chi^{p} of every permutation of S_n, in :func:`sn_tables` order (read-only)."""
    _, class_idx, classes = sn_tables(p.n)
    weights = np.array([character(p, cls) for cls in classes], dtype=np.float64)[class_idx]
    weights.flags.writeable = False
    return weights


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each once, in reverse lexicographic order."""
    if n < 1:
        raise DomainError(f"partitions_of requires n >= 1, got {n}")

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


def dim_sym(p: Partition) -> int:
    """Dimension of the S_n irrep {p} by the hook length formula."""
    parts = p.parts
    conj = _conjugate(parts)
    d = math.factorial(p.n)
    for i, row in enumerate(parts):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            d //= hook
    return d


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


@cache
def _mn_character(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Border-strip recursion on beta-sets; lam and rho are bare tuples."""
    if not rho:
        return 1 if not lam else 0
    r, rest = rho[0], rho[1:]
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((bset - {b}) | {nb}, reverse=True)
        new_lam = tuple(
            x for x in (new_beta[j] - (ell - 1 - j) for j in range(ell)) if x > 0
        )
        total += (-1) ** height * _mn_character(new_lam, rest)
    return total


def character(p: Partition, cls: Partition) -> int:
    """Irreducible character chi^{p} on the conjugacy class ``cls`` of S_n."""
    if p.n != cls.n:
        raise DomainError(f"partition {p} and class {cls} have different sizes")
    return _mn_character(p.parts, tuple(sorted(cls.parts, reverse=True)))


# ---------------------------------------------------------------------------
# standard tableaux and Young's orthogonal form
# ---------------------------------------------------------------------------


@cache
def standard_tableaux(p: Partition) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Standard Young tableaux of shape p, in last-letter order.

    Tableaux are compared by the row index of n, then n-1, and so on; the
    tableau whose largest disagreeing entry sits in the earlier row comes
    first.  This order fixes the basis of ``young_orthogonal`` and every
    downstream phase convention.
    """
    shape = p.parts
    n = p.n

    def fill(tab, num):
        if num > n:
            yield tuple(tuple(row) for row in tab)
            return
        for i, row in enumerate(tab):
            j = len(row)
            if j >= shape[i]:
                continue
            if i > 0 and len(tab[i - 1]) <= j:
                continue
            row.append(num)
            yield from fill(tab, num + 1)
            row.pop()

    def last_letter_key(tab):
        where = {}
        for i, row in enumerate(tab):
            for v in row:
                where[v] = i
        return tuple(where[v] for v in range(n, 0, -1))

    return tuple(sorted(fill([[] for _ in shape], 1), key=last_letter_key))


def _tableau_positions(tab) -> dict[int, tuple[int, int]]:
    return {v: (i, j) for i, row in enumerate(tab) for j, v in enumerate(row)}


@dataclass(frozen=True)
class IrrepMatrixSym:
    """Real orthogonal matrix of one permutation in the irrep {partition}."""

    partition: Partition
    entries: np.ndarray


@cache
def _adjacent_matrix(p: Partition, k: int) -> np.ndarray:
    """Young's orthogonal matrix for the adjacent transposition (k, k+1)."""
    basis = standard_tableaux(p)
    index = {tab: a for a, tab in enumerate(basis)}
    d = len(basis)
    mat = np.zeros((d, d))
    for a, tab in enumerate(basis):
        pos = _tableau_positions(tab)
        (ri, ci), (rj, cj) = pos[k], pos[k + 1]
        dist = (cj - rj) - (ci - ri)  # axial distance, never 0 in a standard tableau
        mat[a, a] = 1.0 / dist
        if abs(dist) > 1:
            swapped = tuple(
                tuple(k + 1 if v == k else k if v == k + 1 else v for v in row)
                for row in tab
            )
            b = index[swapped]
            mat[b, a] = math.sqrt(1.0 - 1.0 / dist**2)
    return mat


def _adjacent_factors(s: Permutation) -> list[int]:
    """Write s as a product of adjacent transpositions s_k = (k, k+1).

    Returns k-values such that s = s_{k_1} o s_{k_2} o ... (leftmost applied
    last), obtained by bubble-sorting the one-line form.
    """
    images = list(s.images)
    factors = []
    changed = True
    while changed:
        changed = False
        for k in range(len(images) - 1):
            if images[k] > images[k + 1]:
                images[k], images[k + 1] = images[k + 1], images[k]
                factors.append(k + 1)
                changed = True
    return factors[::-1]


def young_orthogonal(p: Partition, s: Permutation) -> IrrepMatrixSym:
    """Orthogonal matrix of s in the irrep {p}, basis of standard tableaux.

    The map is a homomorphism: ``young_orthogonal(p, a o b)`` equals the
    product of the matrices of a and b.
    """
    if p.n != s.n:
        raise DomainError(f"partition {p} is not a shape for S_{s.n}")
    d = len(standard_tableaux(p))
    mat = np.eye(d)
    for k in _adjacent_factors(s):
        mat = mat @ _adjacent_matrix(p, k)
    return IrrepMatrixSym(p, mat)
