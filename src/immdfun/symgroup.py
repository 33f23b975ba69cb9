"""Symmetric group S_n: partitions, characters, class data, and Young's
orthogonal representation matrices.

All of S_n is one integer array, :func:`sn_tables`: the 0-based one-line
images of every permutation in ``itertools.permutations`` order, with the
class index of each.  Characters are computed exactly (integer arithmetic,
border-strip removal on beta-sets).  Standard tableaux are rows of
:func:`tableau_words`, and :func:`young_tables` holds Young's orthogonal
matrix of every permutation in :func:`sn_tables` order.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations as _iter_permutations

import numpy as np

from .errors import DomainError, ResourceLimitError


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



YOUNG_TABLE_CAP = 2**24  # float entries of one young_tables array (128 MB)


@cache
def tableau_words(p: Partition) -> np.ndarray:
    """Standard Young tableaux of shape p as a read-only (d, n) int64 array.

    Entry v-1 of a row is the tableau row holding v.  Rows come in
    last-letter order: by the row of n, then of n-1, and so on, earlier rows
    first.  This order is the basis of :func:`young_tables`.
    """
    blocks = []
    for i, row in enumerate(p):
        if i + 1 == len(p) or p[i + 1] < row:  # n can sit at the end of row i
            smaller = tuple(x for x in p[:i] + (row - 1,) + p[i + 1 :] if x)
            rest = tableau_words(Partition(smaller)) if smaller else np.zeros((1, 0), np.int64)
            blocks.append(np.column_stack([rest, np.full(len(rest), i)]))
    words = np.concatenate(blocks)
    words.flags.writeable = False
    return words


def _adjacent_matrices(p: Partition) -> np.ndarray:
    """Young's orthogonal matrices of the transpositions (k, k+1), k = 1..n-1,
    stacked as (n-1, d, d).

    With content c = column - row of a letter and r = c(k+1) - c(k), word a
    gets 1/r on the diagonal and sqrt(1 - 1/r^2) at the word with k and k+1
    swapped (|r| = 1 leaves no standard swap).
    """
    words = tableau_words(p)
    d, n = words.shape
    columns = ((words[:, :, None] == words[:, None, :]) & np.tri(n, k=-1, dtype=bool)).sum(axis=2)
    r = np.diff(columns - words, axis=1)
    mats = np.zeros((n - 1, d, d))
    mats[:, np.arange(d), np.arange(d)] = 1.0 / r.T
    rows = words.tolist()
    index = {tuple(w): a for a, w in enumerate(rows)}
    for a, k in zip(*np.nonzero(np.abs(r) > 1)):
        w = rows[a][:]
        w[k], w[k + 1] = w[k + 1], w[k]
        mats[k, index[tuple(w)], a] = math.sqrt(1.0 - 1.0 / r[a, k] ** 2)
    return mats


def _lehmer_codes(images: np.ndarray) -> np.ndarray:
    """Entry i of each row counts the later images smaller than image i."""
    n = images.shape[1]
    return ((images[:, :, None] > images[:, None, :]) & np.tri(n, k=-1, dtype=bool).T).sum(axis=2)


@cache
def young_tables(p: Partition) -> np.ndarray:
    """Young's orthogonal matrices of all of S_n in the irrep {p}, as one
    read-only (n!, d, d) float64 array in :func:`sn_tables` order, basis
    :func:`tableau_words`.

    A homomorphism: with ``images`` from :func:`sn_tables`, the matrix of
    ``images[a][images[b]]`` (b applied first) is ``Y[a] @ Y[b]``.  Arrays
    above :data:`YOUNG_TABLE_CAP` entries are refused.
    """
    d, size = dim_sym(p), math.factorial(p.n)
    if size * d * d > YOUNG_TABLE_CAP:
        raise ResourceLimitError(
            f"young_tables of {p} needs {size * d * d} entries, above the cap {YOUNG_TABLE_CAP}"
        )
    images = sn_tables(p.n)[0]
    adjacent = _adjacent_matrices(p)
    place_values = np.array([math.factorial(p.n - 1 - i) for i in range(p.n)])
    inversions = _lehmer_codes(images).sum(axis=1)
    tables = np.empty((size, d, d))
    tables[0] = np.eye(d)
    # each permutation is its swap at its first descent j, times s_{j+1}
    for count in range(1, int(inversions.max()) + 1):
        idx = np.flatnonzero(inversions == count)
        own = images[idx]
        j = np.argmax(own[:, 1:] < own[:, :-1], axis=1)
        parent = own.copy()
        rows = np.arange(len(idx))
        parent[rows, j], parent[rows, j + 1] = own[rows, j + 1], own[rows, j]
        tables[idx] = tables[_lehmer_codes(parent) @ place_values] @ adjacent[j]
    tables.flags.writeable = False
    return tables
