"""Symmetric group S_n: partitions, characters and class data.

All of S_n is one integer array, :func:`sn_tables`: the 0-based one-line
images of every permutation in ``itertools.permutations`` order, with the
class index of each.  Characters are computed exactly (integer arithmetic,
border-strip removal on beta-sets), and :func:`character_weights` lays them
out in :func:`sn_tables` order.
"""

from __future__ import annotations

import math
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
