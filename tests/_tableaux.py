"""Standard tableaux as nested tuples and Young's orthogonal form one
permutation at a time: the matrices the tests check characters and the
homomorphism property against.

A tableau is a tuple of rows of the letters 1..n.  A permutation is a
:class:`_generators.Permutation`, factored by bubble sort into adjacent
transpositions whose matrices are multiplied in turn, so nothing here
shares code with :mod:`immdfun.symgroup`.
"""

import math
from functools import cache

import numpy as np


@cache
def standard_tableaux(shape) -> tuple:
    """Standard Young tableaux of ``shape``, in last-letter order.

    Tableaux are compared by the row index of n, then n-1, and so on; the
    tableau whose largest disagreeing entry sits in the earlier row comes
    first.
    """
    shape = tuple(shape)
    n = sum(shape)

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

    return tuple(sorted(fill([[] for _ in shape], 1), key=last_letter_key))


def last_letter_key(tab) -> tuple:
    """Row index of n, then of n-1, down to 1."""
    return tuple(word(tab)[::-1])


def word(tab) -> list:
    """Entry v-1 is the row holding v."""
    where = {v: i for i, row in enumerate(tab) for v in row}
    return [where[v] for v in range(1, len(where) + 1)]


def tableau_positions(tab) -> dict:
    return {v: (i, j) for i, row in enumerate(tab) for j, v in enumerate(row)}


@cache
def adjacent_matrix(shape, k: int) -> np.ndarray:
    """Young's orthogonal matrix for the adjacent transposition (k, k+1)."""
    basis = standard_tableaux(shape)
    index = {tab: a for a, tab in enumerate(basis)}
    d = len(basis)
    mat = np.zeros((d, d))
    for a, tab in enumerate(basis):
        pos = tableau_positions(tab)
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


def adjacent_factors(s) -> list:
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


def young_orthogonal(shape, s) -> np.ndarray:
    """Orthogonal matrix of s in the irrep of ``shape``, basis of standard
    tableaux, as the product of its adjacent factors' matrices."""
    mat = np.eye(len(standard_tableaux(shape)))
    for k in adjacent_factors(s):
        mat = mat @ adjacent_matrix(shape, k)
    return mat
