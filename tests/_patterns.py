"""Gelfand-Tsetlin patterns as plain tuples: the reference the tests hold
the integer-array basis of :mod:`immdfun.sunrep` against.

A pattern is a tuple of rows, from the irrep row (m entries) down to the
single entry, with rows[k][i] >= rows[k+1][i] >= rows[k][i+1].  Every
function here walks patterns one at a time in plain Python, so it shares
no code with the array tables.  :func:`irreps_up_to` lists the small
irrep labels that table and lift tests sweep.
"""

import math
from itertools import chain, product

import numpy as np

from immdfun.errors import DomainError
from immdfun.sunrep import SUIrrepLabel, dim_weyl


def gt_patterns(row) -> tuple:
    """All patterns with top row ``row``, sorted by flattened rows, descending."""

    def extend(upper):
        if len(upper) == 1:
            yield (upper,)
            return
        ranges = (range(upper[i], upper[i + 1] - 1, -1) for i in range(len(upper) - 1))
        for lower in product(*ranges):
            for rest in extend(lower):
                yield (upper,) + rest

    # rows of one irrep have fixed lengths, so nested tuples compare as
    # their flattened rows do
    pats = list(extend(tuple(int(x) for x in row)))
    pats.sort(reverse=True)
    return tuple(pats)


def flattened(pattern) -> tuple:
    return tuple(chain.from_iterable(pattern))


def occupation(pattern) -> tuple:
    """n_k = (sum of the row with k entries) - (sum of the row with k-1)."""
    sums = [sum(r) for r in pattern[::-1]]  # index k-1 -> row with k entries
    return tuple([sums[0]] + [sums[k] - sums[k - 1] for k in range(1, len(pattern))])


def chain_label(pattern, occ) -> str:
    """Occupations ``occ`` (:func:`occupation` of the pattern), then the
    round label of each row with 3 or more entries below the top (trailing
    zeros dropped), then the su(2) J."""
    occ_str = (
        "".join(str(x) for x in occ)
        if all(x < 10 for x in occ)
        else ",".join(str(x) for x in occ)
    )
    parts = []
    for r in pattern[1:]:
        if len(r) < 3:
            continue
        diffs = [r[i] - r[i + 1] for i in range(len(r) - 1)]
        while len(diffs) > 1 and diffs[-1] == 0:
            diffs.pop()
        parts.append("(" + ",".join(str(d) for d in diffs) + ")")
    if len(pattern) >= 2:
        two_j = pattern[-2][0] - pattern[-2][1]
        j, odd = divmod(two_j, 2)
        parts.append(f"({two_j}/2)" if odd else f"({j})")
    return occ_str + "".join(parts)


def raising_entry(pattern, k: int, j: int) -> float:
    """Gelfand-Tsetlin amplitude for incrementing entry j (0-based) of the
    row with k entries; DomainError when the ratio is not positive."""
    m = len(pattern)
    row_k = pattern[m - k]
    l_jk = row_k[j] - (j + 1)
    num = 1.0
    for i, x in enumerate(pattern[m - k - 1]):  # row with k+1 entries
        num *= (x - (i + 1)) - l_jk
    if k >= 2:
        for i, x in enumerate(pattern[m - k + 1]):  # row with k-1 entries
            num *= (x - (i + 1)) - l_jk - 1
    num = -num
    den = 1.0
    for i, x in enumerate(row_k):
        if i == j:
            continue
        l_ik = x - (i + 1)
        den *= (l_ik - l_jk) * (l_ik - l_jk - 1)
    ratio = num / den
    if not ratio > 0.0:
        raise DomainError(f"raising entry {j} of row {k} of {pattern} has ratio {ratio}")
    return math.sqrt(ratio)


def raised(pattern, k: int, j: int) -> tuple:
    """``pattern`` with entry j of the row with k entries raised by one;
    it is a pattern of the irrep only if :func:`gt_patterns` lists it."""
    i = len(pattern) - k
    row = pattern[i]
    return pattern[:i] + (row[:j] + (row[j] + 1,) + row[j + 1 :],) + pattern[i + 1 :]


def raising_entries(pats, k: int) -> dict:
    """The nonzero matrix elements of C_{k,k+1} on the patterns ``pats`` of
    one irrep, one entry at a time, as {(dst, src): amp} with basis
    positions in their order."""
    index = {p: i for i, p in enumerate(pats)}
    entries = {}
    for col, pat in enumerate(pats):
        for j in range(k):
            target = raised(pat, k, j)
            if target in index:
                entries[index[target], col] = raising_entry(pat, k, j)
    return entries


def irreps_up_to(m: int, max_d: int) -> list[SUIrrepLabel]:
    """Every SU(m) label (last entry 0) of dimension at most ``max_d``.

    The dimension grows with each gap row[i] - row[i+1], so each gap is
    raised until the label with all later gaps at 0 is too large.
    """

    def grow(gaps):
        label = SUIrrepLabel(m, tuple(sum(gaps[i:]) for i in range(m)))
        if dim_weyl(label) > max_d:
            return []
        if len(gaps) == m - 1:
            return [label]
        found, gap = [], 0
        while more := grow(gaps + (gap,)):
            found += more
            gap += 1
        return found

    return grow(())
