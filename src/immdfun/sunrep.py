"""Irreducible SU(m) representations in the Gelfand-Tsetlin basis.

A GT pattern is a triangular integer array whose rows are the highest
weights of the chain u(m) > u(m-1) > ... > u(1); each valid pattern labels
one basis vector.  Generator matrix elements follow the classical
Gelfand-Tsetlin formulas with the standard phase convention: simple raising
and lowering operators have real nonnegative entries.  A group element is
lifted to an irrep by exponentiating the image of its principal logarithm
under that generator map.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np
import scipy.linalg

from .errors import DomainError, ResourceLimitError
from .linalgimm import UnitaryElement
from .symgroup import Partition

DEFAULT_MAX_LIFT_DIM = 512


def max_lift_dim() -> int:
    """Dense-lift dimension cap: IMMDFUN_MAX_DIM, a positive integer, if set."""
    env = os.environ.get("IMMDFUN_MAX_DIM", "")
    if not env:
        return DEFAULT_MAX_LIFT_DIM
    if not (env.isdecimal() and int(env) > 0):
        raise DomainError(f"IMMDFUN_MAX_DIM must be a positive integer, got {env!r}")
    return int(env)


@dataclass(frozen=True)
class SUIrrepLabel:
    """Highest weight of a u(m)/SU(m) irrep as a weakly decreasing row.

    ``row`` holds m nonnegative integers.  SU(m) labels are normalized so the
    last entry is 0; rows with a nonzero last entry denote the u(m) weight
    carried inside an N-fold tensor power (same SU(m) content, occupations
    shifted by a multiple of (1, ..., 1)).
    """

    m: int
    row: tuple[int, ...]

    def __post_init__(self):
        row = tuple(int(x) for x in self.row)
        object.__setattr__(self, "row", row)
        if len(row) != self.m:
            raise DomainError(f"row {row} must have m = {self.m} entries")
        if any(x < 0 for x in row):
            raise DomainError(f"row entries must be nonnegative: {row}")
        if any(row[i] < row[i + 1] for i in range(self.m - 1)):
            raise DomainError(f"row must be weakly decreasing: {row}")

    @classmethod
    def from_partition(cls, p: Partition, m: int, normalize: bool = True):
        """SU(m) label dual to the S_N partition {p} (padded with zeros)."""
        if len(p) > m:
            raise DomainError(f"partition {p} has more than m = {m} rows")
        row = tuple(p.parts) + (0,) * (m - len(p))
        label = cls(m, row)
        return label.normalized if normalize else label

    @property
    def normalized(self) -> "SUIrrepLabel":
        return SUIrrepLabel(self.m, tuple(x - self.row[-1] for x in self.row))

    @property
    def round_label(self) -> tuple[int, ...]:
        """Consecutive differences (lambda_1 - lambda_2, ...), m-1 entries."""
        return tuple(self.row[i] - self.row[i + 1] for i in range(self.m - 1))

    @property
    def boxes(self) -> int:
        return sum(self.row)

    def __repr__(self):
        return f"SU({self.m}){self.row}"


def su2_irrep(two_j: int) -> SUIrrepLabel:
    """SU(2) irrep with angular momentum J = two_j / 2."""
    return SUIrrepLabel(2, (two_j, 0))


@dataclass(frozen=True)
class GTPattern:
    """Triangular array ``rows[0]`` (length m, the irrep row) down to one entry.

    Betweenness: rows[k][i] >= rows[k+1][i] >= rows[k][i+1].
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        m = len(rows[0])
        if [len(r) for r in rows] != list(range(m, 0, -1)):
            raise DomainError(f"rows must shrink by one: {rows}")
        for k in range(m - 1):
            upper, lower = rows[k], rows[k + 1]
            for i, x in enumerate(lower):
                if not (upper[i] >= x >= upper[i + 1]):
                    raise DomainError(f"betweenness violated at row {k + 1}: {rows}")

    @property
    def m(self) -> int:
        return len(self.rows[0])

    @property
    def top(self) -> tuple[int, ...]:
        return self.rows[0]

    def flattened(self) -> tuple[int, ...]:
        return tuple(x for r in self.rows for x in r)

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    @property
    def two_j(self) -> int:
        """Twice the su(2) angular momentum: the spread of the two-entry row."""
        return self.rows[-2][0] - self.rows[-2][1]

    def __repr__(self):
        return "GT" + str(self.as_lists())


@dataclass(frozen=True)
class WeightVector:
    """Mode occupations n plus the derived Cartan weight [n_1-n_2, ...]."""

    occupation: tuple[int, ...]

    def __post_init__(self):
        occ = tuple(int(x) for x in self.occupation)
        object.__setattr__(self, "occupation", occ)
        if any(x < 0 for x in occ):
            raise DomainError(f"occupations must be nonnegative: {occ}")

    @property
    def cartan(self) -> tuple[int, ...]:
        occ = self.occupation
        return tuple(occ[i] - occ[i + 1] for i in range(len(occ) - 1))

    @property
    def total(self) -> int:
        return sum(self.occupation)

    def __repr__(self):
        return f"Weight(n={self.occupation}, h={list(self.cartan)})"


def weight_of(pattern: GTPattern) -> WeightVector:
    """Occupations n_k = (sum of row with k entries) - (sum of row with k-1)."""
    sums = [sum(r) for r in pattern.rows[::-1]]  # index k-1 -> row with k entries
    occ = [sums[0]] + [sums[k] - sums[k - 1] for k in range(1, pattern.m)]
    return WeightVector(tuple(occ))


def dim_weyl(irrep: SUIrrepLabel) -> int:
    """Weyl dimension formula: prod_{i<j} (r_i - r_j + j - i) / (j - i)."""
    row, m = irrep.row, irrep.m
    num, den = 1, 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= row[i] - row[j] + j - i
            den *= j - i
    return num // den


@cache
def gt_basis(irrep: SUIrrepLabel) -> tuple[GTPattern, ...]:
    """All GT patterns of the irrep, sorted by flattened rows, descending.

    The first pattern is the highest-weight one; the count matches
    :func:`dim_weyl`.
    """

    def extend(upper: tuple[int, ...]):
        k = len(upper) - 1
        if k == 0:
            yield (upper,)
            return
        ranges = [range(upper[i], upper[i + 1] - 1, -1) for i in range(k)]

        def rec(i, lower):
            if i == k:
                for rest in extend(tuple(lower)):
                    yield (upper,) + rest
                return
            for x in ranges[i]:
                lower.append(x)
                yield from rec(i + 1, lower)
                lower.pop()

        yield from rec(0, [])

    pats = [GTPattern(rows) for rows in extend(irrep.row)]
    pats.sort(key=lambda p: p.flattened(), reverse=True)
    return tuple(pats)


@cache
def occupations(irrep: SUIrrepLabel) -> tuple[tuple[int, ...], ...]:
    """Occupation tuple of every basis pattern, in :func:`gt_basis` order."""
    return tuple(weight_of(p).occupation for p in gt_basis(irrep))


@cache
def pattern_index(irrep: SUIrrepLabel) -> dict[GTPattern, int]:
    """Position of each pattern in :func:`gt_basis` order.

    The dict is shared by every caller and must not be mutated.
    """
    return {p: i for i, p in enumerate(gt_basis(irrep))}


def weight_subspace(irrep: SUIrrepLabel, w) -> tuple[GTPattern, ...]:
    """Basis patterns whose Cartan weight matches ``w``, in canonical order.

    Matching is by Cartan weight so that occupations shifted by the
    (1, ..., 1) direction (absorbed by SU normalization) still select the
    same states.  Accepts a WeightVector or a bare occupation tuple.
    """
    if not isinstance(w, WeightVector):
        w = WeightVector(tuple(w))
    target = w.cartan
    return tuple(
        p
        for p, occ in zip(gt_basis(irrep), occupations(irrep))
        if tuple(a - b for a, b in zip(occ, occ[1:])) == target
    )


def chain_label(pattern: GTPattern) -> str:
    """Human-readable chain string: occupations, then subgroup labels.

    Each chain entry is the round label of one pattern row (trailing zeros
    dropped); the final su(2) entry is written as the half-integer J.
    """
    irrep = SUIrrepLabel(pattern.m, pattern.top)
    occ = occupations(irrep)[pattern_index(irrep)[pattern]]
    occ_str = (
        "".join(str(x) for x in occ)
        if all(x < 10 for x in occ)
        else ",".join(str(x) for x in occ)
    )
    parts = []
    for r in pattern.rows[1:]:
        if len(r) < 3:
            continue  # the su(2) level is rendered as J below; u(1) carries no label
        diffs = [r[i] - r[i + 1] for i in range(len(r) - 1)]
        while len(diffs) > 1 and diffs[-1] == 0:
            diffs.pop()
        parts.append("(" + ",".join(str(d) for d in diffs) + ")")
    if pattern.m >= 2:
        parts.append(f"({Fraction(pattern.two_j, 2)})")
    return occ_str + "".join(parts)


# ---------------------------------------------------------------------------
# generator matrices
# ---------------------------------------------------------------------------


def _raising_entry(pattern: GTPattern, k: int, j: int) -> float:
    """Gelfand-Tsetlin amplitude for incrementing entry j of the k-entry row.

    Indices: k is the chain level (1-based, row with k entries), j is
    0-based within that row.  The caller guarantees the target pattern is
    valid, which keeps every denominator factor nonzero.
    """
    rows = pattern.rows
    m = pattern.m
    row_k = rows[m - k]
    l_jk = row_k[j] - (j + 1)
    num = 1.0
    for i, x in enumerate(rows[m - k - 1]):  # row with k+1 entries
        num *= (x - (i + 1)) - l_jk
    if k >= 2:
        for i, x in enumerate(rows[m - k + 1]):  # row with k-1 entries
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


def _increment(pattern: GTPattern, k: int, j: int, delta: int) -> GTPattern | None:
    rows = [list(r) for r in pattern.rows]
    rows[pattern.m - k][j] += delta
    try:
        return GTPattern(tuple(tuple(r) for r in rows))
    except DomainError:
        return None


@cache
def _simple_raising(irrep: SUIrrepLabel, k: int) -> np.ndarray:
    """Read-only matrix of C_{k,k+1} in the GT basis (real, nonnegative entries)."""
    basis = gt_basis(irrep)
    index = pattern_index(irrep)
    d = len(basis)
    mat = np.zeros((d, d))
    for col, pat in enumerate(basis):
        for j in range(k):
            target = _increment(pat, k, j, +1)
            if target is not None:
                mat[index[target], col] = _raising_entry(pat, k, j)
    mat.flags.writeable = False
    return mat


@cache
def _generator_stack(irrep: SUIrrepLabel) -> np.ndarray:
    """Read-only (m, m, d, d) stack of every C_{ij} matrix, 0-based indices.

    C_{ii} is diagonal with the mode-i occupation; C_{k,k+1} are the simple
    raising operators; the other C_{ij}, i < j, follow by index gap from the
    commutators ``[C_{i,j-1}, C_{j-1,j}] = C_{ij}``; every C_{ji} = C_{ij}^T,
    since the GT matrices are real.
    """
    m, d = irrep.m, dim_weyl(irrep)
    stack = np.zeros((m, m, d, d))
    occ = np.array(occupations(irrep), dtype=np.float64)
    for i in range(m):
        stack[i, i] = np.diag(occ[:, i])
    for gap in range(1, m):
        for i in range(m - gap):
            j = i + gap
            if gap == 1:
                stack[i, j] = _simple_raising(irrep, j)
            else:
                a, b = stack[i, j - 1], stack[j - 1, j]
                stack[i, j] = a @ b - b @ a
            stack[j, i] = stack[i, j].T
    stack.flags.writeable = False
    return stack


def generator_matrix(irrep: SUIrrepLabel, i: int, j: int) -> np.ndarray:
    """Matrix of the u(m) generator C_{ij} in the GT basis, 1-based indices:
    a read-only view into :func:`_generator_stack`."""
    m = irrep.m
    if not (1 <= i <= m and 1 <= j <= m):
        raise DomainError(f"generator indices must lie in 1..{m}")
    return _generator_stack(irrep)[i - 1, j - 1]


# ---------------------------------------------------------------------------
# lifting group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedRep:
    """Matrix of one group element in an irrep, GT basis order."""

    irrep: SUIrrepLabel
    matrix: np.ndarray

    def __post_init__(self):
        d = self.matrix.shape[0]
        defect = np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)).max()
        if defect > 1e-10:
            raise DomainError(f"lifted matrix lost unitarity: defect {defect:.3e}")

    @property
    def patterns(self) -> tuple[GTPattern, ...]:
        return gt_basis(self.irrep)

    def entry(self, r: GTPattern, t: GTPattern) -> complex:
        index = pattern_index(self.irrep)
        if r not in index or t not in index:
            raise DomainError("patterns do not belong to this irrep")
        return complex(self.matrix[index[r], index[t]])


def _principal_log(umat: np.ndarray) -> np.ndarray:
    """Hermitian H with exp(iH) = U, eigenphases in [-pi, pi].

    Uses the complex Schur form, which is diagonal for a unitary matrix, so
    the eigenvector matrix is itself numerically unitary.
    """
    tmat, z = scipy.linalg.schur(umat, output="complex")
    theta = np.angle(np.diagonal(tmat))
    return (z * theta) @ z.conj().T


def _exp_hermitian_stack(irrep: SUIrrepLabel, hmat: np.ndarray) -> np.ndarray:
    amat = np.einsum("ij,ijrs->rs", hmat, _generator_stack(irrep))
    amat = (amat + amat.conj().T) / 2.0
    w, v = np.linalg.eigh(amat)
    return (v * np.exp(1j * w)) @ v.conj().T


def lift(irrep: SUIrrepLabel, element: UnitaryElement) -> LiftedRep:
    """Matrix of ``element`` in the given irrep.

    The element's principal logarithm iH is pushed through the generator map
    and exponentiated, so the result is unitary up to eigensolver accuracy.
    It does not depend on the logarithm's branch: the weights are integral,
    so a diagonal phase e^{i theta} lifts to e^{i n.theta} with integer
    occupations n, and eigenvalues at -1 lift exactly.
    """
    if not isinstance(element, UnitaryElement):
        raise DomainError("lift expects a UnitaryElement (use UnitaryElement.from_matrix)")
    if element.m != irrep.m:
        raise DomainError(f"element acts on {element.m} modes, irrep has m = {irrep.m}")
    d, cap = dim_weyl(irrep), max_lift_dim()
    if d > cap:
        raise ResourceLimitError(f"irrep dimension {d} exceeds the dense-lift cap {cap}")
    return LiftedRep(irrep, _exp_hermitian_stack(irrep, _principal_log(element.matrix)))


def weight_block_trace(lifted: LiftedRep, occupation) -> complex:
    """Sum of the diagonal group functions whose pattern has ``occupation``."""
    target = tuple(occupation)
    total = 0.0 + 0.0j
    for i, occ in enumerate(occupations(lifted.irrep)):
        if occ == target:
            total += lifted.matrix[i, i]
    return total


def dfunction(irrep: SUIrrepLabel, r: GTPattern, t: GTPattern, element: UnitaryElement) -> complex:
    """Group function D^{(irrep)}_{rt}: the (r, t) entry of the lifted matrix."""
    return lift(irrep, element).entry(r, t)

