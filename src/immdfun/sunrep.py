"""Irreducible SU(m) representations in the Gelfand-Tsetlin basis.

A GT pattern is a triangular integer array whose rows are the highest
weights of the chain u(m) > u(m-1) > ... > u(1); each valid pattern labels
one basis vector.  Generator matrix elements follow the classical
Gelfand-Tsetlin formulas with the standard phase convention: simple raising
and lowering operators have real nonnegative entries.  A group element is
lifted to an irrep as a product: it is factored into diagonal phases and
real rotations of adjacent modes (Reck et al., PRL 73, 58 (1994)), each
phase lifts to a diagonal through the pattern occupations, and each
rotation through a cached eigenbasis of its generator.  The lift may read
only some columns, at O(d^2) each, and lifts a batch of elements at once:
elements with one rotation sequence share each rotation's matrix product.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from types import MappingProxyType

import numpy as np

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


def check_lift_dim(irrep: SUIrrepLabel) -> None:
    """Refuse an irrep whose dimension exceeds :func:`max_lift_dim`."""
    d, cap = dim_weyl(irrep), max_lift_dim()
    if d > cap:
        raise ResourceLimitError(f"irrep dimension {d} exceeds the dense-lift cap {cap}")


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

    def __repr__(self):
        return f"SU({self.m}){self.row}"


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
        if len(upper) == 1:
            yield (upper,)
            return
        ranges = (range(upper[i], upper[i + 1] - 1, -1) for i in range(len(upper) - 1))
        for lower in product(*ranges):
            for rest in extend(lower):
                yield (upper,) + rest

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


@cache
def weight_blocks(irrep: SUIrrepLabel) -> Mapping[tuple[int, ...], np.ndarray]:
    """Ascending basis positions (:func:`gt_basis` order) of each Cartan weight.

    Keys are Cartan weights (n_1 - n_2, ...), so occupations shifted by the
    (1, ..., 1) direction select the same block.  The mapping and its arrays
    are read-only.
    """
    blocks = {}
    for i, occ in enumerate(occupations(irrep)):
        blocks.setdefault(tuple(a - b for a, b in zip(occ, occ[1:])), []).append(i)
    for weight, idx in blocks.items():
        blocks[weight] = np.array(idx, dtype=np.intp)
        blocks[weight].flags.writeable = False
    return MappingProxyType(blocks)


def weight_subspace(irrep: SUIrrepLabel, w) -> tuple[GTPattern, ...]:
    """Basis patterns whose Cartan weight matches ``w``, in canonical order
    (see :func:`weight_blocks`).  Accepts a WeightVector or a bare
    occupation tuple."""
    if not isinstance(w, WeightVector):
        w = WeightVector(tuple(w))
    basis = gt_basis(irrep)
    return tuple(basis[i] for i in weight_blocks(irrep).get(w.cartan, ()))


def chain_label(pattern: GTPattern) -> str:
    """Human-readable chain string: occupations, then subgroup labels.

    Each chain entry is the round label of one pattern row (trailing zeros
    dropped); the final su(2) entry is written as the half-integer J.
    """
    occ = weight_of(pattern).occupation
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
# simple raising tables
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


@cache
def _simple_raising(irrep: SUIrrepLabel, k: int) -> np.ndarray:
    """Read-only matrix of C_{k,k+1} in the GT basis (real, nonnegative entries).

    Raising entry j of the k-entry row by one keeps the pattern valid unless
    it reaches entry j of the row above or entry j-1 of the row below.
    """
    basis = gt_basis(irrep)
    index = pattern_index(irrep)
    d = len(basis)
    mat = np.zeros((d, d))
    m = irrep.m
    for col, pat in enumerate(basis):
        upper, row = pat.rows[m - k - 1], pat.rows[m - k]
        for j, x in enumerate(row):
            if x >= upper[j] or (j >= 1 and x >= pat.rows[m - k + 1][j - 1]):
                continue
            rows = list(pat.rows)
            rows[m - k] = row[:j] + (x + 1,) + row[j + 1 :]
            mat[index[GTPattern(tuple(rows))], col] = _raising_entry(pat, k, j)
    mat.flags.writeable = False
    return mat


# ---------------------------------------------------------------------------
# lifting group elements
# ---------------------------------------------------------------------------


@cache
def _rotation_tables(irrep: SUIrrepLabel) -> tuple[np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
    """Read-only float occupations, and (w, V, V^T) for every adjacent mode pair.

    The real orthogonal V diagonalises the symmetric S_k = C_{k,k+1} + C_{k+1,k}
    with eigenvalues w, so B_k(theta) lifts to V diag(e^{-i theta w}) V^T.
    C_{k,k+1} changes only the pattern row with k+1 entries, so S_k is block
    diagonal over the patterns that agree on every other row; the blocks of
    one size are diagonalised in one stacked call, and each is checked
    orthogonal on its own.
    """
    m, d = irrep.m, dim_weyl(irrep)
    occ = np.array(occupations(irrep), dtype=np.float64)
    occ.flags.writeable = False
    eigen = []
    for k in range(m - 1):
        blocks: dict[tuple, list[int]] = {}
        for i, pat in enumerate(gt_basis(irrep)):
            blocks.setdefault(pat.rows[: m - k - 1] + pat.rows[m - k :], []).append(i)
        raising = _simple_raising(irrep, k + 1)
        smat = raising + raising.T
        by_size: dict[int, list[list[int]]] = {}
        for idx in blocks.values():
            by_size.setdefault(len(idx), []).append(idx)
        w, v = np.empty(d), np.zeros((d, d))
        for size, group in by_size.items():
            idx = np.array(group)  # one row of basis positions per block
            block = (idx[:, :, None], idx[:, None, :])
            w[idx], v[block] = np.linalg.eigh(smat[block])
            defect = np.abs(v[block].transpose(0, 2, 1) @ v[block] - np.eye(size)).max()
            if not defect <= 1e-12:
                raise DomainError(
                    f"rotation eigenbasis {k} of {irrep} is not orthogonal: {defect:.3e}"
                )
        vt = v.T.copy()
        for arr in (w, v, vt):
            arr.flags.writeable = False
        eigen.append((w, v, vt))
    return occ, tuple(eigen)


# Complex entries (128 KB) in one working array of a batched lift: a larger
# batch is cut into chunks of elements, so its scratch memory beyond the
# (S, d, c) result does not grow with S.
LIFT_BATCH_ENTRIES = 2**13


def _real_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z over z's first axis, for a real matrix a and a complex z, as
    one real product over z's interleaved real and imaginary parts."""
    flat = np.ascontiguousarray(z).reshape(len(z), -1).view(np.float64)
    return (a @ flat).view(np.complex128).reshape(z.shape)


def lift_batch(irrep: SUIrrepLabel, elements, cols=None) -> np.ndarray:
    """Columns ``cols`` (0-based, distinct, GT basis order; all of them for
    None) of the matrices of ``elements`` in the irrep: an (S, d, len(cols))
    array, slice s for element s.

    Each element is factored into diagonal phases and adjacent-mode
    rotations once (:attr:`UnitaryElement.givens_factors`, cached on the
    element for every later lift), and the factors' lifts are applied
    right to left to unit columns: a phase diag(e^{i phi}) lifts to
    diag(e^{i n.phi}) with the integer occupations n, and a rotation through
    a cached real eigenbasis of its generator.  Elements with the same
    rotation sequence share one (d, S * len(cols)) product per rotation,
    S elements at a time within :data:`LIFT_BATCH_ENTRIES`.  No logarithm
    is taken, so eigenvalues at -1 lift exactly.
    Each column costs O(d^2).  Columns, elements and the dimension cap are
    checked before any product.
    """
    d = dim_weyl(irrep)
    if cols is None:
        idx = np.arange(d)
    else:
        cols = list(cols)
        valid = (isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in cols)
        if not (all(valid) and all(0 <= c < d for c in cols)):
            raise DomainError(f"columns must be integers in 0..{d - 1}, got {cols}")
        if len(set(cols)) != len(cols):
            raise DomainError(f"columns must be distinct, got {cols}")
        idx = np.array(cols, dtype=np.intp)
    elements = list(elements)
    for element in elements:
        if not isinstance(element, UnitaryElement):
            raise DomainError("lift expects a UnitaryElement (use UnitaryElement.from_matrix)")
        if element.m != irrep.m:
            raise DomainError(f"element acts on {element.m} modes, irrep has m = {irrep.m}")
    check_lift_dim(irrep)
    c = len(idx)
    out = np.empty((len(elements), d, c), dtype=np.complex128)
    if not elements:
        return out
    occ, eigen = _rotation_tables(irrep)
    groups: dict[tuple[int, ...], list[int]] = {}
    factors = [element.givens_factors for element in elements]
    for s, (rotations, _) in enumerate(factors):
        groups.setdefault(tuple(k for k, _ in rotations), []).append(s)
    step = max(1, LIFT_BATCH_ENTRIES // max(1, d * c))
    batches = [
        (ks, members[i : i + step])
        for ks, members in groups.items()
        for i in range(0, len(members), step)
    ]
    for ks, members in batches:
        # x is (d, S, c): the columns of the chunk's S elements side by side
        phases = np.empty((d, len(members), len(ks) + 1), dtype=np.complex128)
        for j, s in enumerate(members):
            phases[:, j] = np.exp(1j * (occ @ factors[s][1]))
        thetas = np.array([[theta for _, theta in factors[s][0]] for s in members])
        x = None  # the unit columns idx times the last phase, until a rotation mixes them
        for i in range(len(ks) - 1, -1, -1):
            w, v, vt = eigen[ks[i]]
            y = vt[:, None, idx] * phases[idx, :, -1].T if x is None else _real_times(vt, x)
            turn = np.exp(-1j * thetas[:, i] * w[:, None])
            x = phases[:, :, i, None] * _real_times(v, turn[:, :, None] * y)
        if x is None:
            x = np.zeros((d, len(members), c), dtype=np.complex128)
            x[idx, :, np.arange(c)] = phases[idx, :, -1]
        x = x.transpose(1, 0, 2)
        out[members] = x
        defect = np.abs(x.conj().transpose(0, 2, 1) @ x - np.eye(c)).max(initial=0.0)
        if not defect <= 1e-10:
            raise DomainError(f"the lift into {irrep} lost orthonormality: defect {defect:.3e}")
    return out


def lift(irrep: SUIrrepLabel, element: UnitaryElement, cols=None) -> np.ndarray:
    """Columns ``cols`` of the matrix of ``element`` in the irrep, a
    (d, len(cols)) array: the one slice of :func:`lift_batch`."""
    return lift_batch(irrep, [element], cols)[0]


def dfunction(irrep: SUIrrepLabel, r: GTPattern, t: GTPattern, element: UnitaryElement) -> complex:
    """Group function D^{(irrep)}_{rt}: the (r, t) entry of the lifted
    matrix, read from the single lifted column t."""
    index = pattern_index(irrep)
    if r not in index or t not in index:
        raise DomainError("patterns do not belong to this irrep")
    return complex(lift(irrep, element, [index[t]])[index[r], 0])

