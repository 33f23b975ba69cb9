"""N-fold tensor powers of the defining SU(m) representation.

The symmetric group permutes tensor factors, SU(m) acts diagonally, and the
two actions commute; this module exploits that to evaluate immanants of
submatrices as matrix elements between chain-adapted states, entirely
independently of the character-sum route in :mod:`immdfun.linalgimm`.

Chain-adapted subspaces are built by extracting highest-weight vectors of
each irrep copy and descending with simple lowering operators whose matrix
elements are pinned to the Gelfand-Tsetlin values from :mod:`immdfun.sunrep`.
The resulting vectors therefore reproduce that module's group functions
entrywise, not just trace-wise, and keep phases aligned with the standard
GT convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, ResourceLimitError
from .linalgimm import UnitaryElement, as_square
from .symgroup import Partition, Permutation, character_weights, dim_sym, sn_tables
from .sunrep import (
    GTPattern,
    SUIrrepLabel,
    WeightVector,
    _simple_raising,
    gt_basis,
    occupations,
    pattern_index,
    weight_blocks,
    weight_subspace,
)

TENSOR_SIZE_CAP = 10**6
DUALITY_M_CAP = 6
DUALITY_N_CAP = 6


@dataclass
class TensorState:
    """State in the N-fold tensor power of C^m.

    Amplitudes are indexed by mode tuples (k_1, ..., k_N), k in 1..m, in
    row-major order (first factor most significant).  Norms are reported,
    never forced: projected states stay unnormalized.
    """

    m: int
    factors: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.m**self.factors,):
            raise DomainError(
                f"amplitude vector has shape {amps.shape}, expected ({self.m ** self.factors},)"
            )
        if not np.all(np.isfinite(amps)):
            raise DomainError("amplitudes must be finite")
        self.amplitudes = amps

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@cache
def _digits(m: int, n: int) -> np.ndarray:
    """Read-only (m^n, n) table of the 0-based mode of each factor in every
    basis state i; ``i = _digits(m, n)[i] @ _powers(m, n)``."""
    if m**n > TENSOR_SIZE_CAP:
        raise ResourceLimitError(f"tensor space m^N = {m ** n} exceeds cap {TENSOR_SIZE_CAP}")
    idx = np.arange(m**n, dtype=np.int64)
    out = np.empty((m**n, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = idx % m
        idx //= m
    out.flags.writeable = False
    return out


@cache
def _powers(m: int, n: int) -> np.ndarray:
    out = np.array([m ** (n - 1 - j) for j in range(n)], dtype=np.int64)
    out.flags.writeable = False
    return out


@cache
def _weight_blocks(m: int, n: int) -> tuple[dict[tuple[int, ...], np.ndarray], np.ndarray]:
    """Computational weight blocks of (C^m)^(x n).

    Returns ``blocks``, mapping each occupation tuple to the ascending basis
    indices with those mode counts, and ``pos``, the position of every basis
    index within its block.  The arrays are read-only; the dict is shared
    and must not be mutated.
    """
    digits = _digits(m, n)
    counts = np.stack([(digits == mode).sum(axis=1) for mode in range(m)], axis=1)
    occs, label = np.unique(counts, axis=0, return_inverse=True)
    label = label.reshape(-1)
    by_block = np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])
    pos = np.empty(m**n, dtype=np.int64)
    blocks = {}
    for occ, block in zip(occs.tolist(), by_block):
        block.flags.writeable = False
        pos[block] = np.arange(block.size)
        blocks[tuple(occ)] = block
    pos.flags.writeable = False
    return blocks, pos


def _hops(m: int, n: int, src: np.ndarray, i_from: int, i_to: int) -> tuple[np.ndarray, np.ndarray]:
    """Moves of one excitation from mode ``i_from`` to mode ``i_to`` (1-based).

    For every factor of basis state ``src[b]`` in mode ``i_from``, returns
    ``b`` and the index of the state with that factor in mode ``i_to``,
    factor by factor.
    """
    factor, b = np.nonzero(_digits(m, n)[src].T == i_from - 1)
    return b, src[b] + (i_to - i_from) * _powers(m, n)[factor]


def _permuted(amps: np.ndarray, digits: np.ndarray, powers: np.ndarray, images) -> np.ndarray:
    """Amplitudes after the factor permutation with 0-based one-line ``images``:
    factor j of each basis state takes the mode of factor ``images[j]``."""
    return amps[digits[:, images] @ powers]


def _mode_index(m: int, modes: tuple[int, ...]) -> int:
    idx = 0
    for k in modes:
        if not 1 <= k <= m:
            raise DomainError(f"mode {k} outside 1..{m}")
        idx = idx * m + (k - 1)
    return idx


def basis_state(m: int, modes: tuple[int, ...]) -> TensorState:
    """Unit computational basis vector with mode k_i on tensor factor i."""
    modes = tuple(int(k) for k in modes)
    amps = np.zeros(m ** len(modes), dtype=np.complex128)
    amps[_mode_index(m, modes)] = 1.0
    return TensorState(m, len(modes), amps)


def state_weight(m: int, modes: tuple[int, ...]) -> WeightVector:
    """Occupation weight of a computational basis state."""
    occ = [0] * m
    for k in modes:
        occ[k - 1] += 1
    return WeightVector(tuple(occ))


def apply_permutation(s: Permutation, v: TensorState) -> TensorState:
    """Left action of S_N on tensor factors: P(a)P(b) = P(a o b).

    P(s) carries the excitation of factor j to factor s(j); on basis states
    the factor-j mode of the image is the factor-s(j) mode of the argument.
    """
    if s.n != v.factors:
        raise DomainError(f"permutation degree {s.n} != factor count {v.factors}")
    images = np.array([img - 1 for img in s.images], dtype=np.int64)
    amps = _permuted(v.amplitudes, _digits(v.m, v.factors), _powers(v.m, v.factors), images)
    return TensorState(v.m, v.factors, amps)


def apply_tensor_power(umat, v: TensorState) -> TensorState:
    """Apply U (x) U (x) ... (x) U without forming the m^N x m^N matrix."""
    umat = as_square(umat)
    if umat.shape[0] != v.m:
        raise DomainError("matrix side does not match the mode count")
    tensor = v.amplitudes.reshape((v.m,) * v.factors)
    for axis in range(v.factors):
        tensor = np.moveaxis(np.tensordot(umat, tensor, axes=(1, axis)), 0, axis)
    return TensorState(v.m, v.factors, tensor.reshape(-1))


def immanant_projector(p: Partition, v: TensorState) -> TensorState:
    """Apply sum_s chi^{p}(s) P(s); unnormalized (squares to (N!/dim p) itself)."""
    if p.n != v.factors:
        raise DomainError(f"partition {p} is not a partition of N = {v.factors}")
    sigmas, _, _ = sn_tables(v.factors)
    digits, powers = _digits(v.m, v.factors), _powers(v.m, v.factors)
    out = np.zeros_like(v.amplitudes)
    for images, w in zip(sigmas, character_weights(p)):
        if w != 0.0:
            out += w * _permuted(v.amplitudes, digits, powers, images)
    return TensorState(v.m, v.factors, out)


class CollectiveOperator:
    """Sum over tensor factors of the one-body matrix unit E_{ij}.

    Acts as a scatter of the :func:`_hops` from mode j to mode i; the
    m^N x m^N matrix is never formed.
    """

    def __init__(self, m: int, factors: int, i: int, j: int):
        if not (1 <= i <= m and 1 <= j <= m):
            raise DomainError(f"mode indices must lie in 1..{m}")
        self.m, self.factors, self.i, self.j = m, factors, i, j

    def __call__(self, v: TensorState) -> TensorState:
        if v.m != self.m or v.factors != self.factors:
            raise DomainError("operator and state shapes differ")
        b, dst = _hops(self.m, self.factors, np.arange(self.m**self.factors), self.j, self.i)
        out = np.zeros_like(v.amplitudes)
        np.add.at(out, dst, v.amplitudes[b])
        return TensorState(self.m, self.factors, out)


# ---------------------------------------------------------------------------
# chain-adapted irrep copies inside the tensor power
# ---------------------------------------------------------------------------


@dataclass
class ChainSubspace:
    """Orthonormal chain-adapted vectors spanning one (irrep, weight) slice.

    ``vectors[a]`` corresponds to ``tags[a] = (pattern, alpha)``.
    """

    irrep: SUIrrepLabel
    weight: WeightVector
    vectors: list[TensorState]
    tags: list[tuple[GTPattern, int]]


class _TensorIrrep:
    """All copies of one u(m) irrep inside (C^m)^(x N), compressed by weight.

    ``blocks[occ]`` lists the global basis indices of a computational weight
    block (see :func:`_weight_blocks`); ``table[pattern]`` holds a
    (blocksize, n_copies) array whose column alpha is copy alpha's chain
    vector supported on that block.
    """

    def __init__(self, m: int, factors: int, label: SUIrrepLabel):
        self.m, self.factors, self.label = m, factors, label
        self.patterns = gt_basis(label)
        self.occupations = occupations(label)
        self.blocks, self._pos = _weight_blocks(m, factors)
        self._build()

    def _hop(self, occ_src, i_from: int, i_to: int) -> tuple[np.ndarray, tuple[int, ...]]:
        """Matrix of sum_t |..i_to..><..i_from..| from block occ_src to its image."""
        occ_dst = list(occ_src)
        occ_dst[i_from - 1] -= 1
        occ_dst[i_to - 1] += 1
        occ_dst = tuple(occ_dst)
        src = self.blocks[occ_src]
        b, dst = _hops(self.m, self.factors, src, i_from, i_to)
        mat = np.zeros((len(self.blocks[occ_dst]), len(src)))
        np.add.at(mat, (self._pos[dst], b), 1.0)
        return mat, occ_dst

    # -- construction ------------------------------------------------------
    def _build(self):
        label, m = self.label, self.m
        top = label.row
        hw_block = self.blocks.get(top)
        if hw_block is None:
            self.n_copies = 0
            self.table = {}
            return
        # highest-weight vectors: common null space of the simple raisings
        stacked = []
        for i in range(1, m):  # C_{i,i+1} moves an excitation from mode i+1 to mode i
            if top[i] == 0:
                continue
            hop, _ = self._hop(top, i + 1, i)
            if hop.size:
                stacked.append(hop)
        if not stacked:
            null = np.eye(len(hw_block))
        else:
            rmat = np.vstack(stacked)
            _, svals, vh = np.linalg.svd(rmat)
            rank = int((svals > 1e-10 * max(1.0, svals[0])).sum())
            null = vh[rank:].conj().T
        self.n_copies = null.shape[1]
        order = pattern_index(label)
        hw_pattern = self.patterns[0]  # canonical order puts the top pattern first
        table: dict[GTPattern, np.ndarray] = {hw_pattern: null.astype(np.complex128)}

        level_of = lambda occ: sum(occ[k] * (m - 1 - k) for k in range(m))
        top_level = level_of(top)
        by_level: dict[int, dict[tuple, list[GTPattern]]] = {}
        for idx in weight_blocks(label).values():
            occ = self.occupations[idx[0]]
            pats = [self.patterns[i] for i in idx]
            by_level.setdefault(top_level - level_of(occ), {})[occ] = pats
        lowering = {i: _simple_raising(label, i).T for i in range(1, m)}

        for lev in sorted(by_level):
            if lev == 0:
                continue
            for occ, pats in by_level[lev].items():
                cols = {p: c for c, p in enumerate(pats)}
                arows, brows = [], []
                for i in range(1, m):
                    occ_up = list(occ)
                    occ_up[i - 1] += 1
                    occ_up[i] -= 1
                    occ_up = tuple(occ_up)
                    if occ_up[i] < 0:
                        continue
                    uppers = [p for p in by_level.get(lev - 1, {}).get(occ_up, [])]
                    if not uppers:
                        continue
                    hop, occ_chk = self._hop(occ_up, i, i + 1)  # C_{i+1,i}: mode i -> i+1
                    assert occ_chk == occ
                    glo = lowering[i]
                    for r in uppers:
                        arow = np.zeros(len(pats))
                        for s in pats:
                            arow[cols[s]] = glo[order[s], order[r]]
                        if not arow.any():
                            continue
                        arows.append(arow)
                        brows.append(hop @ table[r])
                amat = np.array(arows)
                bmat = np.stack(brows, axis=0)  # (n_eq, blocksize, n_copies)
                n_eq = amat.shape[0]
                flat = bmat.reshape(n_eq, -1)
                sol, *_ = np.linalg.lstsq(amat, flat, rcond=None)
                sol = sol.reshape(len(pats), -1, self.n_copies)
                for s in pats:
                    table[s] = sol[cols[s]]
        self.table = table

    # -- accessors ----------------------------------------------------------
    def amplitude(self, pattern: GTPattern, global_idx: int) -> np.ndarray:
        """Per-copy amplitudes <basis idx | psi^alpha_pattern>, shape (n_copies,)."""
        block = self.blocks[self.occupations[pattern_index(self.label)[pattern]]]
        pos = self._pos[global_idx]
        if pos >= len(block) or block[pos] != global_idx:
            return np.zeros(self.n_copies, dtype=np.complex128)
        return self.table[pattern][pos]

    def dense_vector(self, pattern: GTPattern, alpha: int) -> np.ndarray:
        occ = self.occupations[pattern_index(self.label)[pattern]]
        out = np.zeros(self.m**self.factors, dtype=np.complex128)
        out[self.blocks[occ]] = self.table[pattern][:, alpha]
        return out


@cache
def _tensor_irrep(m: int, factors: int, row: tuple[int, ...]) -> _TensorIrrep:
    return _TensorIrrep(m, factors, SUIrrepLabel(m, row))


def tensor_power_row(irrep: SUIrrepLabel, factors: int) -> tuple[int, ...] | None:
    """u(m) row (box count = N) carrying the SU content of ``irrep``, or None."""
    shift, rem = divmod(factors - irrep.boxes, irrep.m)
    if rem != 0 or shift < 0:
        return None
    return tuple(x + shift for x in irrep.row)


def chain_subspace(m: int, factors: int, irrep: SUIrrepLabel, weight) -> ChainSubspace:
    """Orthonormal chain-adapted vectors of the (irrep, weight) isotypic slice.

    Absent irreps yield an empty subspace, not an error.  Vectors are tagged
    by GT pattern (with the N-box top row) and multiplicity index alpha.
    """
    if m**factors > TENSOR_SIZE_CAP:
        raise ResourceLimitError(f"m^N = {m ** factors} exceeds cap {TENSOR_SIZE_CAP}")
    if not isinstance(weight, WeightVector):
        weight = WeightVector(tuple(weight))
    row = tensor_power_row(irrep, factors)
    if row is None:
        return ChainSubspace(irrep, weight, [], [])
    rep = _tensor_irrep(m, factors, row)
    vectors, tags = [], []
    for p in weight_subspace(rep.label, weight):
        for alpha in range(rep.n_copies):
            vectors.append(TensorState(m, factors, rep.dense_vector(p, alpha)))
            tags.append((p, alpha))
    return ChainSubspace(irrep, weight, vectors, tags)


# ---------------------------------------------------------------------------
# coefficient matrices and the duality route to immanants
# ---------------------------------------------------------------------------


@dataclass
class CoefficientMatrix:
    """Matrix M with Imm^{p}(submatrix)_{kq} = sum_{rs} M_rs D^{(p)}_{rs}.

    Rows are tagged by GT patterns at the weight of the kept-rows state, and
    columns by patterns at the weight of the kept-columns state;
    ``row_index`` and ``col_index`` are their basis positions.  Gram-type:
    Hermitian positive semidefinite whenever k = q.
    """

    partition: Partition
    m: int
    rows_selector: tuple[int, ...]
    cols_selector: tuple[int, ...]
    left_weight: WeightVector
    right_weight: WeightVector
    row_patterns: tuple[GTPattern, ...]
    col_patterns: tuple[GTPattern, ...]
    row_index: np.ndarray
    col_index: np.ndarray
    entries: np.ndarray


def _check_pair(m: int, p: Partition, k: tuple[int, ...], q: tuple[int, ...]):
    k = tuple(int(x) for x in k)
    q = tuple(int(x) for x in q)
    n = len(k)
    if len(q) != n:
        raise DomainError("row and column selections must have equal length")
    if p.n != n:
        raise DomainError(f"partition {p} is not a partition of the selector size {n}")
    for idx in k + q:
        if not 1 <= idx <= m:
            raise DomainError(f"selector index {idx} outside 1..{m}")
    if len(set(k)) != n or len(set(q)) != n:
        raise DomainError("selector indices must be distinct")
    if sorted(state_weight(m, k).occupation, reverse=True) != sorted(
        state_weight(m, q).occupation, reverse=True
    ):
        raise DomainError("row and column mode counts are not related by a permutation")
    return k, q


def coefficient_matrix(m: int, p: Partition, k, q) -> CoefficientMatrix:
    """Group-element-free coefficient matrix coupling Imm^{p}_{kq} to D-blocks.

    Built from overlaps of the kept-mode basis states with the chain-adapted
    copies: M_rs = (N!/dim p) sum_alpha <Phi_k|psi^a_r><psi^a_s|Phi_q>.
    """
    k, q = _check_pair(m, p, k, q)
    n = len(k)
    rep = _tensor_irrep(m, n, tuple(p.parts) + (0,) * (m - len(p)))
    wk, wq = state_weight(m, k), state_weight(m, q)
    idx_k, idx_q = _mode_index(m, k), _mode_index(m, q)
    blocks = weight_blocks(rep.label)
    row_index, col_index = blocks[wk.cartan], blocks[wq.cartan]
    rows = [rep.patterns[i] for i in row_index]
    cols = [rep.patterns[i] for i in col_index]
    scale = math.factorial(n) / dim_sym(p)
    ent = np.zeros((len(rows), len(cols)), dtype=np.complex128)
    left = {pat: rep.amplitude(pat, idx_k) for pat in rows}
    right = {pat: rep.amplitude(pat, idx_q) for pat in cols}
    for a, r in enumerate(rows):
        for b, s in enumerate(cols):
            ent[a, b] = scale * np.dot(left[r], right[s].conj())
    return CoefficientMatrix(
        partition=p,
        m=m,
        rows_selector=k,
        cols_selector=q,
        left_weight=wk,
        right_weight=wq,
        row_patterns=tuple(rows),
        col_patterns=tuple(cols),
        row_index=row_index,
        col_index=col_index,
        entries=ent,
    )


def immanant_via_duality(m: int, p: Partition, k, q, element: UnitaryElement) -> complex:
    """<Phi_k| U^(xN) Pi^{p} |Phi_q> via sparse tensor application.

    Equals the character-sum immanant of the (k, q) submatrix; the code path
    shares nothing with that evaluation, which makes it the master
    cross-check.
    """
    k, q = _check_pair(m, p, k, q)
    if m > DUALITY_M_CAP or len(k) > DUALITY_N_CAP:
        raise ResourceLimitError(
            f"duality evaluation capped at m <= {DUALITY_M_CAP}, N <= {DUALITY_N_CAP}"
        )
    umat = element.matrix if isinstance(element, UnitaryElement) else as_square(element)
    if umat.shape[0] != m:
        raise DomainError("element size does not match m")
    projected = immanant_projector(p, basis_state(m, q))
    evolved = apply_tensor_power(umat, projected)
    return complex(evolved.amplitudes[_mode_index(m, k)])


def coefficient_matrix_value(cm: CoefficientMatrix, lifted: np.ndarray) -> complex:
    """Contract a coefficient matrix against a lifted irrep matrix."""
    return complex(np.sum(cm.entries * lifted[np.ix_(cm.row_index, cm.col_index)]))
