"""The duality route to immanants of submatrices, on plain amplitude arrays.

The symmetric group permutes the factors of (C^m)^(x N), SU(m) acts
diagonally, and the two actions commute.  Hence
Imm^{p}(U[k, q]) = <Phi_k| U^(x N) Pi^{p} |Phi_q> with the unnormalized
projector Pi^{p} = sum_s chi^{p}(s) P(s).  Only the columns q of the rows
U[k_t] meet Pi^{p}|Phi_q>, so the same number is
<1..N| A^(x N) Pi^{p} |1..N> with A = U[k, q]:
:func:`immanant_via_duality_stack` scatters Pi^{p}|1..N> onto N^N complex
amplitudes (row-major, first factor most significant) and contracts them
from the bra side with the rows of A, independently of the character-sum
route in :mod:`immdfun.linalgimm`.

:func:`coefficient_matrix` couples the same immanant to group functions.
Its entries are overlaps of the kept-mode basis states with chain vectors:
the highest-weight vectors of each irrep copy, lowered with the simple
lowering operators whose matrix elements are pinned to the Gelfand-Tsetlin
values of :mod:`immdfun.sunrep`.  The chain vectors therefore reproduce that
module's group functions entrywise, phases included.  They are held one
computational weight block of (C^m)^(x N) at a time: :func:`_block` lists
the codes of the states with given mode counts, :func:`_block_hop` moves
one excitation between two blocks, and no table spans all m^N states.
Each weight's chain vectors are solved and cached once
(:func:`_chain_block`), and a coefficient matrix solves only the weights
it reads and those above them (:func:`_chain_vectors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import sunrep
from .errors import DomainError, ResourceLimitError
from .linalgimm import SubmatrixSelector, _check_range
from .symgroup import Partition, character_weights, dim_sym
from .sunrep import SUIrrepLabel, occupations, raising_tables, weight_block

TENSOR_SIZE_CAP = 10**6


def _tensor_size(m: int, n: int) -> int:
    """m^n, refused above :data:`TENSOR_SIZE_CAP`."""
    if m**n > TENSOR_SIZE_CAP:
        raise ResourceLimitError(
            f"tensor space {m}^{n} = {m ** n} amplitudes exceeds cap {TENSOR_SIZE_CAP}"
        )
    return m**n


@cache
def _block(m: int, occ: tuple[int, ...]) -> np.ndarray:
    """Ascending codes (row-major, first factor most significant) of the
    basis states of (C^m)^(x N), N = sum(occ), whose mode counts are
    ``occ``; read-only.  The states whose first factor is in mode a are
    a m^(N-1) plus the block with one excitation of mode a removed, so the
    block costs its own size given the blocks one excitation smaller."""
    n = sum(occ)
    parts = [
        a * m ** (n - 1) + _block(m, occ[:a] + (occ[a] - 1,) + occ[a + 1 :])
        for a in range(m)
        if occ[a]
    ]
    out = np.concatenate(parts) if parts else np.zeros(1, dtype=np.int64)
    out.flags.writeable = False
    return out


def _block_hop(m: int, occ: tuple[int, ...], i_from: int, i_to: int) -> np.ndarray:
    """Matrix of sum_t |..i_to..><..i_from..| (modes 1-based and distinct,
    t over factors) from the computational block ``occ`` to the block it
    moves to; each factor in mode i_from moves a column to a distinct row."""
    occ_dst = list(occ)
    occ_dst[i_from - 1] -= 1
    occ_dst[i_to - 1] += 1
    src, dst = _block(m, occ), _block(m, tuple(occ_dst))
    powers = m ** np.arange(sum(occ) - 1, -1, -1)
    factor, b = np.nonzero(src // powers[:, None] % m == i_from - 1)
    mat = np.zeros((len(dst), len(src)))
    mat[np.searchsorted(dst, src[b] + (i_to - i_from) * powers[factor]), b] = 1.0
    return mat


def _mode_index(m: int, modes: tuple[int, ...]) -> int:
    idx = 0
    for k in modes:
        if not 1 <= k <= m:
            raise DomainError(f"mode {k} outside 1..{m}")
        idx = idx * m + (k - 1)
    return idx


def state_weight(m: int, modes: tuple[int, ...]) -> tuple[int, ...]:
    """Mode occupations of a computational basis state."""
    occ = [0] * m
    for k in modes:
        occ[k - 1] += 1
    return tuple(occ)


def immanant_projector(p: Partition) -> np.ndarray:
    """Amplitudes of sum_s chi^{p}(s) P(s) |1, 2, .., N> on N^N basis
    states; unnormalized (the sum squares to (N!/dim p) itself).

    P(s) carries the excitation of factor j to factor s(j), so the basis
    state reached by s has modes s^-1 + 1, and each s reaches its own
    state of the (1, .., 1) block.  That block, ascending, lists S_N in
    lexicographic order, the order of ``character_weights``, and
    chi(s^-1) = chi(s).  N^N is capped at :data:`TENSOR_SIZE_CAP`
    (N <= 7), checked before S_N is built.
    """
    n = p.n
    out = np.zeros(_tensor_size(n, n), dtype=np.complex128)
    out[_block(n, (1,) * n)] = character_weights(p)
    return out


@cache
def _lowering_order(m: int, row: tuple[int, ...]):
    """The label of the u(m) irrep ``row``, its raising triples, and the
    pattern positions of each of its weights, in lowering order: by level
    (simple lowerings below the top), then by first pattern."""
    label = SUIrrepLabel(m, row)
    depth = lambda o: -sum(o[k] * (m - 1 - k) for k in range(m))
    weights = sorted(dict.fromkeys(map(tuple, occupations(label).tolist())), key=depth)
    return label, raising_tables((label,)), {o: weight_block(label, o) for o in weights}


@cache
def _lowering_system(m: int, row: tuple[int, ...], occ: tuple[int, ...]):
    """The equations that fix the chain vectors at weight ``occ`` below the
    top: per simple lowering C_{i+1,i} from a weight occ + e_i - e_{i+1} of
    the irrep, (i, that weight, the positions in its block of the patterns
    that C_{i,i+1} reaches), and the stacked rows of C_{i,i+1} on them,
    read-only."""
    _, raising, blocks = _lowering_order(m, row)
    idx = blocks[occ]
    kept, rows = [], []
    for i in range(1, m):
        occ_up = list(occ)
        occ_up[i - 1] += 1
        occ_up[i] -= 1
        upper = blocks.get(tuple(occ_up))
        if upper is None:
            continue
        # C_{i,i+1} from this block's patterns, which it raises into upper
        src, dst, amp = raising[i - 1]
        at = np.minimum(np.searchsorted(idx, src), len(idx) - 1)
        hit = idx[at] == src
        raise_block = np.zeros((len(upper), len(idx)))
        raise_block[np.searchsorted(upper, dst[hit]), at[hit]] = amp[hit]
        live = raise_block.any(axis=1)
        if live.any():
            kept.append((i, tuple(occ_up), np.flatnonzero(live)))
            rows.append(raise_block[live])
    arows = np.vstack(rows)
    arows.flags.writeable = False
    return tuple(kept), arows


@cache
def _chain_block(m: int, row: tuple[int, ...], occ: tuple[int, ...]) -> np.ndarray:
    """Chain vectors of the irrep ``row`` at weight ``occ``: a read-only
    (patterns, block size, copies) array, entry j on the computational
    block ``occ`` for the pattern ``weight_block(label, occ)[j]``.

    Lowering the blocks above gives, per upper pattern, one known GT
    combination of this block's chain vectors; they are solved for by least
    squares.  Called by :func:`_chain_vectors` in lowering order, so every
    block above is already cached when it is read.
    """
    if occ == row:
        # highest-weight vectors: common null space of the simple raisings
        # (C_{i,i+1} moves an excitation from mode i+1 to mode i)
        stacked = [_block_hop(m, row, i + 1, i) for i in range(1, m) if row[i] != 0]
        if not stacked:
            null = np.eye(len(_block(m, row)))
        else:
            _, svals, vh = np.linalg.svd(np.vstack(stacked))
            rank = int((svals > 1e-10 * max(1.0, svals[0])).sum())
            null = vh[rank:].conj().T
        out = null.astype(np.complex128)[None]
    else:
        kept, arows = _lowering_system(m, row, occ)
        # read before this block's arrays exist (a cache hit in lowering order)
        uppers = [_chain_block(m, row, occ_up) for _, occ_up, _ in kept]
        brows = []
        for (i, occ_up, live), upper in zip(kept, uppers):
            hop = _block_hop(m, occ_up, i, i + 1)  # C_{i+1,i}
            brows += [hop @ upper[j] for j in live]
        bmat = np.stack(brows, axis=0)  # (n_eq, blocksize, n_copies)
        sol, *_ = np.linalg.lstsq(arows, bmat.reshape(len(brows), -1), rcond=None)
        out = sol.reshape(arows.shape[1], *bmat.shape[1:])
    out.flags.writeable = False
    return out


def _chain_vectors(
    m: int, factors: int, row: tuple[int, ...], weights
) -> dict[tuple[int, ...], np.ndarray]:
    """Chain vectors of every copy of the u(m) irrep ``row`` in (C^m)^(x N)
    at each weight (mode counts) of ``weights``, as :func:`_chain_block`
    arrays; column alpha of each belongs to copy alpha.

    Only the upper closure of ``weights`` is solved: the weights nu of the
    irrep for which nu - mu is a nonnegative sum of simple roots
    e_i - e_{i+1} for some mu of ``weights``, the blocks the lowering to mu
    reads.  The tensor power is read only through :func:`_block` and
    :func:`_block_hop`, one weight block at a time.  m^N is checked against
    :data:`TENSOR_SIZE_CAP` first; an irrep whose box count is not N has no
    copies and an empty dict.  Then every closure weight's stacked system
    (equations x block size x copies, the f_p copies of Schur-Weyl
    duality) is checked against ``sunrep.ENTRY_CAP`` in lowering order,
    before the first is solved, so a refused call caches no block.
    """
    _tensor_size(m, factors)
    if sum(row) != factors:
        return {}
    label, _, blocks = _lowering_order(m, row)
    # nu - mu is such a sum exactly when each partial sum of nu covers mu's
    above = np.cumsum(list(blocks), axis=1)[:, None] >= np.cumsum(np.reshape(weights, (-1, m)), 1)
    closure = [nu for nu, up in zip(blocks, above.all(axis=2).any(axis=1)) if up]
    copies = dim_sym(Partition([x for x in row if x]))
    for occ in closure[1:]:  # the top weight solves no system
        _, arows = _lowering_system(m, row, occ)
        blocksize = len(_block(m, occ))
        entries = len(arows) * blocksize * copies
        if entries > sunrep.ENTRY_CAP:  # read at call time
            raise ResourceLimitError(
                f"the chain vectors of {label} at weight {occ} solve"
                f" {len(arows)} x {blocksize} x {copies} = {entries} entries,"
                f" over the entry cap {sunrep.ENTRY_CAP}"
            )
    for occ in closure:
        _chain_block(m, row, occ)
    return {mu: _chain_block(m, row, mu) for mu in weights}


@dataclass
class CoefficientMatrix:
    """Matrix M with Imm^{p}(submatrix)_{kq} = sum_{rs} M_rs D^{(p)}_{rs}.

    Rows are the basis positions ``row_index`` of ``label`` at the weight
    of the kept-rows state, and columns the positions ``col_index`` at the
    weight of the kept-columns state.  Gram-type: Hermitian positive
    semidefinite whenever k = q.
    """

    label: SUIrrepLabel
    row_index: np.ndarray
    col_index: np.ndarray
    entries: np.ndarray


def _check_pair(m: int, p: Partition, k, q) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The selector pair (k, q) as int tuples, refused unless it is a
    :class:`SubmatrixSelector` within 1..m whose size p partitions."""
    sel = SubmatrixSelector(k, q)
    if p.n != sel.size:
        raise DomainError(f"partition {p} is not a partition of the selector size {sel.size}")
    _check_range(sel, m)
    return sel.rows, sel.cols


def coefficient_matrix(m: int, p: Partition, k, q) -> CoefficientMatrix:
    """Group-element-free coefficient matrix coupling Imm^{p}_{kq} to D-blocks.

    Built from overlaps of the kept-mode basis states with the chain-adapted
    copies: M_rs = (N!/dim p) sum_alpha <Phi_k|psi^a_r><psi^a_s|Phi_q>.
    """
    k, q = _check_pair(m, p, k, q)
    n = len(k)
    label = SUIrrepLabel.from_partition(p, m, normalize=False)
    wk, wq = state_weight(m, k), state_weight(m, q)
    blocks = _chain_vectors(m, n, label.row, (wk, wq))  # refuses an over-cap tensor space first
    row_index, col_index = weight_block(label, wk), weight_block(label, wq)
    pos_k, pos_q = (np.searchsorted(_block(m, w), _mode_index(m, s)) for w, s in ((wk, k), (wq, q)))
    left, right = np.array(blocks[wk][:, pos_k]), np.array(blocks[wq][:, pos_q])
    return CoefficientMatrix(
        label=label,
        row_index=row_index,
        col_index=col_index,
        entries=math.factorial(n) / dim_sym(p) * (left @ right.conj().T),
    )


def immanant_via_duality_stack(m: int, p: Partition, pairs, mats) -> np.ndarray:
    """<Phi_k| U^(xN) Pi^{p} |Phi_q> for every selector pair (k, q) of
    ``pairs`` and every U of an (S, m, m) stack, as a (K, S) complex array,
    from one contraction.

    The value is <1..N| A^(xN) Pi^{p} |1..N> with A = U[k, q], so one
    projector on N^N amplitudes serves every pair.  N vector-tensor
    products with the rows A[t] = U[k_t, q], one factor each and all pairs
    and matrices at once, reduce it to S numbers per pair in O(K S N^N).
    Each product keeps the (1, N) @ (N, N^j) shape and strides of a single
    pair's, so row j equals the one-pair call bit for bit.  Equals the
    character-sum immanant of each (k, q) submatrix; the route slices U
    itself and shares nothing with that evaluation, which makes it the
    master cross-check.  :func:`immanant_projector` caps N^N.
    """
    pairs = [_check_pair(m, p, k, q) for k, q in pairs]
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1:] != (m, m):
        raise DomainError("element size does not match m")
    n, amps = p.n, immanant_projector(p)
    rows, cols = (np.array(sel, dtype=np.intp).reshape(-1, n) - 1 for sel in zip(*pairs))
    out = np.broadcast_to(amps, (len(pairs), len(mats), amps.size))
    for t in range(n):  # the first factor is the most significant axis
        left = mats[:, rows[:, t, None], cols].transpose(1, 0, 2)[:, :, None, :]
        out = (left @ out.reshape(*out.shape[:2], n, out.shape[2] // n))[:, :, 0]
    return out[:, :, 0]


def coefficient_matrix_value(cm: CoefficientMatrix, lifted: np.ndarray, cols, rows):
    """Contract a coefficient matrix against a lifted irrep matrix whose
    columns and rows are the ascending basis positions ``cols`` and
    ``rows``: a complex for one (r, c) lift, an (S,) array for an
    (S, r, c) stack."""
    col_pos, row_pos = np.searchsorted(cols, cm.col_index), np.searchsorted(rows, cm.row_index)
    # C order, as one lift's np.ix_ block has: the sum's order follows the layout
    block = np.ascontiguousarray(lifted[..., row_pos[:, None], col_pos])
    return np.sum(cm.entries * block, axis=(-2, -1))
