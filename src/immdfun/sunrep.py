"""Irreducible SU(m) representations in the Gelfand-Tsetlin basis.

A GT pattern is a triangular integer array whose rows are the highest
weights of the chain u(m) > u(m-1) > ... > u(1); each valid pattern labels
one basis vector.  :func:`gt_array` holds all patterns of an irrep as the
rows of one integer array, and every per-irrep table reads it.  Generator
matrix elements follow the classical Gelfand-Tsetlin formulas with the
standard phase convention: simple raising and lowering operators have real
nonnegative entries.  A group element is lifted to an irrep as a product:
it is factored into diagonal phases and real rotations of adjacent modes
(Reck et al., PRL 73, 58 (1994)).  Each phase lifts to a diagonal of
integer powers of e^{i phi} through the pattern occupations, and each
rotation through the GT blocks of its generator, which carry su(2)
representations: a cached eigenbasis per block, with integer eigenvalues.
No dense d x d product and no exponential per basis vector is taken.  A
set of irreps of one m is lifted in one pass, as a direct sum: its raising
triples and rotation blocks are built in one vectorised pass and cached per
sum, the same-size blocks of every irrep share each product, and each
rotation applies only the blocks its columns have reached.  The lift
may read only some columns of each irrep, and lifts a batch of elements
at once: elements with one rotation sequence share each block product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, ResourceLimitError
from .linalgimm import UnitaryElement, givens_factors
from .symgroup import Partition

# The most entries an array that grows with the irrep may hold: a GT array, or
# a set lift's results and its largest working array together.
ENTRY_CAP = 2**22


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
def gt_array(irrep: SUIrrepLabel) -> np.ndarray:
    """All GT patterns of the irrep, as a read-only (d, m(m+1)/2) int64 array.

    Row i is basis vector i: its pattern rows, from the irrep row (m
    entries) down to the single entry, side by side (:func:`_row` gives
    their columns).  This is the basis order of every table, lift and
    report: the rows descend lexicographically, so the highest-weight
    pattern comes first.  Each entry is enumerated, descending, between its
    two neighbours in the row above, so betweenness holds by construction
    and the enumeration order is already the sorted one.  Each column is
    kept as its values and their parents one column before, and composed
    at the end; an array over :data:`ENTRY_CAP` entries is refused first.
    """
    m, d, width = irrep.m, dim_weyl(irrep), irrep.m * (irrep.m + 1) // 2
    if d * width > ENTRY_CAP:
        raise ResourceLimitError(
            f"the GT array of {irrep} holds {d} x {width} entries, over the entry cap {ENTRY_CAP}"
        )
    above, columns = np.array([irrep.row], dtype=np.int64), []
    for length in range(m - 1, 0, -1):  # above: the row above, then the row being filled
        for i in range(length):
            hi, lo = above[:, i], above[:, i + 1]
            counts = hi - lo + 1
            parent = np.repeat(np.arange(len(hi)), counts)
            value = hi[parent] - (np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent])
            columns.append((value, parent))
            above = np.column_stack([above[parent], value])
        above = above[:, length + 1 :]
    pats, at = np.empty((d, width), dtype=np.int64), np.arange(d)
    pats[:, :m] = irrep.row
    for j, (value, parent) in zip(range(width - 1, m - 1, -1), reversed(columns)):
        pats[:, j], at = value[at], parent[at]
    pats.flags.writeable = False
    return pats


def _row(m: int, k: int) -> slice:
    """The columns of :func:`gt_array` that hold the pattern row with k entries."""
    start = (m * (m + 1) - k * (k + 1)) // 2
    return slice(start, start + k)


@cache
def occupations(irrep: SUIrrepLabel) -> np.ndarray:
    """Read-only (d, m) int array of the mode occupations of every basis
    vector: n_k = (sum of the row with k entries) - (sum of the row with k-1)."""
    pats, m = gt_array(irrep), irrep.m
    sums = np.stack([pats[:, _row(m, k)].sum(axis=1) for k in range(1, m + 1)], axis=1)
    occ = np.diff(sums, axis=1, prepend=0)
    occ.flags.writeable = False
    return occ


@cache
def _weight_index(irrep: SUIrrepLabel) -> dict[tuple[int, ...], np.ndarray]:
    """Read-only ascending basis positions of each Cartan weight
    (n_1 - n_2, ...); :func:`weight_block` reads it."""
    occ = occupations(irrep)
    blocks = {}
    for i, weight in enumerate(map(tuple, (occ[:, :-1] - occ[:, 1:]).tolist())):
        blocks.setdefault(weight, []).append(i)
    for weight, idx in blocks.items():
        blocks[weight] = np.array(idx, dtype=np.intp)
        blocks[weight].flags.writeable = False
    return blocks


_NO_BLOCK = np.empty(0, dtype=np.intp)
_NO_BLOCK.flags.writeable = False


def weight_block(irrep: SUIrrepLabel, occupation) -> np.ndarray:
    """Read-only ascending basis positions of the patterns at the mode
    occupations ``occupation`` (m counts), up to a shift along (1, ..., 1),
    which SU normalization absorbs; empty if the irrep has no such weight."""
    occ = tuple(int(x) for x in occupation)
    if len(occ) != irrep.m:
        raise DomainError(f"occupation {occ} must have m = {irrep.m} entries")
    return _weight_index(irrep).get(tuple(a - b for a, b in zip(occ, occ[1:])), _NO_BLOCK)


@cache
def pattern_rows(irrep: SUIrrepLabel) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The rows of every basis pattern as nested tuples, longest row first."""
    m = irrep.m
    return tuple(
        tuple(tuple(flat[_row(m, k)]) for k in range(m, 0, -1))
        for flat in gt_array(irrep).tolist()
    )


@cache
def chain_labels(irrep: SUIrrepLabel) -> tuple[str, ...]:
    """Human-readable chain string of every basis vector: occupations, then
    subgroup labels.

    Each chain entry is the round label of one pattern row below the irrep
    row (trailing zeros dropped); the su(2) entry is written as the
    half-integer J, and u(1) carries no label.
    """
    labels = []
    for occ, rows in zip(occupations(irrep).tolist(), pattern_rows(irrep)):
        parts = [("" if max(occ) < 10 else ",").join(str(x) for x in occ)]
        for r in rows[1:-2]:
            diffs = [a - b for a, b in zip(r, r[1:])]
            while len(diffs) > 1 and diffs[-1] == 0:
                diffs.pop()
            parts.append("(" + ",".join(str(x) for x in diffs) + ")")
        if irrep.m >= 2:
            two_j = rows[-2][0] - rows[-2][1]
            parts.append(f"({two_j // 2})" if two_j % 2 == 0 else f"({two_j}/2)")
        labels.append("".join(parts))
    return tuple(labels)


# ---------------------------------------------------------------------------
# raising and rotation tables, cached per direct sum
# ---------------------------------------------------------------------------
#
# Each builder takes a tuple of distinct irreps of one m, the summands of one
# direct sum, and caches its tables per tuple in the stacked basis: irrep i's
# rows follow those of irreps 0..i-1.  It makes one vectorised pass over the
# stacked gt_array rows.  A pattern's first row is its irrep row, so rows of
# two irreps never compare equal, and no raised pattern or block mixes
# irreps.  Rows are grouped by sorting byte keys: a 1-D np.unique must not
# appear on a cold path, since its first call imports numpy.ma (10-15 ms
# with numpy 2.4 on a 2-CPU x86 host).

Triples = tuple[np.ndarray, np.ndarray, np.ndarray]
Block = tuple[np.ndarray, np.ndarray, np.ndarray]  # rows (B, s), V (B, s, s), w (B, s)
RotationTable = tuple[tuple[Block, ...], ...]  # the blocks of each mode pair


def _row_keys(pats: np.ndarray) -> np.ndarray:
    """One opaque bytes key per pattern row, equal exactly when the rows are."""
    pats = np.ascontiguousarray(pats)
    return pats.view(np.dtype((np.void, pats.itemsize * pats.shape[1])))[:, 0]


def _stacked(irreps: tuple[SUIrrepLabel, ...]):
    """The gt_array rows of ``irreps`` stacked, and each row's irrep index."""
    pats = [gt_array(ir) for ir in irreps]
    return np.concatenate(pats), np.repeat(np.arange(len(irreps)), [len(p) for p in pats])


@cache
def raising_tables(irreps: tuple[SUIrrepLabel, ...]) -> tuple[Triples, ...]:
    """The simple raisings C_{k,k+1}, k = 1..m-1, of the direct sum of
    ``irreps`` (distinct irreps of one m): entry k-1 holds C_{k,k+1} as
    read-only triples (src, dst, amp), one per nonzero matrix element
    amp > 0 at stacked basis positions (dst, src), ascending in src.

    Raising entry j of the k-entry row by one keeps the pattern valid unless
    it reaches entry j of the row above or entry j-1 of the row below.  With
    l_i = x_i - i (1-based i) on each row, the amplitude is
    sqrt(-prod_i (l_i^{k+1} - l_j^k) prod_i (l_i^{k-1} - l_j^k - 1)
    / prod_{i != j} (l_i^k - l_j^k)(l_i^k - l_j^k - 1)), multiplied factor by
    factor in that order for every entry j of every pattern at once, and a
    search of the sorted pattern keys finds every raised pattern.
    """
    m = irreps[0].m
    pats, owner = _stacked(irreps)
    keys = _row_keys(pats)
    order = np.argsort(keys)
    keys = keys[order]
    tables = []
    for k in range(1, m):
        up, row, low = (pats[:, _row(m, n)] for n in (k + 1, k, k - 1))
        l_up, l_row, l_low = (x - np.arange(1, x.shape[1] + 1) for x in (up, row, low))
        valid = row < up[:, :k]
        valid[:, 1:] &= row[:, 1:] < low
        p, j = np.nonzero(valid)
        lj = l_row[p, j]
        num, den = np.ones(len(p)), np.ones(len(p))
        for i in range(k + 1):
            num = num * (l_up[p, i] - lj)
        for i in range(k - 1):
            num = num * (l_low[p, i] - lj - 1)
        for i in range(k):
            gap = l_row[p, i] - lj
            den = den * np.where(j == i, 1, gap * (gap - 1))
        ratio = -num / den
        bad = np.flatnonzero(~(ratio > 0.0))
        if bad.size:
            b = bad[0]
            raise DomainError(
                f"raising entry {j[b]} of row {k} of {irreps[owner[p[b]]]} has a ratio <= 0"
            )
        target = pats[p]
        target[np.arange(len(p)), _row(m, k).start + j] += 1
        triples = p, order[np.searchsorted(keys, _row_keys(target))], np.sqrt(ratio)
        for x in triples:
            x.flags.writeable = False
        tables.append(triples)
    return tuple(tables)


@cache
def rotation_tables(irreps: tuple[SUIrrepLabel, ...]) -> RotationTable:
    """The GT blocks of every adjacent-mode rotation generator of the direct
    sum of ``irreps`` (distinct irreps of one m), read-only.

    The real orthogonal V diagonalises the symmetric S_k = C_{k,k+1} + C_{k+1,k}
    with eigenvalues w, so B_k(theta) lifts to V diag(e^{-i theta w}) V^T.
    C_{k,k+1} changes only the pattern row with k+1 entries, so S_k is block
    diagonal over the patterns that agree on every other row: one stable
    sort of those rows per mode pair finds the blocks, each in ascending
    basis order.  S_k has the spectrum of n_k - n_{k+1}, so every w is an
    integer.  A block of one pattern is zero and is not stored; the larger
    ones of one size, across all irreps and mode pairs, are diagonalised in
    one stacked ``eigh``, and each is checked orthogonal, and its spectrum
    integral, on its own.  Entry k holds S_k's blocks as (rows, V, w) stacks
    of shapes (B, s), (B, s, s) and (B, s), one per block size s, ascending,
    with rows in the stacked basis and w exact integers.  Within a stack the
    blocks run irrep by irrep, in the order of ``irreps``, and each irrep's
    in key order, so an irrep's slice of its rows, shifted back by its
    offset, is its table alone.
    """
    m = irreps[0].m
    pats, owner = _stacked(irreps)
    n = len(pats)
    blocks: dict[int, list[tuple[int, np.ndarray]]] = {}  # size -> (mode pair, (B, size) rows)
    for k in range(m - 1):
        others = np.delete(pats, _row(m, k + 1), axis=1)
        order = np.argsort(_row_keys(others), kind="stable")
        ranked = others[order]
        starts = np.flatnonzero(np.append(True, (ranked[1:] != ranked[:-1]).any(axis=1)))
        sizes = np.diff(starts, append=n)
        for size in sorted(set(sizes[sizes > 1].tolist())):
            rows = order[starts[sizes == size, None] + np.arange(size)]
            blocks.setdefault(size, []).append((k, rows))
    # S_k's blocks side by side in one flat array, one size after another;
    # base/width/place locate each pattern's block at each mode pair
    base, width, place = (np.zeros((m - 1, n), dtype=np.intp) for _ in range(3))
    stacks, total = [], 0
    for size, found in sorted(blocks.items()):  # ascending sizes, as the tables keep them
        ks = np.concatenate([np.full(len(rows), k) for k, rows in found])
        rows = np.concatenate([rows for _, rows in found])
        # each mode pair's blocks are in key order, and every key starts with
        # the irrep row, so a stable sort by mode pair and irrep keeps each
        # irrep's blocks in key order
        by_group = np.argsort(ks * len(irreps) + owner[rows[:, 0]], kind="stable")
        ks, rows = ks[by_group], rows[by_group]
        base[ks[:, None], rows] = total + size * size * np.arange(len(rows))[:, None]
        width[ks[:, None], rows] = size
        place[ks[:, None], rows] = np.arange(size)
        stacks.append((size, ks, rows, total))
        total += size * size * len(rows)
    flat = np.zeros(total)
    for k, (src, dst, amp) in enumerate(raising_tables(irreps)):
        at, step = base[k, src], width[k, src]
        flat[at + place[k, dst] * step + place[k, src]] = amp
        flat[at + place[k, src] * step + place[k, dst]] = amp
    table: list[list[Block]] = [[] for _ in range(m - 1)]
    for size, ks, rows, at in stacks:
        w, vecs = np.linalg.eigh(flat[at : at + size * size * len(rows)].reshape(-1, size, size))
        spins = np.rint(w)
        defect = np.abs(vecs.transpose(0, 2, 1) @ vecs - np.eye(size)).max(axis=(1, 2))
        gap = np.abs(w - spins).max(axis=1)
        for what, flaw, bad, tol in (
            ("eigenbasis", "orthogonal", defect, 1e-12),
            ("spectrum", "integral", gap, 1e-9),
        ):
            b = np.flatnonzero(~(bad <= tol))
            if b.size:
                b = b[0]
                raise DomainError(
                    f"rotation {what} {ks[b]} of {irreps[owner[rows[b, 0]]]} "
                    f"is not {flaw}: {bad[b]:.3e}"
                )
        block = rows, vecs, spins.astype(np.int64)
        for arr in block:
            arr.flags.writeable = False
        bounds = np.flatnonzero(np.diff(ks, prepend=-1, append=-1)).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            table[ks[lo]].append(tuple(arr[lo:hi] for arr in block))
    return tuple(map(tuple, table))


# Complex entries (512 KB) in the shared working array of a set lift: a
# larger batch is cut into chunks of elements, and each phase is lifted when
# it is applied, so its scratch memory beyond the (S, d, c) results and the
# elements' factors is a fixed multiple of one chunk, whatever the element
# and rotation counts.
LIFT_BATCH_ENTRIES = 2**15


def _phase_diagonal(occ: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The diagonals e^{i n.phi} of one lifted phase of S elements, as a
    (d, S) array, from the (d, m) integer occupations n and the phase's
    (m, S) angles phi: one ``exp`` per angle, raised to each occupation by
    products of two lower powers (so z^n carries about log2 n roundings),
    then multiplied mode by mode.  Column s equals the one-element call of
    ``angles[:, s:s+1]`` bit for bit, and each entry depends only on its
    own row of ``occ`` and column of ``angles``."""
    z = np.exp(1j * np.ascontiguousarray(angles))  # (m, S)
    powers = [np.ones_like(z), z]
    for n in range(2, occ.max(initial=0) + 1):
        powers.append(powers[n // 2] * powers[n - n // 2])
    powers = np.array(powers)
    diag = powers[occ[:, 0], 0]
    for k in range(1, occ.shape[1]):  # not *: numpy would reuse a large unnamed
        diag = np.multiply(diag, powers[occ[:, k], k])  # operand, rounding apart
    return diag


def _block_times(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v @ z over z's second axis, for real (B, s, s) blocks v and a complex
    (B, s, ...) z, as one batched real product over z's interleaved real
    and imaginary parts."""
    flat = np.ascontiguousarray(z).reshape(*z.shape[:2], -1).view(np.float64)
    return (v @ flat).view(np.complex128).reshape(z.shape)


def _pruned(table: RotationTable, kinds, support: np.ndarray) -> list[list[Block]]:
    """The blocks each rotation of the sequence ``kinds`` applies, right to
    left, starting from the rows ``support`` (a boolean mask) that the lifted
    columns occupy: a block meets the support its columns have reached so
    far, or holds exact zeros there and is skipped.  The plan is structural,
    so it holds for every element with this rotation sequence."""
    support = support.copy()
    plan = []
    for k in reversed(kinds):
        step = []
        for rows, v, w in table[k]:
            hit = support[rows].any(axis=1)
            if hit.all():
                step.append((rows, v, w))
            elif hit.any():
                step.append((rows[hit], v[hit], w[hit]))
            support[rows[hit]] = True
        plan.append(step)
    return plan


def _positions(irreps, given, what: str) -> list[np.ndarray | None]:
    """The checked ``what`` (rows or columns) of a set lift: one list of
    distinct basis positions per irrep, or None for all of them; None alone
    means all positions of every irrep."""
    given = [None] * len(irreps) if given is None else list(given)
    if len(given) != len(irreps):
        raise DomainError(f"{len(given)} {what[:-1]} lists for {len(irreps)} irreps")
    checked = []
    for irrep, pos in zip(irreps, given):
        if pos is not None:
            d, pos = dim_weyl(irrep), list(pos)
            valid = (isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in pos)
            if not (all(valid) and all(0 <= c < d for c in pos)):
                raise DomainError(f"{what} must be integers in 0..{d - 1} for {irrep}, got {pos}")
            if len(set(pos)) != len(pos):
                raise DomainError(f"{what} must be distinct for {irrep}, got {pos}")
            pos = np.array(pos, dtype=np.intp)
        checked.append(pos)
    return checked


def _defect(lifted: np.ndarray) -> float:
    """The worst |L^H L - 1| over a C-contiguous (S, d, c) stack of lifted
    columns L (0.0 for none), NaN if any entry is NaN."""
    unit = np.eye(lifted.shape[2])
    return float(np.abs(lifted.conj().transpose(0, 2, 1) @ lifted - unit).max(initial=0.0))


def _lift_sum(table, irreps, idxs, picks, outs, factors, groups) -> list[float]:
    """Lift the checked ``irreps`` as one direct sum, whose rotation tables
    are ``table`` (:func:`rotation_tables`), into ``outs``, at the
    columns ``idxs`` (all nonempty) and the rows ``picks`` (None for all),
    for the factored elements ``factors`` grouped by rotation sequence, and
    return each irrep's orthonormality defect: the first that exceeds
    1e-10, or the last.

    Irrep i's rows sit at its offset, as in ``table``, and its columns in
    slots 0..c_i-1 of one shared (sum d, max c, S) array.  A phase
    diag(e^{i phi}) lifts to diag(e^{i n.phi}) with the integer occupations
    n of the stacked irreps (:func:`_phase_diagonal`), each built when it is
    applied, the rightmost phase only at the columns read.
    A rotation B_k(theta) gathers the rows of each stack, turns them by
    V^T, e^{-i theta w} and V as batched (B, s, s) products, and scatters
    them back; the integer eigenvalues w look their turn factors up in one
    table of e^{-i theta j}, |j| <= max (r_1 - r_m), per element and
    rotation.  Each chunk's full columns are checked orthonormal as one
    C-contiguous (S, d, c) slab before they, or their picked rows, are
    written out."""
    dims = [dim_weyl(ir) for ir in irreps]
    first = np.cumsum(dims) - dims
    total, width = sum(dims), max(len(idx) for idx in idxs)
    read = np.concatenate([f + idx for f, idx in zip(first, idxs)])  # rows of the lifted columns
    slots = np.concatenate([np.arange(len(idx)) for idx in idxs])
    support = np.zeros(total, dtype=bool)
    support[read] = True
    occ = np.concatenate([occupations(ir) for ir in irreps])
    top = max(ir.row[0] - ir.row[-1] for ir in irreps)  # every |w| <= max |n_k - n_{k+1}|
    spins = np.arange(-top, top + 1)
    step = max(1, LIFT_BATCH_ENTRIES // max(1, total * width))
    defects = [0.0] * len(irreps)
    for ks, group in groups.items():
        plan = _pruned(table, ks, support)
        for at in range(0, len(group), step):
            members = group[at : at + step]
            # x is (sum d, max c, S): each column of the chunk's S elements side by side
            angles = np.stack([factors[s][2] for s in members], axis=1)  # (m, S, L + 1)
            thetas = np.array([factors[s][1] for s in members])
            x = np.zeros((total, width, len(members)), dtype=np.complex128)
            x[read, slots] = _phase_diagonal(occ[read], angles[:, :, -1])
            for i, blocks in zip(range(len(ks) - 1, -1, -1), plan):
                turn = np.exp(-1j * thetas[:, i] * spins[:, None])  # (2 top + 1, S)
                for rows, v, w in blocks:
                    y = _block_times(v.transpose(0, 2, 1), x[rows]) * turn[w + top][:, :, None]
                    x[rows] = _block_times(v, y)
                if x.size > 1:
                    x *= _phase_diagonal(occ, angles[:, :, i])[:, None]
                else:  # numpy multiplies one entry in place by a scalar path
                    # that rounds apart from its vector loop
                    x = x * _phase_diagonal(occ, angles[:, :, i])[:, None]
            for i, (out, f, d, idx, pick) in enumerate(zip(outs, first, dims, idxs, picks)):
                lifted = np.ascontiguousarray(x[f : f + d, : len(idx)].transpose(2, 0, 1))
                if defects[i] <= 1e-10:
                    defects[i] = _defect(lifted)
                out[members] = lifted if pick is None else lifted[:, pick]
    return defects


def lift_batch(irreps, elements, cols=None, rows=None) -> list[np.ndarray]:
    """Blocks of the matrices of ``elements`` in each of ``irreps``
    (distinct irreps of one m): one (S, len(rows[i]), len(cols[i])) array
    per irrep, slice s for element s.  ``cols`` and ``rows`` each hold one
    list of distinct basis positions per irrep, or None for all of them;
    None alone means all columns (rows) of every irrep.  A lone irrep is a
    set of one.

    The elements are factored into diagonal phases and adjacent-mode
    rotations once per call, as one stack
    (:func:`~immdfun.linalgimm.givens_factors`), and the factors' lifts are
    applied right to left to unit columns (:func:`_lift_sum`).  Irreps
    whose column counts lie within a factor of two are lifted as one
    direct sum, in one shared array whose
    same-size GT blocks share each product; the cached tables of every sum
    (:func:`rotation_tables`) are fetched before the first product, so a bad
    table of any sum is refused before any is lifted.  A phase lifts when it
    is applied, through integer powers of e^{i phi_k} (:func:`_phase_diagonal`),
    a rotation through the blocks of its generator that meet the rows its
    columns have reached (:func:`_pruned`); no dense d x d product, no ``exp``
    per basis vector and no logarithm is taken, so eigenvalues at -1 lift
    exactly and the identity lifts to exact unit columns.
    Elements with the same rotation sequence share each product, S elements
    at a time within :data:`LIFT_BATCH_ENTRIES`, and only the picked rows
    of each chunk are kept: every entry equals the entry of the whole
    columns bit for bit.  Slice i of a set lift equals the lift of irrep i
    alone bit for bit while every GT block has fewer than 16 rows; OpenBLAS
    may round a column of a larger block product by its position in the
    batch.  The irreps, every irrep's columns and rows, the elements and
    the set's allocation are checked before any table, factor or product:
    the returned S sum_i r_i c_i entries and one chunk's working array
    (:data:`LIFT_BATCH_ENTRIES`, or one element's (sum d, max c) array if
    larger; none for an empty batch) hold at most :data:`ENTRY_CAP`.  Each
    irrep's full lifted columns are checked orthonormal, element by element,
    chunk by chunk; a failure names the first such irrep in ``irreps``.
    """
    irreps = list(irreps)
    idxs, picks = _positions(irreps, cols, "columns"), _positions(irreps, rows, "rows")
    if len(set(irreps)) != len(irreps):
        raise DomainError(f"irreps of a set lift must be distinct, got {irreps}")
    if len({ir.m for ir in irreps}) > 1:
        raise DomainError(f"irreps of a set lift must share m, got {irreps}")
    elements = list(elements)
    for element in elements:
        if not isinstance(element, UnitaryElement):
            raise DomainError("lift expects a UnitaryElement (use UnitaryElement.from_matrices)")
        if irreps and element.m != irreps[0].m:
            raise DomainError(f"element acts on {element.m} modes, irrep has m = {irreps[0].m}")
    dims = [dim_weyl(ir) for ir in irreps]
    idxs = [np.arange(d) if idx is None else idx for d, idx in zip(dims, idxs)]
    shapes = [
        (len(elements), d if pick is None else len(pick), len(idx))
        for d, idx, pick in zip(dims, idxs, picks)
    ]
    # irreps whose column counts lie within a factor of two share one direct
    # sum: padding a much narrower irrep to a wider one's slots costs more
    # than its own rounds of block products
    sums: list[list[int]] = []
    for i in sorted(range(len(irreps)), key=lambda i: -len(idxs[i])):
        if sums and 2 * len(idxs[i]) >= len(idxs[sums[-1][0]]):
            sums[-1].append(i)
        elif len(idxs[i]):
            sums.append([i])
    returned = sum(s * r * c for s, r, c in shapes)
    shared = [sum(dims[i] for i in part) * len(idxs[part[0]]) for part in sums]
    working = max([LIFT_BATCH_ENTRIES, *shared]) if elements and sums else 0
    if returned + working > ENTRY_CAP:
        raise ResourceLimitError(
            f"lifting a batch of {len(elements)} into irreps of dimensions {dims} takes"
            f" {returned} returned + {working} working entries, over the entry cap {ENTRY_CAP}"
        )
    outs = [np.empty(shape, dtype=np.complex128) for shape in shapes]
    if not (elements and irreps):
        return outs
    factors = givens_factors(np.array([e.matrix for e in elements]))
    groups: dict[tuple[int, ...], list[int]] = {}  # elements by rotation sequence
    for s, (kinds, _, _) in enumerate(factors):
        groups.setdefault(kinds, []).append(s)
    tables = [rotation_tables(tuple(irreps[i] for i in part)) for part in sums]
    defects = {}
    for part, table in zip(sums, tables):
        args = ([seq[i] for i in part] for seq in (irreps, idxs, picks, outs))
        defects.update(zip(part, _lift_sum(table, *args, factors, groups)))
    for i in sorted(defects):  # the first irrep that fails, in the caller's order
        if not defects[i] <= 1e-10:
            defect = defects[i]
            raise DomainError(f"the lift into {irreps[i]} lost orthonormality: defect {defect:.3e}")
    return outs
