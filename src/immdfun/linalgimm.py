"""Complex matrices, special-unitary elements, their Givens factoring,
submatrix selection, and immanant evaluation.

The immanant is always the exact character-weighted permutation sum; the
Ryser permanent is an independent fast path, used on its own and as the
oracle for the {n} immanant.  Both sums run in vectorized numpy over a
stack of matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .symgroup import Partition, character_weights, sn_tables

DEFAULT_SEED = 1905  # documented seed of every Haar sample stream
IMMANANT_CAP = 9  # n! * n cost; the permanent goes further through Ryser
RYSER_CAP = 24


def as_square(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


def _as_stack(mats) -> np.ndarray:
    """``mats`` as an (S, n, n) complex128 array, refusing any other shape
    and any non-finite entry."""
    arr = np.asarray(mats, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DomainError(f"expected a stack of square matrices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


def _check_special_unitary(mats: np.ndarray, tol: float) -> None:
    """Refuse the first matrix of the (S, m, m) stack ``mats`` that is not
    unitary, or not of determinant 1, within ``tol``.  Huge entries
    overflow silently: the inf or NaN defect they leave fails the check."""
    m = mats.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = mats.conj().transpose(0, 2, 1) @ mats
        defects = np.abs(gram - np.eye(m)).max(axis=(1, 2), initial=0.0)
        dets = np.linalg.det(mats)
    for defect, det in zip(defects.tolist(), dets.tolist()):
        if not defect < tol:
            raise DomainError(f"matrix is not unitary: max |U^H U - 1| = {defect:.3e}")
        if not abs(det - 1.0) < tol:
            raise DomainError(
                f"matrix is not special-unitary: |det - 1| = {abs(det - 1.0):.3e}"
            )


class UnitaryElements:
    """A stack of S special-unitary m x m matrices: ``matrices`` is a
    read-only (S, m, m) copy of ``mats``, S >= 0.

    A matrix with |det| = 1 but det != 1 (within ``tol``) is multiplied by
    e^{-i phi/m}, where phi is the phase of det (``cmath.phase``, slice by
    slice).  The fixed stack is then checked once, so one matrix that is not
    unitary refuses the whole stack, and slice s equals the one-slice stack
    of ``mats[s]`` bit for bit.
    """

    def __init__(self, mats, tol: float = 1e-10):
        mats = _as_stack(mats).copy()
        m = mats.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):  # the check below refuses
            dets = np.linalg.det(mats)
        for s, det in enumerate(dets.tolist()):
            if abs(det - 1.0) >= tol:
                if abs(abs(det) - 1.0) >= tol:
                    raise DomainError(f"det = {det:.6g} cannot be phase-normalized to 1")
                mats[s] = mats[s] * cmath.exp(-1j * cmath.phase(det) / m)
        _check_special_unitary(mats, tol)
        mats.flags.writeable = False
        self._matrices = mats

    @property
    def matrices(self) -> np.ndarray:
        return self._matrices

    @property
    def m(self) -> int:
        return self._matrices.shape[-1]

    def __len__(self) -> int:
        return len(self._matrices)


Factors = tuple[tuple[int, ...], np.ndarray, np.ndarray]  # (k_1..k_L), theta (L,), phi (m, L+1)


def givens_factors(mats: np.ndarray) -> list[Factors]:
    """Adjacent rotations and phases with U = P_0 B_{k_1}(theta_1) P_1 ... B_{k_L}(theta_L) P_L
    for every U of an (S, m, m) stack, each as ((k_1, ..., k_L), theta, phi).

    B_k(theta) = exp(-i theta (E_{k,k+1} + E_{k+1,k})) is [[cos, -i sin],
    [-i sin, cos]] on modes k, k+1 (0-based), and P_i = diag(exp(i * phi[:, i])).
    Adjacent 2x2 unitaries G null U's lower triangle column by column, bottom
    up, so that G_L ... G_1 U = D is diagonal.  Each G^H is
    diag(e^{ia}, e^{ib}) R(theta) diag(1, e^{-i(a+b)}) on its two modes, with
    the real rotation R(theta) = diag(-i, 1) B(theta) diag(i, 1), and
    neighbouring diagonals merge.  Each entry is nulled across the stack at
    once, and an entry that is already zero skips its rotation, so elements
    with exact zeros have shorter rotation sequences.  Slice s equals the
    one-slice stack of ``mats[s]`` bit for bit.
    """
    a = np.array(mats, dtype=np.complex128)
    size, m = a.shape[0], a.shape[-1]
    slots = m * (m - 1) // 2
    kinds, active, thetas = [], np.zeros((size, slots), dtype=bool), np.zeros((size, slots))
    phases = np.zeros((size, slots + 1, m))  # phi of every slot; a skipped slot's is dropped
    pending = np.zeros((size, m))
    for j in range(m - 1):
        for i in range(m - 1, j, -1):
            t = len(kinds)
            kinds.append(i - 1)
            active[:, t] = a[:, i, j] != 0
            on = np.flatnonzero(active[:, t])
            top, bottom = a[on, i - 1, j, None], a[on, i, j, None]
            r = np.hypot(np.abs(top), np.abs(bottom))
            upper, lower = a[on, i - 1, j:], a[on, i, j:]
            a[on, i - 1, j:] = (top.conj() * upper + bottom.conj() * lower) / r
            a[on, i, j:] = (top * lower - bottom * upper) / r
            alpha, beta = np.angle(top[:, 0]), np.angle(bottom[:, 0])
            pending[on, i - 1] += alpha - math.pi / 2
            pending[on, i] += beta
            phases[:, t] = pending
            thetas[on, t] = np.arctan2(np.abs(bottom[:, 0]), np.abs(top[:, 0]))
            pending[on] = 0.0
            pending[on, i - 1] = math.pi / 2
            pending[on, i] = -(alpha + beta)
    phases[:, slots] = pending + np.angle(np.diagonal(a, axis1=1, axis2=2))
    factors = []
    for act, theta, phi in zip(active.tolist(), thetas, phases):
        on = [t for t in range(slots) if act[t]]
        if len(on) < slots:
            theta, phi = theta[on], phi[on + [slots]]
        factors.append((tuple(kinds[t] for t in on), theta, phi.T))
    return factors


def haar_random_unitaries(m: int, seeds) -> UnitaryElements:
    """Haar samples of SU(m), one per seed, as one stack: QR of a complex
    Gaussian with the phases of R's diagonal moved into Q (Mezzadri, Notices
    AMS 54 (2007)), then pushed to det = 1 by :class:`UnitaryElements`.

    Each seed draws its Gaussian from its own ``default_rng(seed)``; the QR,
    the determinants and the special-unitary check each run once over the
    (S, m, m) stack, and slice s equals the one-seed stack of ``seeds[s]``
    bit for bit.  Every seed is checked before any is drawn.
    """
    if m < 2:
        raise DomainError("haar_random_unitaries requires m >= 2")
    seeds = list(seeds)
    for seed in seeds:
        if seed < 0:
            raise DomainError(f"haar_random_unitaries requires a seed >= 0, got {seed}")
    z = np.empty((len(seeds), m, m), dtype=np.complex128)
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[s] = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return UnitaryElements(q * (d / np.abs(d))[:, None, :], tol=1e-12)


def su2_euler(alpha: float, beta: float, gamma: float) -> UnitaryElements:
    """SU(2) element in zyz Euler angles (the standard spin-1/2 matrix), as
    a one-slice stack."""
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    mat = np.array(
        [
            [cmath.exp(-0.5j * (alpha + gamma)) * c, -cmath.exp(-0.5j * (alpha - gamma)) * s],
            [cmath.exp(0.5j * (alpha - gamma)) * s, cmath.exp(0.5j * (alpha + gamma)) * c],
        ]
    )
    return UnitaryElements(mat[None], tol=1e-12)


@dataclass(frozen=True)
class SubmatrixSelector:
    """Kept rows and columns, each distinct, in any order."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(i) for i in self.rows)
        cols = tuple(int(i) for i in self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols) or not rows:
            raise DomainError("row and column selections must be nonempty, equal length")
        for name, idx in (("row", rows), ("column", cols)):
            if len(set(idx)) != len(idx):
                raise DomainError(f"{name} indices must be distinct: {idx}")
        if min(rows + cols) < 1:
            raise DomainError("indices are 1-based")

    @property
    def size(self) -> int:
        return len(self.rows)


def _check_range(sel: SubmatrixSelector, m: int) -> None:
    if max(sel.rows + sel.cols) > m:
        raise DomainError(f"selector {sel} out of range for a {m}x{m} matrix")


def submatrix(mat, sel: SubmatrixSelector) -> np.ndarray:
    """p x p matrix of entries ``mat[rows[i], cols[j]]`` in selector order."""
    arr = as_square(mat)
    _check_range(sel, arr.shape[0])
    return arr[np.ix_([r - 1 for r in sel.rows], [c - 1 for c in sel.cols])]


def check_immanant_side(p: Partition, side: int, sel: SubmatrixSelector | None = None) -> None:
    """Refuse, before any matrix is built, what Imm^{p} of a ``side`` x
    ``side`` matrix (of its ``sel`` submatrix, if given) would refuse: a
    selector out of range, a partition of another size, and a side above
    ``IMMANANT_CAP``."""
    if sel is not None:
        _check_range(sel, side)
        side = sel.size
    if p.n != side:
        raise DomainError(f"partition {p} is not a partition of the matrix side {side}")
    if side > IMMANANT_CAP:
        raise ResourceLimitError(
            f"definitional immanant capped at n = {IMMANANT_CAP} (requested n = {side})"
        )


def immanant_batch(p: Partition, mats) -> np.ndarray:
    """Character-weighted permutation sums Imm^{p}(M) of every matrix of an
    (S, n, n) stack, n <= ``IMMANANT_CAP`` (each sum has n! terms), as an
    (S,) complex array.

    Deterministic for fixed input: terms are accumulated in the fixed
    ``itertools.permutations`` order, permutations of weight 0 skipped.
    The products of every matrix run over one (S * P, n) array and each sum
    is its own dot product, so slice s equals the one-slice stack of
    ``mats[s]`` bit for bit.
    """
    arr = np.ascontiguousarray(_as_stack(mats))
    n = arr.shape[-1]
    check_immanant_side(p, n)
    perms, _, _ = sn_tables(n)
    weights = character_weights(p)
    live = np.nonzero(weights)[0]
    gathered = arr[:, np.arange(n)[None, :], perms[live]].reshape(-1, n)
    prods = np.prod(gathered, axis=1).reshape(len(arr), live.size)
    w = weights[live]
    return np.array([np.dot(w, row) for row in prods], dtype=np.complex128)


def permanent_ryser_batch(mats) -> np.ndarray:
    """Permanent of every matrix of an (S, n, n) stack via Ryser
    inclusion-exclusion over column subsets in binary order, as an (S,)
    complex array.

    The subsets run in blocks of B = 2^min(n, 16), and each block's row
    sums are formed for 2^16 / B matrices at a time (at least one), so the
    scratch memory does not grow with S.  The products run over one
    (S' * B, n) array and each block sum is its own dot product, so slice s
    equals the one-slice stack of ``mats[s]`` bit for bit.
    """
    arr = np.ascontiguousarray(_as_stack(mats))
    n = arr.shape[-1]
    if n > RYSER_CAP:
        raise ResourceLimitError(f"Ryser permanent capped at n = {RYSER_CAP}")
    totals = np.zeros(len(arr), dtype=np.complex128)
    chunk = 1 << min(n, 16)
    per = max(1, (1 << 16) // chunk)
    subsets = np.arange(1, 1 << n, dtype=np.int64)
    for start in range(0, subsets.size, chunk):
        block = subsets[start : start + chunk]
        masks = ((block[:, None] >> np.arange(n)) & 1).astype(np.float64)
        signs = np.where(masks.sum(axis=1).astype(np.int64) % 2 == 0, 1.0, -1.0)
        for first in range(0, len(arr), per):
            group = arr[first : first + per]
            rowsums = masks @ group.transpose(0, 2, 1)
            prods = np.prod(rowsums.reshape(-1, n), axis=1).reshape(len(group), -1)
            for s, row in enumerate(prods, first):
                totals[s] += np.dot(signs, row)
    return -totals if n % 2 else totals
