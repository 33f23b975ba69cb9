"""Complex matrices, special-unitary elements, submatrix selection, and
immanant evaluation.

The immanant is always the exact character-weighted permutation sum; the
permanent (Ryser) and determinant (LU) are independent fast paths used both
on their own and as oracles for the {n} and {1^n} immanants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError, ResourceLimitError
from .symgroup import Partition, character_weights, sn_tables

DEFAULT_SEED = 1905  # documented seed of every Haar sample stream
IMMANANT_CAP = 9  # n! * n cost; larger sizes go through the permanent/determinant paths
RYSER_CAP = 24


def as_square(mat) -> np.ndarray:
    arr = np.asarray(getattr(mat, "matrix", mat), dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class UnitaryElement:
    """Square matrix that is special-unitary within ``unitarity_tol``.

    ``phase_normalized`` records whether an overall m-th-root-of-unity phase
    was applied to move det(U) to 1.
    """

    matrix: np.ndarray
    unitarity_tol: float = 1e-10
    phase_normalized: bool = field(default=False, compare=False)

    def __post_init__(self):
        mat = as_square(self.matrix)
        object.__setattr__(self, "matrix", mat)
        m = mat.shape[0]
        defect = np.abs(mat.conj().T @ mat - np.eye(m)).max()
        if defect >= self.unitarity_tol:
            raise DomainError(f"matrix is not unitary: max |U^H U - 1| = {defect:.3e}")
        det = np.linalg.det(mat)
        if abs(det - 1.0) >= self.unitarity_tol:
            raise DomainError(
                f"matrix is not special-unitary: |det - 1| = {abs(det - 1.0):.3e}"
            )

    @classmethod
    def from_matrix(cls, mat, tol: float = 1e-10):
        """Wrap a unitary matrix, fixing a global phase so that det = 1.

        Inputs with |det| = 1 but det != 1 are multiplied by an m-th root
        phase; the result carries a flag.
        """
        mat = as_square(mat)
        m = mat.shape[0]
        det = np.linalg.det(mat)
        normalized = False
        if abs(det - 1.0) >= tol:
            if abs(abs(det) - 1.0) >= tol:
                raise DomainError(f"det = {det:.6g} cannot be phase-normalized to 1")
            mat = mat * cmath.exp(-1j * cmath.phase(det) / m)
            normalized = True
        return cls(mat, unitarity_tol=tol, phase_normalized=normalized)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def haar_random_unitary(m: int, seed: int) -> UnitaryElement:
    """Haar sample of U(m) via QR of a complex Gaussian, pushed to det = 1.

    Deterministic for a fixed seed.
    """
    if m < 2:
        raise DomainError("haar_random_unitary requires m >= 2")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    det = np.linalg.det(q)
    q = q * cmath.exp(-1j * cmath.phase(det) / m)
    return UnitaryElement(q, unitarity_tol=1e-12, phase_normalized=True)


def su2_euler(alpha: float, beta: float, gamma: float) -> UnitaryElement:
    """SU(2) element in zyz Euler angles (the standard spin-1/2 matrix)."""
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    mat = np.array(
        [
            [cmath.exp(-0.5j * (alpha + gamma)) * c, -cmath.exp(-0.5j * (alpha - gamma)) * s],
            [cmath.exp(0.5j * (alpha - gamma)) * s, cmath.exp(0.5j * (alpha + gamma)) * c],
        ]
    )
    return UnitaryElement(mat, unitarity_tol=1e-12)


@dataclass(frozen=True)
class SubmatrixSelector:
    """Kept rows (strictly increasing) and columns (distinct, any order)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(i) for i in self.rows)
        cols = tuple(int(i) for i in self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols) or not rows:
            raise DomainError("row and column selections must be nonempty, equal length")
        if any(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)):
            raise DomainError(f"row indices must be strictly increasing: {rows}")
        if len(set(cols)) != len(cols):
            raise DomainError(f"column indices must be distinct: {cols}")
        if min(rows + cols) < 1:
            raise DomainError("indices are 1-based")

    @property
    def size(self) -> int:
        return len(self.rows)


def submatrix(mat, sel: SubmatrixSelector) -> np.ndarray:
    """p x p matrix of entries ``mat[rows[i], cols[j]]`` in selector order."""
    arr = as_square(mat)
    m = arr.shape[0]
    if max(sel.rows + sel.cols) > m:
        raise DomainError(f"selector {sel} out of range for a {m}x{m} matrix")
    return arr[np.ix_([r - 1 for r in sel.rows], [c - 1 for c in sel.cols])]


def immanant(p: Partition, mat) -> complex:
    """Character-weighted permutation sum Imm^{p}(M).

    Parameters
    ----------
    p : Partition
        Partition of n labelling the S_n character.
    mat : array_like or UnitaryElement
        Square n x n complex matrix, n <= ``IMMANANT_CAP`` (the sum has n!
        terms).

    Deterministic for fixed input: terms are accumulated in the fixed
    ``itertools.permutations`` order.
    """
    arr = as_square(mat)
    n = arr.shape[0]
    if p.n != n:
        raise DomainError(f"partition {p} is not a partition of the matrix side {n}")
    if n > IMMANANT_CAP:
        raise ResourceLimitError(
            f"definitional immanant capped at n = {IMMANANT_CAP} (requested n = {n})"
        )
    perms, _, _ = sn_tables(n)
    return _kernels.imm_sum(arr, perms, character_weights(p))


def permanent_ryser(mat) -> complex:
    """Permanent via Ryser inclusion-exclusion over column subsets."""
    arr = as_square(mat)
    if arr.shape[0] > RYSER_CAP:
        raise ResourceLimitError(f"Ryser permanent capped at n = {RYSER_CAP}")
    return _kernels.ryser_permanent(arr)


def determinant(mat) -> complex:
    """LU-based determinant (LAPACK, partial pivoting)."""
    return complex(np.linalg.det(as_square(mat)))


def permutation_matrix(s) -> np.ndarray:
    """Matrix P with P e_j = e_{s(j)}, so that P_a P_b = P_{a o b}."""
    n = s.n
    mat = np.zeros((n, n))
    for j in range(1, n + 1):
        mat[s(j) - 1, j - 1] = 1.0
    return mat
