import math
from itertools import permutations

import numpy as np
import pytest

from immdfun.errors import DomainError, ResourceLimitError
from immdfun.linalgimm import (
    SubmatrixSelector,
    UnitaryElement,
    determinant,
    haar_random_unitary,
    immanant,
    permanent_ryser,
    permutation_matrix,
    su2_euler,
    submatrix,
)
from immdfun.symgroup import Partition, Permutation, character, dim_sym, partitions_of

P = Partition


def immanant_bruteforce(p, mat):
    """Definition-sum oracle, written independently of the library path."""
    n = mat.shape[0]
    total = 0.0 + 0.0j
    for images in permutations(range(n)):
        s = Permutation(tuple(i + 1 for i in images))
        term = 1.0 + 0.0j
        for k in range(n):
            term *= mat[k, images[k]]
        total += character(p, s.cycle_type()) * term
    return total


def random_complex(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)


class TestImmanant:
    def test_su2_closed_forms(self):
        u = su2_euler(0.7, 1.9, -0.4)
        assert immanant(P(2), u.matrix) == pytest.approx(math.cos(1.9), abs=1e-12)
        assert immanant(P(1, 1), u.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_identity_gives_dimension(self):
        for p in partitions_of(4):
            assert immanant(p, np.eye(4)) == pytest.approx(dim_sym(p))

    def test_against_bruteforce(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            mat = random_complex(rng, n)
            for p in partitions_of(n):
                assert immanant(p, mat) == pytest.approx(
                    immanant_bruteforce(p, mat), abs=1e-12
                )

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            immanant(P(2, 1), np.eye(4))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            immanant(P((4, 3, 2, 1)), np.eye(10))

    def test_determinant_and_permanent_agreement(self):
        # 100 random matrices spread over n = 2..7
        rng = np.random.default_rng(7)
        count = 0
        for n in range(2, 8):
            for _ in range(17):
                mat = random_complex(rng, n)
                det = determinant(mat)
                per = permanent_ryser(mat)
                assert abs(immanant(P((1,) * n), mat) - det) < 1e-10
                assert abs(immanant(P((n,)), mat) - per) < 1e-10
                count += 1
        assert count >= 100

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        mat = random_complex(rng, 4)
        for images in [(2, 1, 4, 3), (3, 4, 1, 2), (2, 3, 4, 1)]:
            pm = permutation_matrix(Permutation(images))
            conj = pm @ mat @ pm.T
            for p in partitions_of(4):
                assert immanant(p, conj) == pytest.approx(immanant(p, mat), abs=1e-11)

    def test_row_multilinearity(self):
        rng = np.random.default_rng(5)
        base = random_complex(rng, 4)
        x, y = rng.standard_normal(4) + 0j, rng.standard_normal(4) + 0j
        a, b = 0.3 - 0.2j, 1.1 + 0.7j
        for p in (P(2, 1, 1), P(3, 1)):
            combined = base.copy()
            combined[2] = a * x + b * y
            mx, my = base.copy(), base.copy()
            mx[2], my[2] = x, y
            assert immanant(p, combined) == pytest.approx(
                a * immanant(p, mx) + b * immanant(p, my), abs=1e-11
            )


class TestPermanentDeterminant:
    def test_all_ones(self):
        assert permanent_ryser(np.ones((2, 2))) == pytest.approx(2.0)
        assert permanent_ryser(np.ones((4, 4))) == pytest.approx(24.0)

    def test_identity(self):
        assert permanent_ryser(np.eye(6)) == pytest.approx(1.0)
        assert determinant(np.eye(6)) == pytest.approx(1.0)

    def test_unitary_determinant_modulus(self):
        u = haar_random_unitary(5, 2)
        assert abs(abs(determinant(u.matrix)) - 1.0) < 1e-10

    def test_nonsquare(self):
        with pytest.raises(DomainError):
            permanent_ryser(np.ones((2, 3)))
        with pytest.raises(DomainError):
            determinant(np.ones((2, 3)))


class TestSubmatrix:
    def test_eq44_layout(self):
        # remove row 1 and column 2 of a marked 4x4 matrix
        mat = np.arange(11, 27).reshape(4, 4).astype(complex)  # entry ij = 10 + 4(i-1)+j
        sel = SubmatrixSelector((2, 3, 4), (1, 3, 4))
        sub = submatrix(mat, sel)
        assert sub[0, 0] == mat[1, 0] and sub[0, 1] == mat[1, 2] and sub[0, 2] == mat[1, 3]
        assert sub[2, 2] == mat[3, 3]

    def test_full_range(self):
        mat = np.arange(9).reshape(3, 3).astype(complex)
        sel = SubmatrixSelector((1, 2, 3), (1, 2, 3))
        assert np.array_equal(submatrix(mat, sel), mat)

    def test_column_order_respected(self):
        mat = np.arange(9).reshape(3, 3).astype(complex)
        sub = submatrix(mat, SubmatrixSelector((1, 2), (3, 1)))
        assert sub[0, 0] == mat[0, 2] and sub[0, 1] == mat[0, 0]

    def test_validation(self):
        with pytest.raises(DomainError):
            SubmatrixSelector((2, 1), (1, 2))  # rows not increasing
        with pytest.raises(DomainError):
            SubmatrixSelector((1, 2), (1, 1))  # repeated column
        with pytest.raises(DomainError):
            submatrix(np.eye(3), SubmatrixSelector((1, 4), (1, 2)))


class TestUnitaryElement:
    def test_haar_determinism(self):
        a = haar_random_unitary(3, 123)
        b = haar_random_unitary(3, 123)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, haar_random_unitary(3, 124).matrix)

    def test_haar_unitarity(self):
        u = haar_random_unitary(4, 9).matrix
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_phase_normalization_flag(self):
        u = haar_random_unitary(3, 4).matrix * np.exp(0.4j)
        elem = UnitaryElement.from_matrix(u)
        assert elem.phase_normalized
        assert abs(np.linalg.det(elem.matrix) - 1.0) < 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(DomainError):
            UnitaryElement.from_matrix(np.diag([2.0, 0.5]))

    def test_su2_euler_is_special_unitary(self):
        u = su2_euler(1.0, 2.0, 3.0).matrix
        assert abs(np.linalg.det(u) - 1.0) < 1e-14
