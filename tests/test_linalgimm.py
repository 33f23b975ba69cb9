import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immdfun.errors import DomainError, ResourceLimitError
from immdfun.linalgimm import (
    SubmatrixSelector,
    UnitaryElements,
    haar_random_unitaries,
    permanent_ryser_batch,
    su2_euler,
    submatrix,
)
from immdfun.symgroup import Partition, character, dim_sym, partitions_of

from _generators import Permutation, all_permutations, permutation_matrix
from _single import from_matrix, haar_random_unitary, immanant, permanent_ryser

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
        assert immanant(P(2), u.matrices[0]) == pytest.approx(math.cos(1.9), abs=1e-12)
        assert immanant(P(1, 1), u.matrices[0]) == pytest.approx(1.0, abs=1e-12)

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
                det = np.linalg.det(mat)
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
        assert np.linalg.det(np.eye(6)) == pytest.approx(1.0)

    def test_unitary_determinant_modulus(self):
        u = haar_random_unitary(5, 2)
        assert abs(abs(np.linalg.det(u.matrices[0])) - 1.0) < 1e-10

    @pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (6, 7), (17, 2)])
    def test_batch_slices_are_single_permanents(self, n, count):
        # n = 17 runs the subsets in two blocks, one matrix at a time
        rng = np.random.default_rng(n)
        mats = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        batch = permanent_ryser_batch(mats)
        assert batch.shape == (count,)
        for s in range(count):
            single = permanent_ryser_batch(mats[s : s + 1])[0]
            assert batch[s] == single == permanent_ryser(mats[s])

    def test_batch_refusals(self):
        with pytest.raises(ResourceLimitError, match="capped"):
            permanent_ryser_batch(np.zeros((1, 25, 25)))
        with pytest.raises(DomainError, match="stack of square"):
            permanent_ryser_batch(np.ones((2, 3)))
        with pytest.raises(DomainError, match="finite"):
            permanent_ryser_batch(np.full((1, 2, 2), np.nan))

    def test_nonsquare(self):
        with pytest.raises(DomainError):
            permanent_ryser(np.ones((2, 3)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.det(np.ones((2, 3)))


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
        assert SubmatrixSelector((2, 1), (1, 2)).rows == (2, 1)  # rows in any order
        with pytest.raises(DomainError, match="row indices must be distinct"):
            SubmatrixSelector((1, 1), (1, 2))
        with pytest.raises(DomainError):
            SubmatrixSelector((1, 2), (1, 1))  # repeated column
        with pytest.raises(DomainError):
            submatrix(np.eye(3), SubmatrixSelector((1, 4), (1, 2)))


class TestUnitaryElement:
    def test_haar_determinism(self):
        a = haar_random_unitary(3, 123)
        b = haar_random_unitary(3, 123)
        assert np.array_equal(a.matrices[0], b.matrices[0])
        assert not np.array_equal(a.matrices[0], haar_random_unitary(3, 124).matrices[0])

    def test_haar_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed >= 0, got -1"):
            haar_random_unitary(3, -1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_stacked_draws_are_single_draws(self, m):
        for seeds in ([7], list(range(1905, 1930)), [5, 0, 5, 10**6]):
            stack = haar_random_unitaries(m, seeds)
            assert len(stack) == len(seeds)
            assert not stack.matrices.flags.writeable
            for mat, seed in zip(stack.matrices, seeds):
                assert np.array_equal(mat, haar_random_unitary(m, seed).matrices[0])
        assert haar_random_unitaries(m, []).matrices.shape == (0, m, m)

    def test_negative_seed_in_a_stack_is_refused_before_any_draw(self, monkeypatch):
        def forbidden(seed):
            raise AssertionError("a seed was drawn before the refusal")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        for seeds in ([-1, 2, 3], [2, 3, -4]):
            with pytest.raises(DomainError, match="seed >= 0"):
                haar_random_unitaries(3, seeds)

    def test_one_bad_slice_refuses_the_stack(self):
        good = haar_random_unitary(3, 1).matrices[0]
        shear = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=complex)  # det 1
        with pytest.raises(DomainError, match="not unitary"):
            UnitaryElements([good, good, shear])
        with pytest.raises(DomainError, match="cannot be phase-normalized"):
            UnitaryElements([good, 2 * good])
        with pytest.raises(DomainError, match="stack of square"):
            UnitaryElements(good)

    def test_stack_is_phase_fixed_slice_by_slice(self):
        mats = np.array([haar_random_unitary(3, s).matrices[0] for s in range(4)])
        mats[1] *= np.exp(0.4j)
        mats[3] *= np.exp(-2.0j)
        stack = UnitaryElements(mats)
        for mat, fixed in zip(mats, stack.matrices):
            assert np.array_equal(fixed, from_matrix(mat).matrices[0])
        mats[0] = 0.0  # the stack holds a copy
        assert np.array_equal(stack.matrices[0], haar_random_unitary(3, 0).matrices[0])

    def test_haar_unitarity(self):
        u = haar_random_unitary(4, 9).matrices[0]
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_phase_normalization_flag(self):
        u = haar_random_unitary(3, 4).matrices[0] * np.exp(0.4j)
        elem = from_matrix(u)
        assert abs(np.linalg.det(elem.matrices[0]) - 1.0) < 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(DomainError):
            from_matrix(np.diag([2.0, 0.5]))

    def test_overflowing_matrix_is_a_domain_error(self):
        # det or U^H U overflows: the refusal comes with no numpy warning
        big = np.full((2, 2), 1e308, dtype=np.complex128)
        with pytest.raises(DomainError, match="phase-normalized"):
            from_matrix(big)
        with pytest.raises(DomainError, match="not unitary"):
            from_matrix(np.diag([1e308, 1e-308]))  # det 1

    def test_matrix_is_a_read_only_copy(self):
        # a lift reads the stack it was given, so the stack must not change
        mat = np.eye(3, dtype=np.complex128)
        elem = from_matrix(mat)
        assert not np.shares_memory(elem.matrices, mat) and mat.flags.writeable
        with pytest.raises(ValueError):
            elem.matrices[0, 0, 0] = -1.0
        with pytest.raises(AttributeError):
            elem.matrices = mat[None]

    def test_su2_euler_is_special_unitary(self):
        u = su2_euler(1.0, 2.0, 3.0).matrices[0]
        assert abs(np.linalg.det(u) - 1.0) < 1e-14


def _slice(m: int, kind: str, seed: int) -> np.ndarray:
    """A unitary m x m matrix: a Haar SU(m) sample, one times a random
    global phase, one with a negated column (det = -1), or an exact mode
    permutation (det = +-1)."""
    u = haar_random_unitary(m, seed).matrices[0]
    if kind == "phase":
        return u * np.exp(1j * np.random.default_rng(seed).uniform(-np.pi, np.pi))
    if kind == "minus":
        return u * np.array([-1.0] + [1.0] * (m - 1))
    if kind == "permutation":
        perms = all_permutations(m)
        return permutation_matrix(perms[seed % len(perms)])
    return u


slices = st.tuples(
    st.sampled_from(("haar", "phase", "minus", "permutation")), st.integers(0, 2**32 - 1)
)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.lists(slices, max_size=4), st.data())
def test_stack_slices_are_one_slice_stacks(m, kinds, data):
    # each slice is fixed to det = 1 as if alone; the stack is a read-only
    # copy held by an attribute that cannot be rebound; one bad slice
    # refuses the whole stack, and an empty stack is a stack
    mats = np.array([_slice(m, kind, seed) for kind, seed in kinds]).reshape(-1, m, m)
    stack = UnitaryElements(mats)
    assert (len(stack), stack.m, stack.matrices.shape) == (len(kinds), m, mats.shape)
    for mat, fixed in zip(mats, stack.matrices):
        assert fixed.tobytes() == UnitaryElements(mat[None]).matrices.tobytes()
        assert abs(np.linalg.det(fixed) - 1.0) < 1e-10
    assert not stack.matrices.flags.writeable and not np.shares_memory(stack.matrices, mats)
    with pytest.raises(AttributeError):
        stack.matrices = mats
    if kinds:
        bad = mats.copy()
        bad[data.draw(st.integers(0, len(kinds) - 1))] = np.eye(m) + np.eye(m, k=1)  # det 1
        with pytest.raises(DomainError, match="not unitary"):
            UnitaryElements(bad)
