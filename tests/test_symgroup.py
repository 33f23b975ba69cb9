import math

import numpy as np
import pytest

from immdfun.errors import DomainError
from immdfun.symgroup import (
    Partition,
    character,
    character_weights,
    dim_sym,
    partitions_of,
    sn_tables,
)

import _tableaux as ref
from _generators import Permutation, all_permutations, class_size, young_matrix

P = Partition


def brute_partitions(n):
    """Independent exhaustive enumeration (first part descending)."""
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in brute_partitions(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


class TestPartition:
    def test_validation(self):
        with pytest.raises(DomainError):
            P(1, 2)
        with pytest.raises(DomainError):
            P(2, 0)
        with pytest.raises(DomainError):
            P()

    def test_basic(self):
        p = P(3, 1)
        assert p.n == 4
        assert tuple(p) == (3, 1)
        assert p == P((3, 1))


class TestPartitionsOf:
    def test_single(self):
        assert partitions_of(1) == (P(1),)

    def test_three(self):
        assert partitions_of(3) == (P(3), P(2, 1), P(1, 1, 1))

    def test_four_count(self):
        assert len(partitions_of(4)) == 5

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_bruteforce(self, n):
        got = [p.parts for p in partitions_of(n)]
        assert got == brute_partitions(n)  # same reverse-lex order, no dupes

    def test_domain(self):
        with pytest.raises(DomainError):
            partitions_of(0)


class TestDims:
    def test_known(self):
        assert dim_sym(P(3)) == 1
        assert dim_sym(P(2, 2)) == 2
        assert dim_sym(P(2, 1)) == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_tableaux(self, n):
        for p in partitions_of(n):
            assert dim_sym(p) == len(ref.standard_tableaux(p))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sum_of_squares(self, n):
        assert sum(dim_sym(p) ** 2 for p in partitions_of(n)) == math.factorial(n)


class TestClassSize:
    def test_identity_class(self):
        assert class_size(P(1, 1, 1)) == 1

    def test_s3(self):
        assert class_size(P(2, 1)) == 3
        assert class_size(P(3)) == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_count(self, n):
        counts = {}
        for s in all_permutations(n):
            counts[s.cycle_type().parts] = counts.get(s.cycle_type().parts, 0) + 1
        for cls in partitions_of(n):
            assert class_size(cls) == counts[cls.parts]


class TestCharacter:
    def test_frozen_s3(self):
        assert character(P(2, 1), P(1, 1, 1)) == 2
        assert character(P(2, 1), P(2, 1)) == 0
        assert character(P(2, 1), P(3)) == -1

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            character(P(2, 1), P(2, 2))

    def test_shared_tables_are_read_only(self):
        images, class_idx, _ = sn_tables(3)
        for table in (images, class_idx, character_weights(P(2, 1))):
            with pytest.raises(ValueError):
                table[0] = 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_gives_dimension(self, n):
        for p in partitions_of(n):
            assert character(p, P((1,) * n)) == dim_sym(p)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_orthogonality(self, n):
        parts = partitions_of(n)
        for a in parts:
            for b in parts:
                total = sum(
                    class_size(c) * character(a, c) * character(b, c) for c in parts
                )
                assert total == (math.factorial(n) if a == b else 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_weights_follow_the_permutation_order(self, n):
        perms = all_permutations(n)
        assert [list(s.images) for s in perms] == (sn_tables(n)[0] + 1).tolist()
        classes = [s.cycle_type() for s in perms]
        for p in partitions_of(n):
            assert character_weights(p).tolist() == [character(p, c) for c in classes]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_orthogonal_trace(self, n):
        # floating traces of the explicit matrices are the oracle here
        for p in partitions_of(n):
            for s in all_permutations(n):
                tr = np.trace(young_matrix(p, s))
                assert abs(tr - character(p, s.cycle_type())) < 1e-10


class TestPermutation:
    def test_roundtrip(self):
        s = Permutation((2, 3, 1))
        assert s(1) == 2
        assert s.inverse().compose(s) == Permutation.identity(3)
        assert s.cycle_type() == P(3)

    def test_compose_order(self):
        a = Permutation((2, 1, 3))
        b = Permutation((1, 3, 2))
        assert (a * b)(3) == a(b(3))

    def test_invalid(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 2))


class TestYoungOrthogonal:
    def test_trivial_and_sign(self):
        s = Permutation((2, 1))
        np.testing.assert_allclose(young_matrix(P(2), s), [[1.0]])
        np.testing.assert_allclose(young_matrix(P(1, 1), s), [[-1.0]])

    def test_orthogonality(self):
        for s in all_permutations(4):
            g = young_matrix(P(2, 1, 1), s)
            assert np.abs(g.T @ g - np.eye(3)).max() < 1e-12

    def test_homomorphism_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            perms = all_permutations(n)
            s1 = perms[rng.integers(len(perms))]
            s2 = perms[rng.integers(len(perms))]
            p = partitions_of(n)[rng.integers(len(partitions_of(n)))]
            lhs = young_matrix(p, s1.compose(s2))
            rhs = young_matrix(p, s1) @ young_matrix(p, s2)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_class_trace_constant(self):
        p = P(3, 1)
        traces = {}
        for s in all_permutations(4):
            traces.setdefault(s.cycle_type().parts, set()).add(
                round(float(np.trace(young_matrix(p, s))), 9)
            )
        assert all(len(v) == 1 for v in traces.values())


def reference_tables(p):
    """Young's orthogonal matrix of every permutation, in sn_tables order,
    each the product of its own bubble-sort factors."""
    images = sn_tables(p.n)[0]
    return np.array([ref.young_orthogonal(p, Permutation(row + 1)) for row in images])


class TestYoungTables:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_tables_equal_the_reference(self, n):
        # every permutation, in sn_tables order, against the table of s o s_k
        # times the matrix of s_k; the two multiply in different orders
        perms = all_permutations(n)
        images = sn_tables(n)[0]
        assert [list(s.images) for s in perms] == (images + 1).tolist()
        index = {tuple(row): a for a, row in enumerate(images.tolist())}
        for p in partitions_of(n):
            tables = reference_tables(p)
            assert tables.shape == (len(perms),) + (dim_sym(p),) * 2
            assert np.array_equal(tables[0], np.eye(dim_sym(p)))
            for k in range(1, n):
                swap = list(range(n))
                swap[k - 1], swap[k] = k, k - 1
                for a, row in enumerate(images):
                    b = index[tuple(row[swap].tolist())]
                    product = tables[b] @ ref.adjacent_matrix(p, k)
                    assert np.abs(tables[a] - product).max() <= 1e-14

    @pytest.mark.parametrize("n", range(1, 8))
    def test_traces_are_characters(self, n):
        images = sn_tables(n)[0]
        for p in partitions_of(n):
            traces = np.array(
                [np.trace(ref.young_orthogonal(p, Permutation(row + 1))) for row in images]
            )
            assert np.abs(traces - character_weights(p)).max() < 1e-12
