import math

import numpy as np
import pytest

from immdfun.dualspace import (
    ChainSubspace,
    CollectiveOperator,
    TensorState,
    _digits,
    _powers,
    _tensor_irrep,
    _TensorIrrep,
    _weight_blocks,
    apply_permutation,
    apply_tensor_power,
    basis_state,
    chain_subspace,
    coefficient_matrix,
    coefficient_matrix_value,
    immanant_projector,
    immanant_via_duality,
    state_weight,
    tensor_power_row,
)
from immdfun.errors import DomainError, ResourceLimitError
from immdfun.linalgimm import (
    SubmatrixSelector,
    UnitaryElement,
    haar_random_unitary,
    immanant,
    permutation_matrix,
    submatrix,
)
from immdfun.symgroup import (
    Partition,
    Permutation,
    all_permutations,
    character,
    dim_sym,
    partitions_of,
)
from immdfun.sunrep import SUIrrepLabel, gt_basis, lift, weight_of
from immdfun.verification import classify_coefficients, conjecture_scan, verify_littlewood

P = Partition


def random_state(m, n, seed):
    rng = np.random.default_rng(seed)
    return TensorState(m, n, rng.standard_normal(m**n) + 1j * rng.standard_normal(m**n))


class TestBasisStates:
    def test_weights(self):
        assert state_weight(3, (1, 2, 3)).cartan == (0, 0)
        assert state_weight(5, (1, 2, 4)).cartan == (0, 1, -1, 1)
        assert state_weight(2, (1, 1)).cartan == (2,)

    def test_unit_vector(self):
        v = basis_state(2, (2, 1))
        assert v.amplitudes[2] == 1.0 and v.norm == 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            basis_state(2, (1, 3))


class TestPermutationAction:
    def test_identity(self):
        v = random_state(3, 3, 0)
        w = apply_permutation(Permutation.identity(3), v)
        assert np.array_equal(v.amplitudes, w.amplitudes)

    def test_group_law(self):
        v = random_state(3, 4, 1)
        perms = all_permutations(4)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s1 = perms[rng.integers(len(perms))]
            s2 = perms[rng.integers(len(perms))]
            lhs = apply_permutation(s1, apply_permutation(s2, v))
            rhs = apply_permutation(s1.compose(s2), v)
            assert np.abs(lhs.amplitudes - rhs.amplitudes).max() < 1e-14

    def test_basis_relabelling(self):
        # the factor-j mode of the image is the factor-s(j) mode of the input
        v = basis_state(4, (1, 3, 4))
        s = Permutation((2, 1, 3))
        w = apply_permutation(s, v)
        assert w.amplitudes[np.nonzero(w.amplitudes)[0][0]] == 1.0
        expected = basis_state(4, (3, 1, 4))
        assert np.array_equal(w.amplitudes, expected.amplitudes)

    def test_mode_permutation_relates_row_states(self):
        # swapping modes 1 and 2 of the one-body space sends the kept-mode
        # state for (1,3,4) to the one for (2,3,4); this is a group element
        # acting through the tensor power, not a factor permutation
        swap = permutation_matrix(Permutation((2, 1, 3, 4)))
        moved = apply_tensor_power(swap, basis_state(4, (1, 3, 4)))
        assert np.array_equal(moved.amplitudes, basis_state(4, (2, 3, 4)).amplitudes)


class TestProjector:
    def test_symmetrizer_on_symmetric_state(self):
        sym = basis_state(2, (1, 1))  # already symmetric
        out = immanant_projector(P(2), sym)
        assert np.abs(out.amplitudes - 2.0 * sym.amplitudes).max() < 1e-14

    def test_antisymmetrizer_kills_symmetric_state(self):
        out = immanant_projector(P(1, 1), basis_state(2, (1, 1)))
        assert np.abs(out.amplitudes).max() == 0.0

    @pytest.mark.parametrize("p", [P(3), P(2, 1), P(1, 1, 1)])
    def test_projector_algebra(self, p):
        v = random_state(3, 3, 7)
        once = immanant_projector(p, v)
        twice = immanant_projector(p, once)
        factor = math.factorial(3) / dim_sym(p)
        assert np.abs(twice.amplitudes - factor * once.amplitudes).max() < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            immanant_projector(P(2), random_state(2, 3, 0))

    @pytest.mark.parametrize("m, n", [(3, 3), (2, 4)])
    def test_equals_character_weighted_permutations(self, m, n):
        v = random_state(m, n, 11)
        for p in partitions_of(n):
            want = np.zeros_like(v.amplitudes)
            for s in all_permutations(n):
                want += character(p, s.cycle_type()) * apply_permutation(s, v).amplitudes
            got = immanant_projector(p, v).amplitudes
            assert np.abs(got - want).max() < 1e-12


class TestCollectiveOperators:
    def test_matches_axis_slice_reference(self):
        # Reference: add factor t's mode-j slice into its mode-i slice, t = 0, 1, ...
        m, n = 3, 4
        v = random_state(m, n, 5)
        tensor = v.amplitudes.reshape((m,) * n)
        for i, j in [(1, 2), (3, 1), (2, 2)]:
            want = np.zeros_like(tensor)
            for axis in range(n):
                dst, src = [slice(None)] * n, [slice(None)] * n
                dst[axis], src[axis] = i - 1, j - 1
                want[tuple(dst)] += tensor[tuple(src)]
            got = CollectiveOperator(m, n, i, j)(v).amplitudes
            assert np.array_equal(got, want.reshape(-1))

    def test_diagonal_counts(self):
        v = basis_state(3, (1, 1, 3))
        for i, count in ((1, 2), (2, 0), (3, 1)):
            out = CollectiveOperator(3, 3, i, i)(v)
            assert np.abs(out.amplitudes - count * v.amplitudes).max() == 0.0

    def test_cartan_annihilates_uniform_state(self):
        psi = basis_state(4, (1, 2, 3, 4))
        for i in range(1, 4):
            upper = CollectiveOperator(4, 4, i, i)(psi)
            lower = CollectiveOperator(4, 4, i + 1, i + 1)(psi)
            assert np.abs(upper.amplitudes - lower.amplitudes).max() == 0.0

    def test_commutation_relations_on_random_states(self):
        m, n = 3, 3
        v = random_state(m, n, 11)
        for (i, j, k, l) in [(1, 2, 2, 1), (1, 2, 2, 3), (2, 3, 3, 2), (1, 3, 2, 1)]:
            cij, ckl = CollectiveOperator(m, n, i, j), CollectiveOperator(m, n, k, l)
            lhs = cij(ckl(v)).amplitudes - ckl(cij(v)).amplitudes
            rhs = np.zeros_like(lhs)
            if j == k:
                rhs = rhs + CollectiveOperator(m, n, i, l)(v).amplitudes
            if l == i:
                rhs = rhs - CollectiveOperator(m, n, k, j)(v).amplitudes
            assert np.abs(lhs - rhs).max() < 1e-12


class TestChainSubspace:
    def test_mixed_tensor_counts(self):
        cs = chain_subspace(3, 3, SUIrrepLabel(3, (2, 1, 0)), (1, 1, 1))
        assert len(cs.vectors) == 4  # 2 patterns x 2 copies
        assert {alpha for _, alpha in cs.tags} == {0, 1}

    def test_symmetric_single_copy(self):
        cs = chain_subspace(3, 3, SUIrrepLabel(3, (3, 0, 0)), (1, 1, 1))
        assert len(cs.vectors) == 1

    def test_singlet(self):
        cs = chain_subspace(2, 2, SUIrrepLabel(2, (0, 0)), (1, 1))
        assert len(cs.vectors) == 1
        v = cs.vectors[0].amplitudes
        expect = np.zeros(4, complex)
        expect[1], expect[2] = 1, -1
        expect /= math.sqrt(2)
        assert min(np.abs(v - expect).max(), np.abs(v + expect).max()) < 1e-12

    def test_absent_irrep_is_empty(self):
        cs = chain_subspace(3, 3, SUIrrepLabel(3, (1, 1, 0)), (1, 1, 0))
        assert cs.vectors == [] and isinstance(cs, ChainSubspace)

    def test_orthonormality(self):
        cs = chain_subspace(4, 3, SUIrrepLabel(4, (2, 1, 0, 0)), (1, 1, 1, 0))
        gram = np.array(
            [[np.vdot(a.amplitudes, b.amplitudes) for b in cs.vectors] for a in cs.vectors]
        )
        assert np.abs(gram - np.eye(len(cs.vectors))).max() < 1e-10

    def test_vectors_are_weight_eigenstates(self):
        cs = chain_subspace(3, 3, SUIrrepLabel(3, (2, 1, 0)), (1, 1, 1))
        for vec, (pat, _) in zip(cs.vectors, cs.tags):
            occ = weight_of(pat).occupation
            for i in range(1, 4):
                out = CollectiveOperator(3, 3, i, i)(vec)
                assert np.abs(out.amplitudes - occ[i - 1] * vec.amplitudes).max() < 1e-10

    def test_dblock_matches_lifted_matrix(self):
        # the chain vectors must reproduce the GT group functions entrywise
        label = SUIrrepLabel(3, (2, 1, 0))
        rep = _tensor_irrep(3, 3, (2, 1, 0))
        u = haar_random_unitary(3, 17)
        lifted = lift(label, u).matrix
        pats = gt_basis(label)
        index = {p: i for i, p in enumerate(pats)}
        for alpha in range(rep.n_copies):
            for beta in range(rep.n_copies):
                for r in pats[:4]:
                    vr = rep.dense_vector(r, alpha)
                    for s in pats[:4]:
                        vs = rep.dense_vector(s, beta)
                        moved = apply_tensor_power(u.matrix, TensorState(3, 3, vs))
                        got = np.vdot(vr, moved.amplitudes)
                        want = lifted[index[r], index[s]] if alpha == beta else 0.0
                        assert abs(got - want) < 1e-10

    def test_weight_block_computed_once(self):
        # Two irreps of one tensor power read one table, built on one miss.
        _weight_blocks.cache_clear()
        first = _TensorIrrep(3, 3, SUIrrepLabel(3, (2, 1, 0)))
        second = _TensorIrrep(3, 3, SUIrrepLabel(3, (3, 0, 0)))
        assert second.blocks is first.blocks
        assert _weight_blocks.cache_info().misses == 1
        block = first.blocks[(1, 1, 1)]
        expected = sorted(basis_state(3, s.images).amplitudes.argmax() for s in all_permutations(3))
        assert block.tolist() == expected
        _, pos = _weight_blocks(3, 3)
        assert pos[block].tolist() == list(range(6))
        assert sum(len(b) for b in first.blocks.values()) == 27

    def test_shared_tables_are_read_only(self):
        blocks, pos = _weight_blocks(3, 2)
        for table in (_digits(3, 2), _powers(3, 2), blocks[(1, 1, 0)], pos):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_tensor_power_row(self):
        assert tensor_power_row(SUIrrepLabel(3, (0, 0, 0)), 3) == (1, 1, 1)
        assert tensor_power_row(SUIrrepLabel(3, (2, 1, 0)), 3) == (2, 1, 0)
        assert tensor_power_row(SUIrrepLabel(3, (1, 1, 0)), 3) is None


class TestCoefficientMatrix:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_principal_full_is_identity(self, m):
        full = tuple(range(1, m + 1))
        for p in partitions_of(m):
            cm = coefficient_matrix(m, p, full, full)
            d = cm.entries.shape[0]
            assert d == dim_sym(p)  # zero-weight count matches the dual dimension
            assert np.abs(cm.entries - np.eye(d)).max() < 1e-10

    def test_principal_selector_is_identity(self):
        for keep in [(1, 3), (2, 4), (1, 2, 4)]:
            p = P((2,) if len(keep) == 2 else (2, 1))
            cm = coefficient_matrix(4, p, keep, keep)
            d = cm.entries.shape[0]
            assert np.abs(cm.entries - np.eye(d)).max() < 1e-10

    def test_flagship_nondiagonal_case(self):
        cm = coefficient_matrix(4, P(2, 1), (2, 3, 4), (1, 3, 4))
        info = classify_coefficients(cm)
        assert info["unit_entries"] == 2
        assert info["zero_entries"] == cm.entries.size - 2
        assert not info["violations"]

    def test_hermitian_for_coaxial(self):
        cm = coefficient_matrix(4, P(2, 1), (1, 2, 4), (1, 2, 4))
        assert np.abs(cm.entries - cm.entries.conj().T).max() < 1e-12

    def test_multiplicity_basis_invariance(self):
        # exported entries must not depend on the orthonormal alpha choice
        m, p, k, q = 4, P(2, 1), (2, 3, 4), (1, 3, 4)
        cm = coefficient_matrix(m, p, k, q)
        rep = _tensor_irrep(m, 3, (2, 1, 0, 0))
        rng = np.random.default_rng(5)
        g = rng.standard_normal((rep.n_copies, rep.n_copies)) + 1j * rng.standard_normal(
            (rep.n_copies, rep.n_copies)
        )
        rot, _ = np.linalg.qr(g)
        from immdfun.dualspace import _mode_index

        idx_k, idx_q = _mode_index(m, k), _mode_index(m, q)
        scale = math.factorial(3) / dim_sym(p)
        rebuilt = np.zeros_like(cm.entries)
        for a, r in enumerate(cm.row_patterns):
            left = rep.amplitude(r, idx_k) @ rot
            for b, s in enumerate(cm.col_patterns):
                right = rep.amplitude(s, idx_q) @ rot
                rebuilt[a, b] = scale * np.dot(left, right.conj())
        assert np.abs(rebuilt - cm.entries).max() < 1e-10

    def test_reproduces_immanants(self):
        m, p = 4, P(2, 1)
        k, q = (1, 2, 4), (2, 3, 4)
        cm = coefficient_matrix(m, p, k, q)
        label = SUIrrepLabel(m, (2, 1, 0, 0))
        for i in range(25):
            u = haar_random_unitary(m, 300 + i)
            direct = immanant(p, submatrix(u.matrix, SubmatrixSelector(k, q)))
            via = coefficient_matrix_value(cm, lift(label, u))
            assert abs(direct - via) < 1e-9

    def test_incompatible_selectors(self):
        with pytest.raises(DomainError):
            coefficient_matrix(4, P(2, 1), (1, 2, 3), (1, 2))
        with pytest.raises(DomainError):
            coefficient_matrix(4, P(2), (1, 2, 3), (1, 2, 4))


class TestDualityOracle:
    def test_full_principal_equals_immanant(self):
        u = haar_random_unitary(4, 40)
        for p in partitions_of(4):
            a = immanant_via_duality(4, p, (1, 2, 3, 4), (1, 2, 3, 4), u)
            b = immanant(p, u.matrix)
            assert abs(a - b) < 1e-10

    def test_identity_element_structure(self):
        # only permutations matching the two mode sets contribute at U = 1
        val = immanant_via_duality(4, P(2, 1), (1, 2, 3), (1, 2, 3), UnitaryElement(np.eye(4)))
        assert val == pytest.approx(dim_sym(P(2, 1)), abs=1e-12)
        off = immanant_via_duality(4, P(2, 1), (1, 2, 3), (1, 2, 4), UnitaryElement(np.eye(4)))
        assert off == pytest.approx(0.0, abs=1e-12)

    def test_all_3x3_submatrices_random_su4(self):
        from itertools import combinations

        u = haar_random_unitary(4, 50)
        p = P(2, 1)
        for k in combinations(range(1, 5), 3):
            for q in combinations(range(1, 5), 3):
                a = immanant_via_duality(4, p, k, q, u)
                b = immanant(p, submatrix(u.matrix, SubmatrixSelector(k, q)))
                assert abs(a - b) < 1e-10


class TestTheorem3AndNormalization:
    @pytest.mark.parametrize("m", [2, 3])
    def test_kostant_trace(self, m):
        for p in partitions_of(m):
            label = SUIrrepLabel.from_partition(p, m, normalize=False)
            for i in range(5):
                u = haar_random_unitary(m, 500 + i)
                lifted = lift(label, u)
                pats = gt_basis(label)
                dsum = sum(
                    lifted.matrix[a, a]
                    for a, pat in enumerate(pats)
                    if weight_of(pat).occupation == (1,) * m
                )
                assert abs(immanant(p, u.matrix) - dsum) < 1e-9

    def test_projection_norm_factor(self):
        # ||Pi^p |Psi_{1..N}>||^2 = (N!/dim p)^2 sum |<psi|Psi>|^2
        m = 3
        psi = basis_state(m, (1, 2, 3))
        for p in partitions_of(m):
            label = SUIrrepLabel.from_partition(p, m, normalize=False)
            cs = chain_subspace(m, m, label, (1, 1, 1))
            overlap_sq = sum(abs(np.vdot(v.amplitudes, psi.amplitudes)) ** 2 for v in cs.vectors)
            projected = immanant_projector(p, psi)
            factor = math.factorial(m) / dim_sym(p)
            assert projected.norm**2 == pytest.approx(factor**2 * overlap_sq, rel=1e-10)

    def test_w_matrix_invariance_under_permutations(self):
        # Gamma(s) W Gamma(s)^-1 = W for the lifted factor permutations,
        # realized as phase-normalized permutation matrices of the modes
        m = 3
        p = P(2, 1)
        full = tuple(range(1, m + 1))
        w = coefficient_matrix(m, p, full, full).entries
        label = SUIrrepLabel.from_partition(p, m, normalize=False)
        pats = gt_basis(label)
        zero_idx = [a for a, pat in enumerate(pats) if weight_of(pat).occupation == (1, 1, 1)]
        for s in all_permutations(m):
            pm = UnitaryElement.from_matrix(permutation_matrix(s), tol=1e-10)
            gamma = lift(label, pm).matrix[np.ix_(zero_idx, zero_idx)]
            assert np.abs(gamma @ w @ gamma.conj().T - w).max() < 1e-9
        assert np.abs(w - np.eye(len(zero_idx))).max() < 1e-10

    def test_zero_weight_block_traces_match_characters(self):
        # the lifted mode permutations restricted to the zero-weight block
        # carry the dual symmetric-group irrep
        m = 3
        p = P(2, 1)
        label = SUIrrepLabel.from_partition(p, m, normalize=False)
        pats = gt_basis(label)
        zero_idx = [a for a, pat in enumerate(pats) if weight_of(pat).occupation == (1, 1, 1)]
        for s in all_permutations(m):
            pm = UnitaryElement.from_matrix(permutation_matrix(s), tol=1e-10)
            gamma = lift(label, pm).matrix[np.ix_(zero_idx, zero_idx)]
            assert abs(np.trace(gamma) - character(p, s.cycle_type())) < 1e-8


class TestLittlewood:
    def test_identity_element(self):
        report = verify_littlewood(UnitaryElement(np.eye(4)))
        assert report.passed and report.residual < 1e-12

    def test_haar_samples(self):
        for i in range(10):
            report = verify_littlewood(haar_random_unitary(4, 600 + i))
            assert report.passed, report.details
            assert report.residual < 1e-9

    def test_wrong_side(self):
        with pytest.raises(DomainError):
            verify_littlewood(haar_random_unitary(3, 1))


class TestConjectureScan:
    def test_su4_all_3x3(self):
        reports = conjecture_scan(4, P(2, 1), check_samples=5)
        assert len(reports) == 16
        for r in reports:
            assert r.passed
            assert r.details["unit_entries"] == 2
            assert r.details["modulus_unit_entries"] == 2

    def test_named_su5_cases(self):
        r21 = conjecture_scan(5, P(2, 1), selectors=[((2, 3, 5), (1, 3, 4))], check_samples=5)[0]
        assert r21.passed and r21.details["unit_entries"] == 2
        r31 = conjecture_scan(
            5, P(3, 1), selectors=[((1, 3, 4, 5), (1, 2, 3, 5))], check_samples=5
        )[0]
        assert r31.passed and r31.details["unit_entries"] == 3

    def test_report_shape(self):
        r = conjecture_scan(4, P(3), selectors=[((1, 2, 3), (1, 2, 3))], check_samples=3)[0]
        assert r.suite == "conjecture"
        assert r.details["row_tags"] and r.details["col_tags"]

    def test_extended_evidence_all_selector_grids(self):
        # every selector pair of both groups, every partition of the size:
        # the unit-coefficient pattern holds throughout the scanned sets
        for m, size in [(4, 3), (5, 3), (5, 4)]:
            for p in partitions_of(size):
                reports = conjecture_scan(m, p, check_samples=2)
                assert all(r.passed for r in reports), (m, p)
                assert all(
                    r.details["unit_entries"] == dim_sym(p) for r in reports
                )


class TestResourceCaps:
    def test_tensor_size_cap(self):
        with pytest.raises(ResourceLimitError):
            chain_subspace(10, 7, SUIrrepLabel(10, (1,) + (0,) * 9), (1,) + (0,) * 9)

    def test_duality_mode_cap(self):
        with pytest.raises(ResourceLimitError):
            immanant_via_duality(7, P(2), (1, 2), (1, 2), UnitaryElement(np.eye(7)))
