import json
import math

import numpy as np
import pytest

from immdfun.cli import main
from immdfun.errors import DomainError, ResourceLimitError
from immdfun.linalgimm import (
    UnitaryElement,
    haar_random_unitary,
    permutation_matrix,
    su2_euler,
)
from immdfun.symgroup import Partition, all_permutations
from immdfun.sunrep import (
    GTPattern,
    _generator_stack,
    _raising_entry,
    _simple_raising,
    SUIrrepLabel,
    WeightVector,
    chain_label,
    dfunction,
    dim_weyl,
    generator_matrix,
    gt_basis,
    lift,
    occupations,
    pattern_index,
    su2_irrep,
    weight_of,
    weight_subspace,
)

P = Partition


class TestLabels:
    def test_from_partition(self):
        lab = SUIrrepLabel.from_partition(P(2, 1), 4)
        assert lab.row == (2, 1, 0, 0)
        assert lab.round_label == (1, 1, 0)

    def test_normalization(self):
        lab = SUIrrepLabel.from_partition(P(1, 1, 1), 3)
        assert lab.row == (0, 0, 0)

    def test_invalid(self):
        with pytest.raises(DomainError):
            SUIrrepLabel(3, (1, 2, 0))
        with pytest.raises(DomainError):
            SUIrrepLabel.from_partition(P(1, 1, 1), 2)

    def test_su2(self):
        assert su2_irrep(3).row == (3, 0)  # J = 3/2


class TestGTBasis:
    @pytest.mark.parametrize(
        "row,expected",
        [((2, 0), 3), ((2, 1, 0), 8), ((2, 0, 0), 6), ((12, 0, 0), 91)],
    )
    def test_counts_match_weyl(self, row, expected):
        ir = SUIrrepLabel(len(row), row)
        assert len(gt_basis(ir)) == dim_weyl(ir) == expected

    def test_su2_dimension(self):
        for two_j in range(0, 7):
            assert dim_weyl(su2_irrep(two_j)) == two_j + 1

    @pytest.mark.parametrize("row", [(3, 1, 0), (2, 1, 1, 0), (2, 2, 0, 0, 0)])
    def test_count_equals_weyl(self, row):
        ir = SUIrrepLabel(len(row), row)
        assert len(gt_basis(ir)) == dim_weyl(ir)

    def test_canonical_order_descending(self):
        pats = gt_basis(SUIrrepLabel(3, (2, 1, 0)))
        flats = [p.flattened() for p in pats]
        assert flats == sorted(flats, reverse=True)
        assert pats[0].rows == ((2, 1, 0), (2, 1), (2,))  # highest weight first

    def test_betweenness_enforced(self):
        with pytest.raises(DomainError):
            GTPattern(((2, 0), (3,)))


class TestWeights:
    def test_highest_weight_occupation(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        assert weight_of(gt_basis(ir)[0]).occupation == (2, 1, 0)

    def test_zero_weight_pair(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        pats = weight_subspace(ir, WeightVector((1, 1, 1)))
        assert len(pats) == 2
        assert all(weight_of(p).cartan == (0, 0) for p in pats)

    def test_single_permanent_state(self):
        pats = weight_subspace(SUIrrepLabel(3, (3, 0, 0)), (1, 1, 1))
        assert len(pats) == 1

    def test_total_is_box_count(self):
        ir = SUIrrepLabel(4, (3, 1, 0, 0))
        for p in gt_basis(ir):
            assert weight_of(p).total == 4

    def test_outside_diagram_empty(self):
        assert weight_subspace(su2_irrep(2), (5, 0)) == ()

    def test_chain_label_format(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        labels = [chain_label(p) for p in weight_subspace(ir, (1, 1, 1))]
        assert labels == ["111(1)", "111(0)"]

    @pytest.mark.parametrize(
        "row", [(3, 0), (2, 1, 0), (2, 1, 0, 0), (3, 2, 1)], ids=str
    )
    def test_tables_follow_basis_order(self, row):
        ir = SUIrrepLabel(len(row), row)
        basis = gt_basis(ir)
        assert len(occupations(ir)) == len(pattern_index(ir)) == len(basis)
        for i, p in enumerate(basis):
            assert occupations(ir)[i] == weight_of(p).occupation
            assert pattern_index(ir)[p] == i


class TestGenerators:
    def test_diagonal_counts_occupation(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        for i in (1, 2, 3):
            gen = generator_matrix(ir, i, i)
            expected = np.diag([weight_of(p).occupation[i - 1] for p in gt_basis(ir)])
            assert np.array_equal(gen, expected)

    def test_fundamental_is_matrix_unit(self):
        ir = SUIrrepLabel(4, (1, 0, 0, 0))
        for i in range(1, 5):
            for j in range(1, 5):
                unit = np.zeros((4, 4))
                unit[i - 1, j - 1] = 1.0
                assert np.abs(generator_matrix(ir, i, j) - unit).max() < 1e-14

    def test_simple_elements_nonnegative(self):
        ir = SUIrrepLabel(3, (3, 1, 0))
        for k in (1, 2):
            assert generator_matrix(ir, k, k + 1).min() >= 0.0
            assert generator_matrix(ir, k + 1, k).min() >= 0.0

    @pytest.mark.parametrize(
        "row",
        [(1, 0), (2, 0), (1, 1, 0), (2, 1, 0), (1, 1, 0, 0), (2, 1, 1, 0), (1, 0, 0, 0, 0), (1, 1, 1, 0, 0)],
    )
    def test_commutation_relations(self, row):
        # [C_ij, C_kl] = d_jk C_il - d_li C_kj on every index pair
        ir = SUIrrepLabel(len(row), row)
        m = ir.m
        gens = {(i, j): generator_matrix(ir, i, j) for i in range(1, m + 1) for j in range(1, m + 1)}
        for (i, j), a in gens.items():
            for (k, l), b in gens.items():
                expected = np.zeros_like(a)
                if j == k:
                    expected = expected + gens[(i, l)]
                if l == i:
                    expected = expected - gens[(k, j)]
                assert np.abs(a @ b - b @ a - expected).max() < 1e-12

    def test_generator_matrix_is_a_view_of_the_stack(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        stack = _generator_stack(ir)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                gen = generator_matrix(ir, i, j)
                assert np.shares_memory(gen, stack)
                assert np.array_equal(gen, stack[i - 1, j - 1])
        with pytest.raises(DomainError):
            generator_matrix(ir, 0, 1)
        with pytest.raises(DomainError):
            generator_matrix(ir, 1, 4)

    def test_generator_tables_are_read_only(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        for table in (_generator_stack(ir), generator_matrix(ir, 2, 1), _simple_raising(ir, 1)):
            with pytest.raises(ValueError):
                table[..., 0, 0] = 1.0

    @pytest.mark.parametrize(
        "row",
        [(1, 0), (4, 0), (2, 1, 0), (3, 1, 0), (4, 2, 0), (3, 3, 0), (2, 1, 1, 0), (3, 2, 1, 0), (2, 1, 0, 0, 0)],
    )
    def test_every_valid_raise_is_positive(self, row):
        ir = SUIrrepLabel(len(row), row)
        index = pattern_index(ir)
        raises = 0
        for pat in gt_basis(ir):
            for k in range(1, ir.m):
                for j in range(k):
                    rows = [list(r) for r in pat.rows]
                    rows[ir.m - k][j] += 1
                    try:
                        target = GTPattern(rows)
                    except DomainError:
                        continue
                    entry = _raising_entry(pat, k, j)
                    assert entry > 0.0
                    assert _simple_raising(ir, k)[index[target], index[pat]] == entry
                    raises += 1
        assert raises > 0
        # _simple_raising has exactly the valid raises as its nonzero entries
        assert sum(np.count_nonzero(_simple_raising(ir, k)) for k in range(1, ir.m)) == raises

    def test_invalid_raise_is_domain_error(self):
        # Raising the single-entry row from 2 to 3 breaks betweenness under (2, 1).
        with pytest.raises(DomainError):
            _raising_entry(GTPattern(((2, 1, 0), (2, 1), (2,))), 1, 0)

    def test_su3_commutator_example(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        c12, c21 = generator_matrix(ir, 1, 2), generator_matrix(ir, 2, 1)
        assert np.abs(
            c12 @ c21 - c21 @ c12 - (generator_matrix(ir, 1, 1) - generator_matrix(ir, 2, 2))
        ).max() < 1e-12


class TestLift:
    def test_fundamental_returns_element(self):
        u = haar_random_unitary(3, 8)
        lifted = lift(SUIrrepLabel(3, (1, 0, 0)), u)
        assert np.abs(lifted.matrix - u.matrix).max() < 1e-12

    def test_su2_middle_entry_is_cos_beta(self):
        beta = 1.234
        lifted = lift(su2_irrep(2), su2_euler(0.3, beta, -0.8))
        assert lifted.matrix[1, 1] == pytest.approx(math.cos(beta), abs=1e-12)

    def test_identity_lifts_to_identity(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        lifted = lift(ir, UnitaryElement(np.eye(3)))
        assert np.abs(lifted.matrix - np.eye(8)).max() < 1e-12

    @pytest.mark.parametrize("row", [(2, 0), (2, 1, 0), (2, 1, 1, 0)])
    def test_homomorphism(self, row):
        ir = SUIrrepLabel(len(row), row)
        m = ir.m
        for i in range(50):
            u1 = haar_random_unitary(m, 100 + i)
            u2 = haar_random_unitary(m, 200 + i)
            prod = UnitaryElement.from_matrix(u1.matrix @ u2.matrix, tol=1e-9)
            lhs = lift(ir, prod).matrix
            rhs = lift(ir, u1).matrix @ lift(ir, u2).matrix
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_unitarity(self):
        ir = SUIrrepLabel(4, (3, 1, 0, 0))
        lifted = lift(ir, haar_random_unitary(4, 77))
        d = lifted.matrix.shape[0]
        assert np.abs(lifted.matrix.conj().T @ lifted.matrix - np.eye(d)).max() < 1e-10

    def test_weight_covariance_on_torus(self):
        ir = SUIrrepLabel(3, (3, 1, 0))
        theta = np.array([0.7, -0.2, -0.5])
        u = UnitaryElement(np.diag(np.exp(1j * theta)))
        lifted = lift(ir, u)
        expect = np.diag(
            [np.exp(1j * np.dot(weight_of(p).occupation, theta)) for p in gt_basis(ir)]
        )
        assert np.abs(lifted.matrix - expect).max() < 1e-10

    def test_branch_cut_refusal(self):
        # eigenvalue -1 is not refused: diag(-1,-1,1) is an involution, so its
        # lift is one too
        ir = SUIrrepLabel(3, (2, 1, 0))
        u = UnitaryElement(np.diag([-1.0, -1.0, 1.0]))
        t = lift(ir, u).matrix
        eye = np.eye(dim_weyl(ir))
        assert np.abs(t @ t - eye).max() < 1e-12
        assert np.abs(t.conj().T @ t - eye).max() < 1e-12

    def test_branch_shift(self):
        # the lift of diag(-1,-1,1) is the cube of its cube root's lift
        ir = SUIrrepLabel(3, (2, 1, 0))
        u = UnitaryElement(np.diag([-1.0, -1.0, 1.0]))
        root = UnitaryElement(np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 3, -2 * np.pi / 3]))))
        cube = np.linalg.matrix_power(lift(ir, root).matrix, 3)
        assert np.abs(lift(ir, u).matrix - cube).max() < 1e-12

    @pytest.mark.parametrize("row", [(2, 1, 0), (3, 0, 0), (2, 1, 1, 0), (2, 2, 0, 0)])
    def test_homomorphism_on_permutation_matrices(self, row):
        # S_3 and S_4 mode permutations, phase-normalized to det 1; the double
        # transpositions of S_4 have eigenvalues exactly -1
        ir = SUIrrepLabel(len(row), row)
        m = ir.m
        v = haar_random_unitary(m, 31)
        t_v = lift(ir, v).matrix
        for s in all_permutations(m):
            p = UnitaryElement.from_matrix(permutation_matrix(s))
            t_p = lift(ir, p).matrix
            pv = UnitaryElement.from_matrix(p.matrix @ v.matrix)
            vp = UnitaryElement.from_matrix(v.matrix @ p.matrix)
            assert np.abs(lift(ir, pv).matrix - t_p @ t_v).max() < 1e-12
            assert np.abs(lift(ir, vp).matrix - t_v @ t_p).max() < 1e-12

    def test_dimension_cap(self, monkeypatch):
        big = SUIrrepLabel(3, (40, 20, 0))
        assert dim_weyl(big) > 512
        with pytest.raises(ResourceLimitError):
            lift(big, UnitaryElement(np.eye(3)))
        monkeypatch.setenv("IMMDFUN_MAX_DIM", "100000")
        # now permitted by the env override (construction cost is the guard)
        from immdfun.sunrep import max_lift_dim

        assert max_lift_dim() == 100000

    def test_shift_invariance_of_dfunctions(self):
        # adding (1,1,1) to the row leaves every group function unchanged
        u = haar_random_unitary(3, 55)
        base = SUIrrepLabel(3, (2, 1, 0))
        shifted = SUIrrepLabel(3, (3, 2, 1))
        lhs = lift(base, u).matrix
        rhs = lift(shifted, u).matrix
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_torus_covariance_selection_rule(self):
        # D_rt picks up the left/right weight phases under torus multiplication,
        # so each entry connects two definite weights
        ir = SUIrrepLabel(3, (2, 1, 0))
        u = haar_random_unitary(3, 66)
        th_l = np.array([0.4, -0.1, -0.3])
        th_r = np.array([-0.6, 0.5, 0.1])
        left = UnitaryElement(np.diag(np.exp(1j * th_l)))
        right = UnitaryElement(np.diag(np.exp(1j * th_r)))
        sandwiched = UnitaryElement.from_matrix(
            left.matrix @ u.matrix @ right.matrix, tol=1e-9
        )
        got = lift(ir, sandwiched).matrix
        base = lift(ir, u).matrix
        pats = gt_basis(ir)
        phase_l = np.array([np.exp(1j * np.dot(weight_of(p).occupation, th_l)) for p in pats])
        phase_r = np.array([np.exp(1j * np.dot(weight_of(p).occupation, th_r)) for p in pats])
        assert np.abs(got - phase_l[:, None] * base * phase_r[None, :]).max() < 1e-9


class TestDFunction:
    def test_identity_is_delta(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        pats = gt_basis(ir)
        u = UnitaryElement(np.eye(3))
        assert dfunction(ir, pats[0], pats[0], u) == pytest.approx(1.0, abs=1e-12)
        assert dfunction(ir, pats[0], pats[3], u) == pytest.approx(0.0, abs=1e-12)

    def test_fundamental_matrix_layout(self):
        # the 3x3 table of group functions is the defining matrix itself
        ir = SUIrrepLabel(3, (1, 0, 0))
        u = haar_random_unitary(3, 10)
        pats = gt_basis(ir)
        table = np.array(
            [[dfunction(ir, r, t, u) for t in pats] for r in pats]
        )
        assert np.abs(table - u.matrix).max() < 1e-12

    def test_pattern_mismatch(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        other = gt_basis(SUIrrepLabel(3, (1, 0, 0)))[0]
        with pytest.raises(DomainError):
            dfunction(ir, other, other, UnitaryElement(np.eye(3)))

    def test_records_identity(self, capsys):
        assert main(["dump-dfunctions", "--row", "2,1,0", "--identity", "3"]) == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(recs) == 64
        diag = [r for r in recs if r["r"] == r["t"]]
        assert len(diag) == 8
        assert all(r["value"] == [1.0, 0.0] for r in diag)
