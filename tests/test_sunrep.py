import json
import math
from functools import cache

import numpy as np
import pytest

from immdfun import sunrep
from immdfun.cli import main
from immdfun.errors import DomainError, ResourceLimitError
from immdfun.linalgimm import su2_euler
from immdfun.symgroup import Partition
from immdfun.sunrep import (
    SUIrrepLabel,
    chain_labels,
    dim_weyl,
    gt_array,
    occupations,
    pattern_rows,
    raising_tables,
    rotation_tables,
    weight_block,
)

import _patterns as ref
from _patterns import irreps_up_to
from _generators import all_permutations, generator_matrix, permutation_matrix
from _single import from_matrix, haar_random_unitary, lift

P = Partition


class TestLabels:
    def test_from_partition(self):
        lab = SUIrrepLabel.from_partition(P(2, 1), 4)
        assert lab.row == (2, 1, 0, 0)

    def test_normalization(self):
        lab = SUIrrepLabel.from_partition(P(1, 1, 1), 3)
        assert lab.row == (0, 0, 0)

    def test_invalid(self):
        with pytest.raises(DomainError):
            SUIrrepLabel(3, (1, 2, 0))
        with pytest.raises(DomainError):
            SUIrrepLabel.from_partition(P(1, 1, 1), 2)


class TestGTBasis:
    @pytest.mark.parametrize(
        "row,expected",
        [((2, 0), 3), ((2, 1, 0), 8), ((2, 0, 0), 6), ((12, 0, 0), 91)],
    )
    def test_counts_match_weyl(self, row, expected):
        ir = SUIrrepLabel(len(row), row)
        assert len(gt_array(ir)) == dim_weyl(ir) == expected

    def test_su2_dimension(self):
        for two_j in range(0, 7):
            assert dim_weyl(SUIrrepLabel(2, (two_j, 0))) == two_j + 1

    @pytest.mark.parametrize("row", [(3, 1, 0), (2, 1, 1, 0), (2, 2, 0, 0, 0)])
    def test_count_equals_weyl(self, row):
        ir = SUIrrepLabel(len(row), row)
        assert len(gt_array(ir)) == dim_weyl(ir)

    def test_canonical_order_descending(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        flats = [tuple(p) for p in gt_array(ir).tolist()]
        assert flats == sorted(flats, reverse=True)
        assert pattern_rows(ir)[0] == ((2, 1, 0), (2, 1), (2,))  # highest weight first

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_tables_equal_the_reference(self, m):
        # every irrep with d <= 500: the array basis and every table read from
        # it equal the pattern-by-pattern reference exactly.  The raising
        # tables are built uncached, as one direct sum, split by owner and
        # compared entry by entry.
        irreps = irreps_up_to(m, 500)
        assert irreps
        split = split_tables(irreps, raising_tables.__wrapped__(tuple(irreps)))
        for ir, (raising, _) in zip(irreps, split):
            pats = ref.gt_patterns(ir.row)
            assert not gt_array(ir).flags.writeable and not occupations(ir).flags.writeable
            occs = [ref.occupation(p) for p in pats]
            assert gt_array(ir).tolist() == [list(ref.flattened(p)) for p in pats]
            assert occupations(ir).tolist() == [list(occ) for occ in occs]
            assert pattern_rows(ir) == pats
            assert chain_labels(ir) == tuple(map(ref.chain_label, pats, occs))
            assert len(raising) == m - 1
            for k, (src, dst, amp) in enumerate(raising, start=1):
                entries = dict(zip(zip(dst.tolist(), src.tolist()), amp.tolist()))
                assert len(entries) == len(amp) and entries == ref.raising_entries(pats, k)


def split_tables(irreps, raising, rotation=()) -> list:
    """Each irrep's slice of a direct sum's raising triples and rotation
    blocks, shifted back by the irrep's offset: one (triples per mode pair,
    blocks per mode pair) pair per irrep.  Each slice is checked contiguous:
    the sum's triples, and its blocks of each stack, run irrep by irrep."""
    dims = [dim_weyl(ir) for ir in irreps]
    ends = np.cumsum(dims)
    first = (ends - dims).tolist()

    def slices(pos):
        owner = np.searchsorted(ends, pos, side="right")
        assert np.all(np.diff(owner) >= 0)
        bounds = np.searchsorted(owner, np.arange(len(irreps) + 1)).tolist()
        return list(zip(first, bounds, bounds[1:]))

    triples = [[] for _ in irreps]
    for src, dst, amp in raising:
        for mine, (f, lo, hi) in zip(triples, slices(src)):
            mine.append((src[lo:hi] - f, dst[lo:hi] - f, amp[lo:hi]))
    blocks = [[] for _ in irreps]
    for stacks in rotation:
        for mine in blocks:
            mine.append([])
        for rows, v, w in stacks:
            for mine, (f, lo, hi) in zip(blocks, slices(rows[:, 0])):
                if hi > lo:
                    mine[-1].append((rows[lo:hi] - f, v[lo:hi], w[lo:hi]))
    return [(tuple(t), tuple(map(tuple, b))) for t, b in zip(triples, blocks)]


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    """np.array_equal, and equal bytes too, so that signed zeros agree."""
    assert a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()


class TestTableSets:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_set_tables_equal_single_tables(self, m):
        # every irrep with d <= 200 and the unnormalised shift by (1, ..., 1)
        # of every fifth one, in two interleaved direct sums of mixed sizes:
        # each irrep's slice of a sum's tables, shifted back by its offset,
        # equals the tables of the irrep alone.  All are built uncached.
        irreps = irreps_up_to(m, 200)
        irreps += [SUIrrepLabel(m, tuple(x + 1 for x in ir.row)) for ir in irreps[::5]]
        for group in (tuple(irreps[0::2]), tuple(irreps[1::2])):
            raising = raising_tables.__wrapped__(group)
            rotation = rotation_tables.__wrapped__(group)
            blocks = [block for stacks in rotation for block in stacks]
            for arr in [a for part in list(raising) + blocks for a in part]:
                assert not arr.flags.writeable
            for ir, (r_set, blocks_set) in zip(group, split_tables(group, raising, rotation)):
                r_one = raising_tables.__wrapped__((ir,))
                blocks_one = rotation_tables.__wrapped__((ir,))
                assert len(r_set) == len(r_one) == len(blocks_set) == len(blocks_one) == m - 1
                # each mode pair's (rows, V, w) stacks, one per block size
                assert [len(b) for b in blocks_set] == [len(b) for b in blocks_one]
                stacks_set = [arr for blocks in blocks_set for block in blocks for arr in block]
                stacks_one = [arr for blocks in blocks_one for block in blocks for arr in block]
                for a, b in zip(r_set + (stacks_set,), r_one + (stacks_one,)):
                    assert len(a) == len(b)
                    for x, y in zip(a, b):
                        assert_same_bits(x, y)
                        assert not y.flags.writeable

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_blocks_rebuild_the_rotation_generators(self, m):
        # every irrep with d <= 200: the blocks of mode pair k scatter back to
        # S_k = C_{k,k+1} + C_{k+1,k} built densely from the raising triples,
        # each pattern lies in at most one block, and every w is an integer
        # no larger than r_1 - r_m
        irreps = tuple(irreps_up_to(m, 200))
        tables = split_tables(irreps, (), rotation_tables.__wrapped__(irreps))
        for ir, (_, rotations) in zip(irreps, tables):
            d, top = dim_weyl(ir), ir.row[0] - ir.row[-1]
            for k, blocks in enumerate(rotations, start=1):
                rebuilt, seen = np.zeros((d, d)), np.zeros(d, dtype=int)
                for rows, v, w in blocks:
                    assert w.dtype == np.int64 and np.abs(w).max() <= top
                    assert rows.shape == w.shape and v.shape == rows.shape + rows.shape[-1:]
                    for r, vb, wb in zip(rows, v, w):
                        rebuilt[np.ix_(r, r)] = (vb * wb) @ vb.T
                        seen[r] += 1
                raising = generator_matrix(ir, k, k + 1)
                assert seen.max(initial=0) <= 1
                assert np.abs(rebuilt - (raising + raising.T)).max(initial=0.0) <= 1e-12

    def test_one_pass_builds_every_missing_irrep(self, monkeypatch):
        # one direct sum is one pass of each builder over its stacked GT
        # rows, cached per tuple: the same tuple again is the same object,
        # and a new tuple is one new pass of each.  Both builders get empty
        # caches of their own.
        passes = []
        real = sunrep._stacked
        monkeypatch.setattr(sunrep, "_stacked", lambda irs: passes.append(irs) or real(irs))
        for name in ("raising_tables", "rotation_tables"):
            monkeypatch.setattr(sunrep, name, cache(getattr(sunrep, name).__wrapped__))
        builders = (sunrep.raising_tables, sunrep.rotation_tables)
        first = (SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (3, 2, 1)))
        tables = sunrep.rotation_tables(first)
        assert passes == [first, first]
        assert [b.cache_info().misses for b in builders] == [1, 1]
        assert sunrep.rotation_tables(first) is tables
        second = (SUIrrepLabel(3, (4, 0, 0)), first[1])
        sunrep.rotation_tables(second)
        assert passes[2:] == [second, second]
        assert [b.cache_info().misses for b in builders] == [2, 2]
        assert sunrep.rotation_tables.cache_info().hits == 1


def _cartan(occupation) -> tuple[int, ...]:
    """The Cartan weight (n_1 - n_2, ...) of a mode occupation."""
    return tuple(int(a - b) for a, b in zip(occupation, occupation[1:]))


class TestWeights:
    def test_highest_weight_occupation(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        assert tuple(occupations(ir)[0]) == (2, 1, 0)

    def test_zero_weight_pair(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        pats = weight_block(ir, (1, 1, 1))
        assert len(pats) == 2
        assert all(_cartan(occupations(ir)[i]) == (0, 0) for i in pats)

    def test_single_permanent_state(self):
        pats = weight_block(SUIrrepLabel(3, (3, 0, 0)), (1, 1, 1))
        assert len(pats) == 1

    def test_total_is_box_count(self):
        ir = SUIrrepLabel(4, (3, 1, 0, 0))
        for occ in occupations(ir):
            assert sum(occ) == 4

    def test_outside_diagram_empty(self):
        assert weight_block(SUIrrepLabel(2, (2, 0)), (5, 0)).tolist() == []

    @pytest.mark.parametrize(
        "row", [(4, 0), (2, 1, 0), (4, 2, 0), (3, 1, 0, 0), (2, 1, 1, 0, 0)]
    )
    def test_weight_blocks_partition_the_basis(self, row):
        ir = SUIrrepLabel(len(row), row)
        occ = occupations(ir).tolist()
        found = {tuple(n): weight_block(ir, n) for n in occ}  # one block per weight
        assert sorted(i for idx in found.values() for i in idx.tolist()) == list(range(dim_weyl(ir)))
        blocks = {}  # the basis positions of each Cartan weight, grouped here
        for i, n in enumerate(occ):
            blocks.setdefault(_cartan(n), []).append(i)
        for n in occ:
            for shift in (0, 1, 3):
                got = weight_block(ir, [x + shift for x in n])
                assert got.tolist() == blocks[_cartan(n)] and not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0
        empty = weight_block(SUIrrepLabel(2, (2, 0)), (5, 0))
        assert empty.size == 0 and not empty.flags.writeable
        with pytest.raises(DomainError, match="m = 2 entries"):
            weight_block(SUIrrepLabel(2, (2, 0)), (1, 1, 0))

    def test_chain_label_format(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        labels = [chain_labels(ir)[i] for i in weight_block(ir, (1, 1, 1))]
        assert labels == ["111(1)", "111(0)"]

    @pytest.mark.parametrize(
        "row", [(3, 0), (2, 1, 0), (2, 1, 0, 0), (3, 2, 1)], ids=str
    )
    def test_tables_follow_basis_order(self, row):
        ir = SUIrrepLabel(len(row), row)
        basis = pattern_rows(ir)
        assert len(occupations(ir)) == len(chain_labels(ir)) == len(basis)
        for i, p in enumerate(basis):
            assert tuple(occupations(ir)[i]) == ref.occupation(p)
            assert gt_array(ir)[i].tolist() == list(ref.flattened(p))


class TestGenerators:
    def test_diagonal_counts_occupation(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        for i in (1, 2, 3):
            gen = generator_matrix(ir, i, i)
            expected = np.diag([ref.occupation(p)[i - 1] for p in ref.gt_patterns(ir.row)])
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

    def test_generator_tables_are_read_only(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        for triples in raising_tables((ir,)):
            for arr in triples:
                with pytest.raises(ValueError):
                    arr[0] = 1

    @pytest.mark.parametrize(
        "row",
        [(1, 0), (4, 0), (2, 1, 0), (3, 1, 0), (4, 2, 0), (3, 3, 0), (2, 1, 1, 0), (3, 2, 1, 0), (2, 1, 0, 0, 0)],
    )
    def test_every_valid_raise_is_positive(self, row):
        ir = SUIrrepLabel(len(row), row)
        pats = ref.gt_patterns(ir.row)
        index = {p: i for i, p in enumerate(pats)}
        tables = [
            dict(zip(zip(dst.tolist(), src.tolist()), amp.tolist()))
            for src, dst, amp in raising_tables((ir,))
        ]
        raises = 0
        for pat in pats:
            for k in range(1, ir.m):
                for j in range(k):
                    target = ref.raised(pat, k, j)
                    if target not in index:
                        continue
                    entry = ref.raising_entry(pat, k, j)
                    assert entry > 0.0
                    assert tables[k - 1][index[target], index[pat]] == entry
                    raises += 1
        assert raises > 0
        # the raising triples are exactly the valid raises, each nonzero
        assert sum(np.count_nonzero(list(t.values())) for t in tables) == raises
        assert sum(len(t) for t in tables) == raises

    def test_invalid_raise_is_domain_error(self):
        # Raising the single-entry row from 2 to 3 breaks betweenness under (2, 1).
        with pytest.raises(DomainError):
            ref.raising_entry(((2, 1, 0), (2, 1), (2,)), 1, 0)

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
        assert np.abs(lifted - u.matrices[0]).max() < 1e-12

    def test_su2_middle_entry_is_cos_beta(self):
        beta = 1.234
        lifted = lift(SUIrrepLabel(2, (2, 0)), su2_euler(0.3, beta, -0.8))
        assert lifted[1, 1] == pytest.approx(math.cos(beta), abs=1e-12)

    def test_identity_lifts_to_identity(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        lifted = lift(ir, from_matrix(np.eye(3)))
        assert np.abs(lifted - np.eye(8)).max() < 1e-12

    @pytest.mark.parametrize("row", [(2, 0), (2, 1, 0), (2, 1, 1, 0)])
    def test_homomorphism(self, row):
        ir = SUIrrepLabel(len(row), row)
        m = ir.m
        for i in range(50):
            u1 = haar_random_unitary(m, 100 + i)
            u2 = haar_random_unitary(m, 200 + i)
            prod = from_matrix(u1.matrices[0] @ u2.matrices[0], tol=1e-9)
            lhs = lift(ir, prod)
            rhs = lift(ir, u1) @ lift(ir, u2)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_unitarity(self):
        ir = SUIrrepLabel(4, (3, 1, 0, 0))
        lifted = lift(ir, haar_random_unitary(4, 77))
        d = lifted.shape[0]
        assert np.abs(lifted.conj().T @ lifted - np.eye(d)).max() < 1e-10

    def test_weight_covariance_on_torus(self):
        ir = SUIrrepLabel(3, (3, 1, 0))
        theta = np.array([0.7, -0.2, -0.5])
        u = from_matrix(np.diag(np.exp(1j * theta)))
        lifted = lift(ir, u)
        expect = np.diag(np.exp(1j * (occupations(ir) @ theta)))
        assert np.abs(lifted - expect).max() < 1e-10

    def test_branch_cut_refusal(self):
        # eigenvalue -1 is not refused: diag(-1,-1,1) is an involution, so its
        # lift is one too
        ir = SUIrrepLabel(3, (2, 1, 0))
        u = from_matrix(np.diag([-1.0, -1.0, 1.0]))
        t = lift(ir, u)
        eye = np.eye(dim_weyl(ir))
        assert np.abs(t @ t - eye).max() < 1e-12
        assert np.abs(t.conj().T @ t - eye).max() < 1e-12

    def test_branch_shift(self):
        # the lift of diag(-1,-1,1) is the cube of its cube root's lift
        ir = SUIrrepLabel(3, (2, 1, 0))
        u = from_matrix(np.diag([-1.0, -1.0, 1.0]))
        root = from_matrix(np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 3, -2 * np.pi / 3]))))
        cube = np.linalg.matrix_power(lift(ir, root), 3)
        assert np.abs(lift(ir, u) - cube).max() < 1e-12

    @pytest.mark.parametrize("row", [(2, 1, 0), (3, 0, 0), (2, 1, 1, 0), (2, 2, 0, 0)])
    def test_homomorphism_on_permutation_matrices(self, row):
        # S_3 and S_4 mode permutations, phase-normalized to det 1; the double
        # transpositions of S_4 have eigenvalues exactly -1
        ir = SUIrrepLabel(len(row), row)
        m = ir.m
        v = haar_random_unitary(m, 31)
        t_v = lift(ir, v)
        for s in all_permutations(m):
            p = from_matrix(permutation_matrix(s))
            t_p = lift(ir, p)
            pv = from_matrix(p.matrices[0] @ v.matrices[0])
            vp = from_matrix(v.matrices[0] @ p.matrices[0])
            assert np.abs(lift(ir, pv) - t_p @ t_v).max() < 1e-12
            assert np.abs(lift(ir, vp) - t_v @ t_p).max() < 1e-12

    def test_dimension_cap(self, monkeypatch):
        # the whole lift of d = 9261 takes 2 x 9261^2 entries; one column fits
        big = SUIrrepLabel(3, (40, 20, 0))
        assert dim_weyl(big) == 9261
        with pytest.raises(ResourceLimitError, match="takes 85766121 returned"):
            lift(big, from_matrix(np.eye(3)))
        column = lift(big, from_matrix(np.eye(3)), [0])
        assert np.array_equal(column, np.eye(9261, 1))
        # a GT array over the cap is refused before any pattern is enumerated
        huge = SUIrrepLabel(2, (3_000_000, 0))
        with pytest.raises(ResourceLimitError, match="holds 3000001 x 3 entries, over the entry cap"):
            sunrep.gt_array(huge)
        monkeypatch.setattr(sunrep, "ENTRY_CAP", 9261 * 6 - 1)
        sunrep.gt_array.cache_clear()
        with pytest.raises(ResourceLimitError, match=r"SU\(3\)\(40, 20, 0\) holds 9261 x 6"):
            sunrep.gt_array(big)

    def test_shift_invariance_of_dfunctions(self):
        # adding (1,1,1) to the row leaves every group function unchanged
        u = haar_random_unitary(3, 55)
        base = SUIrrepLabel(3, (2, 1, 0))
        shifted = SUIrrepLabel(3, (3, 2, 1))
        lhs = lift(base, u)
        rhs = lift(shifted, u)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_torus_covariance_selection_rule(self):
        # D_rt picks up the left/right weight phases under torus multiplication,
        # so each entry connects two definite weights
        ir = SUIrrepLabel(3, (2, 1, 0))
        u = haar_random_unitary(3, 66)
        th_l = np.array([0.4, -0.1, -0.3])
        th_r = np.array([-0.6, 0.5, 0.1])
        left = from_matrix(np.diag(np.exp(1j * th_l)))
        right = from_matrix(np.diag(np.exp(1j * th_r)))
        sandwiched = from_matrix(
            left.matrices[0] @ u.matrices[0] @ right.matrices[0], tol=1e-9
        )
        got = lift(ir, sandwiched)
        base = lift(ir, u)
        phase_l = np.exp(1j * (occupations(ir) @ th_l))
        phase_r = np.exp(1j * (occupations(ir) @ th_r))
        assert np.abs(got - phase_l[:, None] * base * phase_r[None, :]).max() < 1e-9


class TestDFunction:
    def test_identity_is_delta(self):
        ir = SUIrrepLabel(3, (2, 1, 0))
        u = from_matrix(np.eye(3))
        assert lift(ir, u, [0])[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert lift(ir, u, [3])[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_fundamental_matrix_layout(self):
        # the 3x3 table of group functions is the defining matrix itself
        ir = SUIrrepLabel(3, (1, 0, 0))
        u = haar_random_unitary(3, 10)
        table = np.array([[lift(ir, u, [t])[r, 0] for t in range(3)] for r in range(3)])
        assert np.abs(table - u.matrices[0]).max() < 1e-12

    def test_records_identity(self, capsys):
        assert main(["dump-dfunctions", "--row", "2,1,0", "--identity", "3"]) == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(recs) == 64
        diag = [r for r in recs if r["r"] == r["t"]]
        assert len(diag) == 8
        assert all(r["value"] == [1.0, 0.0] for r in diag)
