import math
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immdfun.dualspace import (
    _block,
    _block_hop,
    _chain_block,
    _chain_vectors,
    _mode_index,
    coefficient_matrix,
    coefficient_matrix_value,
    immanant_projector,
    state_weight,
)
from immdfun.errors import DomainError, ResourceLimitError
from immdfun.linalgimm import (
    SubmatrixSelector,
    submatrix,
)
from immdfun.symgroup import (
    Partition,
    character,
    character_weights,
    dim_sym,
    partitions_of,
    sn_tables,
)
from immdfun import dualspace, sunrep, symgroup, verification
from immdfun.sunrep import (
    SUIrrepLabel,
    occupations,
    raising_tables,
    weight_block,
)
from immdfun.verification import _littlewood_reports, classify_coefficients, conjecture_suite

from _generators import Permutation, all_permutations, permutation_matrix
from _single import from_matrix, haar_random_unitary, immanant, immanant_via_duality, lift
from _tensor import apply_tensor_power, pattern_chain_vectors

P = Partition


def basis(m, modes):
    """Unit amplitude vector with mode k_i on tensor factor i."""
    out = np.zeros(m ** len(modes), dtype=np.complex128)
    out[_mode_index(m, modes)] = 1.0
    return out


def projected(p, modes):
    """Pi^p |modes> for an arrangement ``modes`` of 1..N: P(s) commutes with
    Pi^p, so it is Pi^p |1..N> with its tensor factors relabelled."""
    n = p.n
    return immanant_projector(p).reshape((n,) * n).transpose(np.array(modes) - 1).reshape(-1)


def relabelled(modes, s):
    """Modes after P(s), which carries factor j's excitation to factor s(j)."""
    out = [0] * len(modes)
    for j, img in enumerate(s.images):
        out[img - 1] = modes[j]
    return tuple(out)


def modes_of(m, n, code):
    """Modes (1-based) of the basis state with row-major index ``code``."""
    return tuple(int(d) + 1 for d in np.unravel_index(code, (m,) * n))


def weights(m, n):
    """Every occupation tuple of n excitations in m modes, zero counts included."""
    return [occ for occ in product(range(n + 1), repeat=m) if sum(occ) == n]


def position(m, modes):
    """Position of the basis state ``modes`` within its computational block."""
    return int(np.searchsorted(_block(m, state_weight(m, modes)), _mode_index(m, modes)))


def dense(m, n, row, i, alpha):
    """Chain vector of pattern i, copy alpha, as m^n amplitudes."""
    occ = tuple(occupations(SUIrrepLabel(m, row))[i].tolist())
    out = np.zeros(m**n, dtype=np.complex128)
    out[_block(m, occ)] = pattern_chain_vectors(m, n, row)[i][:, alpha]
    return out


def collective(m, n, i, j):
    """Dense m^n x m^n matrix of sum_t E_ij on factor t, assembled from the
    block-restricted hops that lower and raise chain vectors; the diagonal
    E_ii, which no hop carries, is the count of mode i on each block."""
    out = np.zeros((m**n, m**n))
    for occ in weights(m, n):
        src = _block(m, occ)
        if i == j:
            out[src, src] = occ[i - 1]
            continue
        if occ[j - 1] == 0:
            continue
        dst = list(occ)
        dst[j - 1] -= 1
        dst[i - 1] += 1
        out[np.ix_(_block(m, tuple(dst)), src)] = _block_hop(m, occ, j, i)
    return out


def commutator_on_block(m, n, i, j, occ):
    """[sum_t E_ij, sum_t E_ji] restricted to the block ``occ``, from the hops alone."""
    cij, cji = collective(m, n, i, j), collective(m, n, j, i)
    block = _block(m, occ)
    return (cij @ cji - cji @ cij)[np.ix_(block, block)]


def random_state(m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(m**n) + 1j * rng.standard_normal(m**n)


def at_weight(m, row, occ):
    """Basis positions of the irrep ``row`` at occupation ``occ``."""
    return weight_block(SUIrrepLabel(m, row), occ)


@cache
def full_lowering(m, n, row):
    """Reference: the chain vectors of every pattern from one lowering of the
    whole irrep, level by level and in pattern order within a level, each
    weight's system solved as one least-squares problem (the route's whole-
    irrep form, kept test-side)."""
    label = SUIrrepLabel(m, row)
    occ = occupations(label)
    raising = raising_tables((label,))
    stacked = [_block_hop(m, row, i + 1, i) for i in range(1, m) if row[i] != 0]
    if not stacked:
        null = np.eye(len(_block(m, row)))
    else:
        _, svals, vh = np.linalg.svd(np.vstack(stacked))
        rank = int((svals > 1e-10 * max(1.0, svals[0])).sum())
        null = vh[rank:].conj().T
    n_copies = null.shape[1]
    table = {0: null.astype(np.complex128)}
    level_of = lambda o: sum(o[k] * (m - 1 - k) for k in range(m))
    by_level = {}
    for here in dict.fromkeys(map(tuple, occ.tolist())):
        by_level.setdefault(level_of(row) - level_of(here), {})[here] = weight_block(label, here)
    for lev in sorted(by_level)[1:]:
        for occ_here, idx in by_level[lev].items():
            kept = []
            for i in range(1, m):
                occ_up = list(occ_here)
                occ_up[i - 1] += 1
                occ_up[i] -= 1
                upper = by_level.get(lev - 1, {}).get(tuple(occ_up))
                if upper is None:
                    continue
                src, dst, amp = raising[i - 1]
                at = np.minimum(np.searchsorted(idx, src), len(idx) - 1)
                hit = idx[at] == src
                raise_block = np.zeros((len(upper), len(idx)))
                raise_block[np.searchsorted(upper, dst[hit]), at[hit]] = amp[hit]
                live = raise_block.any(axis=1)
                if live.any():
                    kept.append((i, tuple(occ_up), upper[live], raise_block[live]))
            arows = np.vstack([rows for *_, rows in kept])
            brows = []
            for i, occ_up, upper, _ in kept:
                hop = _block_hop(m, occ_up, i, i + 1)
                brows += [hop @ table[r] for r in upper]
            bmat = np.stack(brows, axis=0)
            sol, *_ = np.linalg.lstsq(arows, bmat.reshape(len(brows), -1), rcond=None)
            sol = sol.reshape(len(idx), -1, n_copies)
            for c, t in enumerate(idx):
                table[t] = sol[c]
    return tuple(table[t] for t in range(len(occ)))


def raised_closure(m, row, mu):
    """The weights of the irrep ``row`` reached from ``mu`` by adding simple
    roots e_i - e_{i+1}, staying among its weights at every step."""
    present = {tuple(o) for o in occupations(SUIrrepLabel(m, row)).tolist()}
    found, todo = {mu}, [mu]
    while todo:
        occ = todo.pop()
        for i in range(m - 1):
            up = occ[:i] + (occ[i] + 1, occ[i + 1] - 1) + occ[i + 2 :]
            if up in present and up not in found:
                found.add(up)
                todo.append(up)
    return found


def recording_blocks(monkeypatch):
    """Route ``_chain_block`` through a fresh cache that logs each solve."""
    solved = []

    def record(m, row, occ):
        solved.append(occ)
        return _chain_block.__wrapped__(m, row, occ)

    monkeypatch.setattr(dualspace, "_chain_block", cache(record))
    return solved


def assert_blocks_match_reference(m, n, row, occs):
    label, reference = SUIrrepLabel(m, row), full_lowering(m, n, row)
    for occ in occs:
        block = dualspace._chain_block(m, row, occ)
        idx = weight_block(label, occ)
        assert len(block) == len(idx)
        for vec, t in zip(block, idx):
            assert np.array_equal(vec, reference[t])


class TestBasisStates:
    def test_weights(self):
        cartan = lambda occ: tuple(a - b for a, b in zip(occ, occ[1:]))
        assert state_weight(3, (1, 2, 3)) == (1, 1, 1)
        assert state_weight(5, (1, 2, 4)) == (1, 1, 0, 1, 0)
        assert state_weight(2, (1, 1)) == (2, 0)
        assert cartan(state_weight(3, (1, 2, 3))) == (0, 0)
        assert cartan(state_weight(5, (1, 2, 4))) == (0, 1, -1, 1)
        assert cartan(state_weight(2, (1, 1))) == (2,)

    def test_unit_vector(self):
        # S_1 is trivial, so its projector returns the basis state itself
        assert _mode_index(2, (2, 1)) == 2
        v = immanant_projector(P(1))
        assert v.tolist() == [1] and np.linalg.norm(v) == 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            coefficient_matrix(2, P(1, 1), (1, 3), (1, 2))
        with pytest.raises(DomainError):
            immanant_via_duality(2, P(1, 1), (1, 2), (1, 3), np.eye(2))


class TestPermutationAction:
    def test_mode_permutation_relates_row_states(self):
        # swapping modes 1 and 2 of the one-body space sends the kept-mode
        # state for (1,3,4) to the one for (2,3,4); this is a group element
        # acting through the tensor power, not a factor permutation
        swap = permutation_matrix(Permutation((2, 1, 3, 4)))
        moved = apply_tensor_power(swap, basis(4, (1, 3, 4)), 3)
        assert np.array_equal(moved, basis(4, (2, 3, 4)))

    def test_tensor_power_size_mismatch(self):
        with pytest.raises(DomainError):
            apply_tensor_power(np.eye(2), basis(2, (1, 2)), 3)


class TestProjector:
    def test_symmetrizer_on_symmetric_state(self):
        # Pi^(2) on |12> + |21>, which is already symmetric
        out = projected(P(2), (1, 2)) + projected(P(2), (2, 1))
        assert np.abs(out - 2.0 * (basis(2, (1, 2)) + basis(2, (2, 1)))).max() < 1e-14

    def test_antisymmetrizer_kills_symmetric_state(self):
        out = projected(P(1, 1), (1, 2)) + projected(P(1, 1), (2, 1))
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize("p", [P(3), P(2, 1), P(1, 1, 1)])
    def test_projector_algebra(self, p):
        # Pi^p applied to Pi^p|modes>, by linearity over its basis states
        factor = math.factorial(3) / dim_sym(p)
        for modes in [(1, 2, 3), (2, 1, 3), (3, 1, 2)]:
            once = projected(p, modes)
            twice = sum(once[t] * projected(p, modes_of(3, 3, t)) for t in _block(3, (1, 1, 1)))
            assert np.abs(twice - factor * once).max() < 1e-10

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_inverse_permutation_scatter(self, n):
        # s reaches the state with modes s^-1 + 1: scattering each weight
        # there, in sn_tables order, gives the same array bit for bit
        sigmas, _, _ = sn_tables(n)
        codes = np.argsort(sigmas, axis=1) @ (n ** np.arange(n - 1, -1, -1))
        for p in partitions_of(n):
            want = np.zeros(n**n, dtype=np.complex128)
            want[codes] = character_weights(p)
            assert np.array_equal(immanant_projector(p), want)

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            immanant_via_duality(3, P(2), (1, 2, 3), (1, 2, 3), np.eye(3))

    @pytest.mark.parametrize("n", [3, 4])
    def test_equals_character_weighted_permutations(self, n):
        # the identity arrangement is the projector itself
        for modes in (r.images for r in all_permutations(n)):
            for p in partitions_of(n):
                want = np.zeros(n**n, dtype=np.complex128)
                for s in all_permutations(n):
                    want += character(p, s.cycle_type()) * basis(n, relabelled(modes, s))
                assert np.abs(projected(p, modes) - want).max() < 1e-12


class TestWeightBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 4), st.data())
    def test_block_lists_the_states_with_its_counts(self, m, n, data):
        # every weight, zero counts (and N = 0) included, against a scan of all m^N codes
        occ = data.draw(st.sampled_from(weights(m, n)))
        block = _block(m, occ)
        assert block.tolist() == [
            i for i in range(m**n) if state_weight(m, modes_of(m, n, i)) == occ
        ]
        with pytest.raises(ValueError):
            block[0] = 0


class TestCollectiveOperators:
    def test_matches_axis_slice_reference(self):
        # Reference: add factor t's mode-j slice into its mode-i slice, t = 0, 1, ...
        m, n = 3, 4
        v = random_state(m, n, 5)
        tensor = v.reshape((m,) * n)
        for i, j in [(1, 2), (3, 1), (2, 2)]:
            want = np.zeros_like(tensor)
            for axis in range(n):
                dst, src = [slice(None)] * n, [slice(None)] * n
                dst[axis], src[axis] = i - 1, j - 1
                want[tuple(dst)] += tensor[tuple(src)]
            got = collective(m, n, i, j) @ v
            assert np.abs(got - want.reshape(-1)).max() < 1e-12

    def test_diagonal_counts(self):
        # [E_ij, E_ji] = E_ii - E_jj: the hops alone recover the mode counts
        occ = (2, 0, 1)
        for (i, j), count in (((1, 2), 2), ((2, 3), -1), ((1, 3), 1)):
            assert np.array_equal(commutator_on_block(3, 3, i, j, occ), count * np.eye(3))

    def test_cartan_annihilates_uniform_state(self):
        # E_ii - E_{i+1,i+1} vanishes where every mode holds one excitation
        for i in range(1, 4):
            assert not commutator_on_block(4, 4, i, i + 1, (1, 1, 1, 1)).any()

    def test_commutation_relations_on_random_states(self):
        m, n = 3, 3
        v = random_state(m, n, 11)
        for (i, j, k, l) in [(1, 2, 2, 1), (1, 2, 2, 3), (2, 3, 3, 2), (1, 3, 2, 1)]:
            cij, ckl = collective(m, n, i, j), collective(m, n, k, l)
            lhs = cij @ (ckl @ v) - ckl @ (cij @ v)
            rhs = np.zeros_like(lhs)
            if j == k:
                rhs = rhs + collective(m, n, i, l) @ v
            if l == i:
                rhs = rhs - collective(m, n, k, j) @ v
            assert np.abs(lhs - rhs).max() < 1e-12


class TestChainSubspace:
    def test_mixed_tensor_counts(self):
        block = _chain_vectors(3, 3, (2, 1, 0), [(1, 1, 1)])[(1, 1, 1)]
        idx = at_weight(3, (2, 1, 0), (1, 1, 1))
        assert len(idx) == len(block) == 2 and block.shape[2] == 2  # 2 patterns x 2 copies

    def test_symmetric_single_copy(self):
        block = _chain_vectors(3, 3, (3, 0, 0), [(1, 1, 1)])[(1, 1, 1)]
        idx = at_weight(3, (3, 0, 0), (1, 1, 1))
        assert len(idx) == len(block) == 1 and block.shape[2] == 1

    def test_singlet(self):
        vecs = pattern_chain_vectors(2, 2, (1, 1))
        assert len(vecs) == 1 and vecs[0].shape[1] == 1
        v = dense(2, 2, (1, 1), 0, 0)
        expect = np.zeros(4, complex)
        expect[1], expect[2] = 1, -1
        expect /= math.sqrt(2)
        assert min(np.abs(v - expect).max(), np.abs(v + expect).max()) < 1e-12

    def test_absent_irrep_is_empty(self):
        # two boxes cannot sit in the three-fold tensor power
        assert _chain_vectors(3, 3, (1, 1, 0), [(1, 1, 0)]) == {}
        assert pattern_chain_vectors(3, 3, (1, 1, 0)) == ()

    def test_orthonormality(self):
        row = (2, 1, 0, 0)
        vecs = _chain_vectors(4, 3, row, [(1, 1, 1, 0)])[(1, 1, 1, 0)]
        assert len(vecs) == len(at_weight(4, row, (1, 1, 1, 0)))
        block = np.hstack(list(vecs))
        assert block.shape[1] == 4
        assert np.abs(block.conj().T @ block - np.eye(block.shape[1])).max() < 1e-10

    def test_vectors_are_weight_eigenstates(self):
        # each chain vector is supported on the block of its pattern's occupation
        row = (2, 1, 0)
        for vec, occ in zip(pattern_chain_vectors(3, 3, row), occupations(SUIrrepLabel(3, row)).tolist()):
            block = _block(3, tuple(occ))
            assert vec.shape[0] == len(block)
            assert all(state_weight(3, modes_of(3, 3, code)) == tuple(occ) for code in block)

    def test_dblock_matches_lifted_matrix(self):
        # the chain vectors must reproduce the GT group functions entrywise
        row = (2, 1, 0)
        label = SUIrrepLabel(3, row)
        n_copies = pattern_chain_vectors(3, 3, row)[0].shape[1]
        u = haar_random_unitary(3, 17)
        lifted = lift(label, u)
        for alpha in range(n_copies):
            for beta in range(n_copies):
                for r in range(4):
                    vr = dense(3, 3, row, r, alpha)
                    for s in range(4):
                        moved = apply_tensor_power(u.matrices[0], dense(3, 3, row, s, beta), 3)
                        got = np.vdot(vr, moved)
                        want = lifted[r, s] if alpha == beta else 0.0
                        assert abs(got - want) < 1e-10

    def test_weight_block_computed_once(self):
        # Two irreps of one tensor power share its blocks: each is built on
        # one miss, and the second irrep reads the first one's.
        _chain_block.cache_clear()
        _block.cache_clear()
        pattern_chain_vectors(3, 3, (2, 1, 0))
        first = _block.cache_info()
        pattern_chain_vectors(3, 3, (3, 0, 0))
        info = _block.cache_info()
        assert info.hits > first.hits and info.misses == info.currsize
        expected = sorted(_mode_index(3, s.images) for s in all_permutations(3))
        assert _block(3, (1, 1, 1)).tolist() == expected
        codes = np.concatenate([_block(3, occ) for occ in weights(3, 3)])
        assert sorted(codes.tolist()) == list(range(27))

    def test_shared_tables_are_read_only(self):
        blocks = _chain_vectors(3, 2, (1, 1, 0), [(1, 0, 1)])
        vecs = pattern_chain_vectors(3, 2, (1, 1, 0))
        for table in (_block(3, (1, 1, 0)), *blocks.values(), *vecs):
            with pytest.raises(ValueError):
                table[0] = 0


class TestUpperClosure:
    @pytest.mark.parametrize(
        ("m", "p", "k", "q", "count"),
        [(5, P(3, 1), (1, 3, 4, 5), (1, 2, 3, 5), 27), (5, P(2, 1), (2, 3, 5), (1, 3, 4), 17)],
    )
    def test_coefficient_matrix_solves_only_its_closure(self, monkeypatch, m, p, k, q, count):
        # 27 of 65 weights of SU(5)(3,1), 17 of 30 of SU(5)(2,1)
        solved = recording_blocks(monkeypatch)
        cm = coefficient_matrix(m, p, k, q)
        row = cm.label.row
        assert len(solved) == len(set(solved)) == count
        closure = raised_closure(m, row, state_weight(m, k)) | raised_closure(m, row, state_weight(m, q))
        assert set(solved) == closure
        assert_blocks_match_reference(m, p.n, row, solved)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_each_weight_solves_its_closure_bit_for_bit(self, monkeypatch, m):
        for n in range(1, 5):
            for p in partitions_of(n):
                if len(p) > m:
                    continue
                row = tuple(p) + (0,) * (m - len(p))
                for mu in dict.fromkeys(map(tuple, occupations(SUIrrepLabel(m, row)).tolist())):
                    solved = recording_blocks(monkeypatch)
                    blocks = _chain_vectors(m, n, row, [mu])
                    assert len(solved) == len(set(solved))
                    assert set(solved) == raised_closure(m, row, mu)
                    assert list(blocks) == [mu] and blocks[mu] is dualspace._chain_block(m, row, mu)
                    assert_blocks_match_reference(m, n, row, solved)


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
        vecs = pattern_chain_vectors(m, 3, (2, 1, 0, 0))
        n_copies = vecs[0].shape[1]
        rng = np.random.default_rng(5)
        g = rng.standard_normal((n_copies, n_copies)) + 1j * rng.standard_normal(
            (n_copies, n_copies)
        )
        rot, _ = np.linalg.qr(g)
        pos_k, pos_q = position(m, k), position(m, q)
        scale = math.factorial(3) / dim_sym(p)
        rebuilt = np.zeros_like(cm.entries)
        for a, r in enumerate(cm.row_index):
            left = vecs[r][pos_k] @ rot
            for b, s in enumerate(cm.col_index):
                right = vecs[s][pos_q] @ rot
                rebuilt[a, b] = scale * np.dot(left, right.conj())
        assert np.abs(rebuilt - cm.entries).max() < 1e-10

    def test_reproduces_immanants(self):
        m, p = 4, P(2, 1)
        k, q = (1, 2, 4), (2, 3, 4)
        cm = coefficient_matrix(m, p, k, q)
        label = SUIrrepLabel(m, (2, 1, 0, 0))
        for i in range(25):
            u = haar_random_unitary(m, 300 + i)
            direct = immanant(p, submatrix(u.matrices[0], SubmatrixSelector(k, q)))
            lifted = lift(label, u)
            whole = np.arange(len(lifted))  # every row and column
            via = coefficient_matrix_value(cm, lifted, whole, whole)
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
            a = immanant_via_duality(4, p, (1, 2, 3, 4), (1, 2, 3, 4), u.matrices[0])
            b = immanant(p, u.matrices[0])
            assert abs(a - b) < 1e-10

    def test_identity_element_structure(self):
        # only permutations matching the two mode sets contribute at U = 1
        val = immanant_via_duality(4, P(2, 1), (1, 2, 3), (1, 2, 3), np.eye(4))
        assert val == pytest.approx(dim_sym(P(2, 1)), abs=1e-12)
        off = immanant_via_duality(4, P(2, 1), (1, 2, 3), (1, 2, 4), np.eye(4))
        assert off == pytest.approx(0.0, abs=1e-12)

    def test_all_3x3_submatrices_random_su4(self):
        from itertools import combinations

        u = haar_random_unitary(4, 50)
        p = P(2, 1)
        for k in combinations(range(1, 5), 3):
            for q in combinations(range(1, 5), 3):
                a = immanant_via_duality(4, p, k, q, u.matrices[0])
                b = immanant(p, submatrix(u.matrices[0], SubmatrixSelector(k, q)))
                assert abs(a - b) < 1e-10


class TestTheorem3AndNormalization:
    @pytest.mark.parametrize("m", [2, 3])
    def test_kostant_trace(self, m):
        for p in partitions_of(m):
            label = SUIrrepLabel.from_partition(p, m, normalize=False)
            for i in range(5):
                u = haar_random_unitary(m, 500 + i)
                lifted = lift(label, u)
                occ = occupations(label).tolist()
                dsum = sum(lifted[a, a] for a, n in enumerate(occ) if n == [1] * m)
                assert abs(immanant(p, u.matrices[0]) - dsum) < 1e-9

    def test_projection_norm_factor(self):
        # ||Pi^p |Psi_{1..N}>||^2 = (N!/dim p)^2 sum |<psi|Psi>|^2
        m = 3
        modes = (1, 2, 3)
        for p in partitions_of(m):
            row = SUIrrepLabel.from_partition(p, m, normalize=False).row
            vecs = _chain_vectors(m, m, row, [(1, 1, 1)])[(1, 1, 1)]
            assert len(vecs) == len(at_weight(m, row, (1, 1, 1)))
            overlap_sq = sum(np.sum(np.abs(vec[position(m, modes)]) ** 2) for vec in vecs)
            factor = math.factorial(m) / dim_sym(p)
            assert np.linalg.norm(immanant_projector(p)) ** 2 == pytest.approx(
                factor**2 * overlap_sq, rel=1e-10
            )

    def test_w_matrix_invariance_under_permutations(self):
        # Gamma(s) W Gamma(s)^-1 = W for the lifted factor permutations,
        # realized as phase-normalized permutation matrices of the modes
        m = 3
        p = P(2, 1)
        full = tuple(range(1, m + 1))
        w = coefficient_matrix(m, p, full, full).entries
        label = SUIrrepLabel.from_partition(p, m, normalize=False)
        occ = occupations(label).tolist()
        zero_idx = [a for a, n in enumerate(occ) if n == [1, 1, 1]]
        for s in all_permutations(m):
            pm = from_matrix(permutation_matrix(s), tol=1e-10)
            gamma = lift(label, pm)[np.ix_(zero_idx, zero_idx)]
            assert np.abs(gamma @ w @ gamma.conj().T - w).max() < 1e-9
        assert np.abs(w - np.eye(len(zero_idx))).max() < 1e-10

    def test_zero_weight_block_traces_match_characters(self):
        # the lifted mode permutations restricted to the zero-weight block
        # carry the dual symmetric-group irrep
        m = 3
        p = P(2, 1)
        label = SUIrrepLabel.from_partition(p, m, normalize=False)
        occ = occupations(label).tolist()
        zero_idx = [a for a, n in enumerate(occ) if n == [1, 1, 1]]
        for s in all_permutations(m):
            pm = from_matrix(permutation_matrix(s), tol=1e-10)
            gamma = lift(label, pm)[np.ix_(zero_idx, zero_idx)]
            assert abs(np.trace(gamma) - character(p, s.cycle_type())) < 1e-8


class TestLittlewood:
    def test_identity_element(self):
        report = _littlewood_reports(from_matrix(np.eye(4)), [None], 1e-9)[0]
        assert report.passed and report.residual < 1e-12

    def test_haar_samples(self):
        for i in range(10):
            report = _littlewood_reports(haar_random_unitary(4, 600 + i), [None], 1e-9)[0]
            assert report.passed, report.details
            assert report.residual < 1e-9

    def test_wrong_side(self):
        with pytest.raises(DomainError):
            _littlewood_reports(haar_random_unitary(3, 1), [None], 1e-9)


class TestConjectureScan:
    def test_su4_all_3x3(self):
        reports = conjecture_suite(m=4, partition=P(2, 1), samples=5)
        assert len(reports) == 16
        for r in reports:
            assert r.passed
            assert r.details["unit_entries"] == 2
            assert r.details["modulus_unit_entries"] == 2

    def test_named_su5_cases(self):
        r21 = conjecture_suite(m=5, partition=P(2, 1), rows=(2, 3, 5), cols=(1, 3, 4), samples=5)[0]
        assert r21.passed and r21.details["unit_entries"] == 2
        r31 = conjecture_suite(
            m=5, partition=P(3, 1), rows=(1, 3, 4, 5), cols=(1, 2, 3, 5), samples=5
        )[0]
        assert r31.passed and r31.details["unit_entries"] == 3

    def test_default_suite_draws_and_factors_the_su5_samples_once(self, monkeypatch):
        # the two named SU(5) pairs lift one shared draw, factored once
        draws, factored = [], []
        real_draw, real_factors = verification.haar_random_unitaries, sunrep.givens_factors
        monkeypatch.setattr(
            verification,
            "haar_random_unitaries",
            lambda m, seeds: draws.append((m, list(seeds))) or real_draw(m, seeds),
        )
        monkeypatch.setattr(
            sunrep,
            "givens_factors",
            lambda mats: factored.append(mats.shape[:2]) or real_factors(mats),
        )
        reports = verification.conjecture_suite(samples=3)
        assert [r.m for r in reports[-2:]] == [5, 5] and all(r.passed for r in reports)
        assert draws == [(4, [1905, 2905, 3905]), (5, [1905, 2905, 3905])]
        assert factored == [(3, 4), (3, 5)]  # one stack of 3 samples per m

    def test_report_shape(self):
        r = conjecture_suite(m=4, partition=P(3), rows=(1, 2, 3), cols=(1, 2, 3), samples=3)[0]
        assert r.suite == "conjecture"
        assert r.details["row_tags"] and r.details["col_tags"]

    def test_extended_evidence_all_selector_grids(self):
        # every selector pair of both groups, every partition of the size:
        # the unit-coefficient pattern holds throughout the scanned sets
        for m, size in [(4, 3), (5, 3), (5, 4)]:
            for p in partitions_of(size):
                reports = conjecture_suite(m=m, partition=p, samples=2)
                assert all(r.passed for r in reports), (m, p)
                assert all(
                    r.details["unit_entries"] == dim_sym(p) for r in reports
                )


class TestResourceCaps:
    def test_tensor_size_cap(self):
        full = tuple(range(1, 8))
        with pytest.raises(ResourceLimitError):
            coefficient_matrix(10, P(7), full, full)

    def test_tensor_size_cap_builds_no_gt_basis(self):
        # 10^7 amplitudes are refused before the GT basis of the irrep is
        # built; (6,1) is used by no other test, so a built basis would miss
        full = tuple(range(1, 8))
        misses = sunrep.gt_array.cache_info().misses
        with pytest.raises(ResourceLimitError):
            coefficient_matrix(10, P(6, 1), full, full)
        assert sunrep.gt_array.cache_info().misses == misses

    def test_duality_tensor_size_cap(self):
        # the duality route is bounded by N^N, not by m: 8^8 amplitudes are
        # refused, and (m, N) = (8, 7) builds 7^7
        full = tuple(range(1, 9))
        with pytest.raises(ResourceLimitError):
            immanant_via_duality(8, P(8), full, full, np.eye(8))
        val = immanant_via_duality(8, P(7), full[:7], full[:7], np.eye(8))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_projector_cap_builds_no_sn_tables(self):
        # N = 8 (8^8 amplitudes) is refused before S_8 is built
        symgroup.sn_tables.cache_clear()
        misses = symgroup.sn_tables.cache_info().misses
        with pytest.raises(ResourceLimitError):
            immanant_projector(P(8))
        assert symgroup.sn_tables.cache_info().misses == misses

    def test_chain_vector_system_over_the_entry_cap_is_refused(self, monkeypatch):
        # SU(4) {2,1,1} in (C^4)^(x4) has 3 copies; its widest system is the
        # weight (1, 1, 1, 1): 3 equations on a block of 24 states.  The cap
        # is read at call time, every system the call needs is sized before
        # the first is solved, and a refused call leaves no block cached.
        full = (1, 2, 3, 4)
        want = coefficient_matrix(4, P(2, 1, 1), full, full).entries
        sunrep.gt_array(SUIrrepLabel(4, (2, 1, 1, 0)))  # built under the full cap
        monkeypatch.setattr(dualspace, "_chain_block", cache(_chain_block.__wrapped__))

        def forbidden(*args, **kwargs):
            raise AssertionError("a chain-vector system was solved before the refusal")

        refusals = [
            (215, r"SU\(4\)\(2, 1, 1, 0\) at weight \(1, 1, 1, 1\) solve 3 x 24 x 3 = 216 entries"),
            (35, r"weight \(1, 2, 1, 0\) solve 1 x 12 x 3 = 36"),  # the first level's system
        ]
        with monkeypatch.context() as solving:
            solving.setattr(np.linalg, "lstsq", forbidden)
            for cap, message in refusals:
                solving.setattr(sunrep, "ENTRY_CAP", cap)
                with pytest.raises(ResourceLimitError, match=message):
                    coefficient_matrix(4, P(2, 1, 1), full, full)
                assert dualspace._chain_block.cache_info().currsize == 0
        monkeypatch.setattr(sunrep, "ENTRY_CAP", 216)
        assert np.array_equal(coefficient_matrix(4, P(2, 1, 1), full, full).entries, want)
