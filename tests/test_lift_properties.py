"""Property tests of the factorised lift.

The lift is a product of lifted phases and adjacent-mode rotations, so it
is checked against what a representation must satisfy: column lifts equal
the full lift's columns, a batch lifts each element and a set each irrep
as a lift of its own, T(UV) = T(U)T(V) on Haar, permutation, sign and block-diagonal elements,
permutation matrices move weight spaces, and the GT columns match the chain
vectors built independently in the tensor power.  The block lift equals the
product of the dense lifts of its factors, and the stacked Givens factoring
equals a scalar loop kept here as its reference.  Corollary 4 and the
duality route are checked on the same non-generic elements.
"""

import cmath
import math
import tracemalloc
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immdfun import sunrep, verification
from immdfun.dualspace import _block, state_weight
from immdfun.errors import DomainError, ResourceLimitError
from immdfun.linalgimm import (
    SubmatrixSelector,
    UnitaryElements,
    givens_factors,
    haar_random_unitaries,
    submatrix,
)
from immdfun.sunrep import (
    SUIrrepLabel,
    _phase_diagonal,
    dim_weyl,
    lift_batch,
    occupations,
    rotation_tables,
    weight_block,
)
from immdfun.symgroup import Partition, partitions_of
from immdfun.verification import (
    _block_traces,
    conjecture_suite,
    corollary4_suite,
    kostant_suite,
    littlewood_suite,
)

from _generators import all_permutations, generator_matrix, permutation_matrix
from _patterns import irreps_up_to
from _single import from_matrix, haar_random_unitary, immanant, immanant_via_duality, lift
from _tensor import apply_tensor_power, pattern_chain_vectors

ROWS = (
    (1, 0),
    (4, 0),
    (1, 0, 0),
    (2, 1, 0),
    (3, 0, 0),
    (4, 2, 0),
    (2, 1, 1, 0),
    (3, 1, 0, 0),
    (4, 2, 1, 0),
    (2, 1, 1, 0, 0),
)
PERMUTATION_ROWS = ((2, 1, 0), (3, 0, 0), (2, 1, 1, 0), (2, 2, 0, 0))
CHAIN_ROWS = ((2, 1, 0), (3, 0, 0), (1, 1, 0), (2, 1, 1, 0), (2, 2, 0, 0))

irreps = st.sampled_from(ROWS).map(lambda row: SUIrrepLabel(len(row), row))
seeds = st.integers(0, 2**32 - 1)
FEW = settings(max_examples=20, deadline=None)


def _element(m: int, kind: str, seed: int) -> UnitaryElements:
    """A one-slice stack of an SU(m) element: a Haar sample, the identity,
    a phase-normalised mode permutation, a diagonal of signs,
    diag(-1, -1, 1, ...), or a Haar SU(2) block on two modes (zeros in the
    lower triangle and a degenerate spectrum)."""
    rng = np.random.default_rng(seed)
    if kind == "haar":
        return haar_random_unitary(m, seed)
    if kind == "identity":
        return from_matrix(np.eye(m))
    if kind == "minus_pair":
        return from_matrix(np.diag([-1.0, -1.0] + [1.0] * (m - 2)))
    if kind == "permutation":
        perms = all_permutations(m)
        return from_matrix(permutation_matrix(perms[rng.integers(len(perms))]))
    if kind == "signs":
        signs = rng.choice([-1.0, 1.0], size=m)
        signs[-1] = np.prod(signs[:-1])
        return from_matrix(np.diag(signs))
    a, b = sorted(rng.choice(m, size=2, replace=False))
    mat = np.eye(m, dtype=np.complex128)
    mat[np.ix_([a, b], [a, b])] = haar_random_unitary(2, seed).matrices[0]
    return from_matrix(mat)


elements = st.tuples(st.sampled_from(("haar", "permutation", "signs", "block")), seeds)
special_kinds = st.sampled_from(("identity", "permutation", "minus_pair", "block"))


@FEW
@given(irreps, seeds, st.data())
def test_columns_are_the_full_lifts_columns(irrep, seed, data):
    d = dim_weyl(irrep)
    cols = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=6, unique=True))
    u = haar_random_unitary(irrep.m, seed)
    got = lift(irrep, u, cols)
    assert got.shape == (d, len(cols))
    assert np.abs(got - lift(irrep, u)[:, cols]).max() < 1e-12


@FEW
@given(irreps, elements, elements)
def test_homomorphism(irrep, first, second):
    u, v = (_element(irrep.m, kind, seed) for kind, seed in (first, second))
    uv = from_matrix(u.matrices[0] @ v.matrices[0])
    lhs = lift(irrep, uv)
    assert np.abs(lhs - lift(irrep, u) @ lift(irrep, v)).max() < 1e-12


@pytest.mark.parametrize("row", ROWS)
def test_identity_lifts_exactly(row):
    irrep = SUIrrepLabel(len(row), row)
    lifted = lift(irrep, from_matrix(np.eye(irrep.m)))
    assert np.array_equal(lifted, np.eye(dim_weyl(irrep)))


@pytest.mark.parametrize("row", [r for r in ROWS if len(r) >= 3])
def test_minus_one_pair_lifts_to_signs(row):
    # diag(-1, -1, 1, ...) has no rotation to null: its lift is the sign
    # (-1)^(n_1 + n_2) on each basis state
    irrep = SUIrrepLabel(len(row), row)
    u = from_matrix(np.diag([-1.0, -1.0] + [1.0] * (irrep.m - 2)))
    signs = [(-1.0) ** (occ[0] + occ[1]) for occ in occupations(irrep)]
    assert np.abs(lift(irrep, u) - np.diag(signs)).max() < 1e-14


@settings(FEW, max_examples=4)
@given(st.sampled_from(PERMUTATION_ROWS), seeds)
def test_permutation_matrices(row, seed):
    # every S_3 / S_4 mode permutation, the anti-diagonal ones included: the
    # lift moves the weight space of n to that of n permuted, and composes
    irrep = SUIrrepLabel(len(row), row)
    occ = np.array(occupations(irrep))
    v = haar_random_unitary(irrep.m, seed)
    t_v = lift(irrep, v)
    for s in all_permutations(irrep.m):
        p = from_matrix(permutation_matrix(s))
        t_p = lift(irrep, p)
        moved = occ[:, [s.inverse()(j) - 1 for j in range(1, irrep.m + 1)]]
        allowed = (moved[:, None, :] == occ[None, :, :]).all(axis=2)  # [t, r]
        assert np.abs(t_p.T[~allowed]).max(initial=0.0) < 1e-14
        pv = from_matrix(p.matrices[0] @ v.matrices[0])
        assert np.abs(lift(irrep, pv) - t_p @ t_v).max() < 1e-12


@settings(FEW, max_examples=10)
@given(st.sampled_from(CHAIN_ROWS), seeds, st.data())
def test_columns_match_chain_vectors(row, seed, data):
    # <r|U^(x)N|t> over one copy of the irrep inside (C^m)^(x)N
    m, n = len(row), sum(row)
    irrep = SUIrrepLabel(m, row)
    vecs = pattern_chain_vectors(m, n, row)
    occ = [tuple(o) for o in occupations(irrep).tolist()]
    t = data.draw(st.integers(0, len(vecs) - 1))
    u = haar_random_unitary(m, seed)
    start = np.zeros(m**n, dtype=np.complex128)
    start[_block(m, occ[t])] = vecs[t][:, 0]
    moved = apply_tensor_power(u.matrices[0], start, n)
    want = [np.vdot(vecs[r][:, 0], moved[_block(m, occ[r])]) for r in range(len(vecs))]
    assert np.abs(lift(irrep, u, [t])[:, 0] - want).max() < 1e-12


@pytest.mark.parametrize("row", ROWS)
def test_rotation_tables_are_read_only(row):
    rotations = rotation_tables((SUIrrepLabel(len(row), row),))
    assert len(rotations) == len(row) - 1
    arrays = [a for blocks in rotations for block in blocks for a in block]
    assert arrays
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("cols", [[8], [-1], [0, 0], [1.0], [True], [0, 9]])
def test_bad_column_is_domain_error(cols):
    irrep = SUIrrepLabel(3, (2, 1, 0))
    with pytest.raises(DomainError, match="columns must be"):
        lift(irrep, from_matrix(np.eye(3)), cols)


def test_column_lift_cap(monkeypatch):
    # every lift's working array holds LIFT_BATCH_ENTRIES, so a cap of that
    # size refuses even one column
    monkeypatch.setattr(sunrep, "ENTRY_CAP", sunrep.LIFT_BATCH_ENTRIES)
    with pytest.raises(ResourceLimitError, match=r"takes 8 returned \+ 32768 working entries"):
        lift(SUIrrepLabel(3, (2, 1, 0)), from_matrix(np.eye(3)), [0])


def test_non_orthogonal_eigenbasis_is_refused(monkeypatch):
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (lambda w, v: (w, 1.001 * v))(*real_eigh(a)))
    build = rotation_tables.__wrapped__  # uncached
    with pytest.raises(DomainError, match="not orthogonal"):
        build((SUIrrepLabel(3, (2, 1, 0)),))
    # through a direct sum: the refusal names a block's mode pair and irrep
    irreps = (SUIrrepLabel(3, (1, 0, 0)), SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (3, 2, 1)))
    with pytest.raises(DomainError, match=r"rotation eigenbasis \d of SU\(3\).* is not orthogonal"):
        build(irreps)


def test_non_positive_raising_ratio_is_refused(monkeypatch):
    # (3, 2, 0) is no pattern (0 lies below the entries 3, 2 above it), but
    # raising its 0 keeps it under 3, and the ratio is 3 (0 + 1 - 2) < 0
    real = sunrep.gt_array
    broken = SUIrrepLabel(2, (3, 2))
    monkeypatch.setattr(
        sunrep,
        "gt_array",
        lambda ir: np.vstack([real(ir), [3, 2, 0]]) if ir == broken else real(ir),
    )
    irreps = (SUIrrepLabel(2, (1, 0)), broken, SUIrrepLabel(2, (4, 0)))
    message = r"raising entry 0 of row 1 of SU\(2\)\(3, 2\) has a ratio <= 0"
    with pytest.raises(DomainError, match=message):
        sunrep.raising_tables.__wrapped__(irreps)  # uncached


def test_set_cap_is_checked_before_any_table_is_built(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a table was built before the refusal")

    # every table starts from the GT arrays, and _row_keys is its first use;
    # the rotation tables get an empty cache of their own
    for name in ("raising_tables", "_row_keys"):
        monkeypatch.setattr(sunrep, name, forbidden)
    monkeypatch.setattr(sunrep, "rotation_tables", cache(rotation_tables.__wrapped__))
    sunrep.gt_array.cache_clear()
    # (9, 9, 9) fits the cap and comes first; (10, 9, 8) has 8 patterns of 6 entries
    monkeypatch.setattr(sunrep, "ENTRY_CAP", 47)
    message = r"GT array of SU\(3\)\(10, 9, 8\) holds 8 x 6 entries, over the entry cap 47"
    with pytest.raises(ResourceLimitError, match=message):
        sunrep.rotation_tables((SUIrrepLabel(3, (9, 9, 9)), SUIrrepLabel(3, (10, 9, 8))))
    assert sunrep.rotation_tables.cache_info().currsize == 0
    monkeypatch.setattr(sunrep, "ENTRY_CAP", 48)
    assert sunrep.gt_array(SUIrrepLabel(3, (10, 9, 8))).shape == (8, 6)


@pytest.mark.parametrize("chunk", [16, 100])
@pytest.mark.parametrize(
    "cols, rows, returned, widest",
    [
        # one direct sum: 2 x (8 x 2 + 10 x 3) entries, working (8 + 10) x 3
        ([[0, 1], [0, 1, 2]], None, 92, 54),
        # two sums, (10) x 3 the wider; rows pick 3 of (2, 1, 0)'s 8
        ([[0], [0, 1, 2]], [[5, 6, 7], None], 66, 30),
    ],
)
def test_set_cap_boundary(monkeypatch, chunk, cols, rows, returned, widest):
    def forbidden(*args):
        raise AssertionError("a table or product was built")

    monkeypatch.setattr(sunrep, "givens_factors", forbidden)
    for name in ("rotation_tables", "_block_times"):
        monkeypatch.setattr(sunrep, name, forbidden)
    monkeypatch.setattr(sunrep, "LIFT_BATCH_ENTRIES", chunk)
    irreps = [SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (3, 0, 0))]
    batch = UnitaryElements([np.eye(3)] * 2)
    working = max(chunk, widest)
    monkeypatch.setattr(sunrep, "ENTRY_CAP", returned + working)
    with pytest.raises(AssertionError, match="a table or product was built"):  # admitted
        lift_batch(irreps, batch, cols, rows)
    monkeypatch.setattr(sunrep, "ENTRY_CAP", returned + working - 1)
    message = f"takes {returned} returned \\+ {working} working entries, over the entry cap"
    with pytest.raises(ResourceLimitError, match=message):
        lift_batch(irreps, batch, cols, rows)


def test_identity_suites_refuse_before_building_every_table():
    # SU(20) {3,1} has d = 21,945, and its GT array of 21,945 x 210 entries
    # is refused when it is sized, after only the GT arrays of the
    # partitions before it (about 25 MB)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as refusal:
            corollary4_suite(m=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert "GT array of SU(20)(3, 1, 0, " in str(refusal.value)
    assert "holds 21945 x 210 entries" in str(refusal.value)
    for cached in (sunrep.gt_array, sunrep.occupations, sunrep._weight_index):
        cached.cache_clear()


def test_columns_that_lose_orthonormality_are_refused(monkeypatch):
    real = sunrep._block_times
    monkeypatch.setattr(sunrep, "_block_times", lambda *args: 1.001 * real(*args))
    with pytest.raises(DomainError, match="orthonormality"):
        lift(SUIrrepLabel(3, (2, 1, 0)), haar_random_unitary(3, 5), [0, 3])


def test_nan_product_is_refused(monkeypatch):
    real = sunrep._block_times
    monkeypatch.setattr(sunrep, "_block_times", lambda *args: np.nan * real(*args))
    u = haar_random_unitary(3, 5)
    for cols in (None, [0, 3]):
        with pytest.raises(DomainError, match="orthonormality"):
            lift(SUIrrepLabel(3, (2, 1, 0)), u, cols)


def _mixed_batch(m: int, seed: int) -> UnitaryElements:
    """Haar samples, the identity, mode permutations, a diagonal of signs,
    diag(-1, -1, 1, ...) and Haar SU(2) blocks with exact zeros: elements
    with several rotation sequences in one batch."""
    kinds = ("haar", "permutation", "signs", "block", "haar", "permutation", "block", "haar")
    mats = [_element(m, kind, seed + i).matrices[0] for i, kind in enumerate(kinds)]
    mats.insert(2, np.eye(m))
    mats.append(np.diag([-1.0, -1.0] + [1.0] * (m - 2)))
    return UnitaryElements(mats)


def _factors(elements: UnitaryElements) -> list:
    """The Givens factors of each element, factored as one stack."""
    return givens_factors(elements.matrices)


def _rotation_groups(batch) -> int:
    return len({kinds for kinds, _, _ in _factors(batch)})


def _loop_factors(umat: np.ndarray):
    """The one-matrix Givens factoring as a scalar loop: the reference the
    stacked array form is checked against."""
    a, m = umat.tolist(), len(umat)
    kinds, thetas, phases, pending = [], [], [], [0.0] * m
    for j in range(m - 1):
        for i in range(m - 1, j, -1):
            top, bottom = a[i - 1][j], a[i][j]
            if bottom == 0:
                continue
            r = math.hypot(abs(top), abs(bottom))
            upper, lower = a[i - 1], a[i]
            for c in range(j, m):
                x, y = upper[c], lower[c]
                upper[c] = (top.conjugate() * x + bottom.conjugate() * y) / r
                lower[c] = (top * y - bottom * x) / r
            alpha, beta = cmath.phase(top), cmath.phase(bottom)
            pending[i - 1] += alpha - math.pi / 2
            pending[i] += beta
            phases.append(pending)
            kinds.append(i - 1)
            thetas.append(math.atan2(abs(bottom), abs(top)))
            pending = [0.0] * m
            pending[i - 1] = math.pi / 2
            pending[i] = -(alpha + beta)
    phases.append([p + cmath.phase(a[j][j]) for j, p in enumerate(pending)])
    return tuple(kinds), np.array(thetas), np.array(phases).T


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_stacked_factors_are_single_factors(m):
    # mixed stacks: zero entries skip their rotation, so the sequences differ;
    # each slice is the one-slice stack bit for bit, and within a few
    # roundings of the scalar loop, whose branches it must take
    for seed in (1, 2):
        mats = _mixed_batch(m, seed).matrices
        stacked = givens_factors(mats)
        assert len({kinds for kinds, _, _ in stacked}) >= 2
        for s, (kinds, thetas, phases) in enumerate(stacked):
            [(one_kinds, one_thetas, one_phases)] = givens_factors(mats[s : s + 1])
            assert kinds == one_kinds
            assert thetas.tobytes() == one_thetas.tobytes()
            assert phases.tobytes() == one_phases.tobytes() and phases.shape == one_phases.shape
            loop_kinds, loop_thetas, loop_phases = _loop_factors(mats[s])
            assert kinds == loop_kinds and phases.shape == (m, len(kinds) + 1)
            assert np.abs(thetas - loop_thetas).max(initial=0.0) <= 1e-14
            assert np.abs(phases - loop_phases).max() <= 1e-14


@FEW
@given(irreps, seeds, st.data())
def test_batch_slices_are_single_lifts(irrep, seed, data):
    d = dim_weyl(irrep)
    cols = data.draw(
        st.none() | st.lists(st.integers(0, d - 1), min_size=1, max_size=6, unique=True)
    )
    batch = _mixed_batch(irrep.m, seed)
    assert _rotation_groups(batch) >= 2
    [got] = lift_batch([irrep], batch, [cols])
    width = d if cols is None else len(cols)
    assert got.shape == (len(batch), d, width)
    for lifted, mat in zip(got, batch.matrices):
        assert np.abs(lifted - lift(irrep, from_matrix(mat), cols)).max() <= 1e-15
    # exact inputs stay exact: the identity lifts to unit columns
    assert np.array_equal(got[2], np.eye(d)[:, slice(None) if cols is None else cols])


@pytest.mark.parametrize("row", [(1, 1, 1, 1), (1, 0, 0), (2, 1, 0), (4, 2, 1, 0), (3, 1, 1, 0, 0)])
def test_stacked_phases_are_single_phases(row):
    # d = 1 included; the powers of e^{i phi} stay within a few roundings of
    # one exp of n.phi per entry, phase by phase
    irrep = SUIrrepLabel(len(row), row)
    occ = occupations(irrep)
    elements = haar_random_unitaries(irrep.m, range(40, 52))
    angles = np.stack([phi for _, _, phi in _factors(elements)], axis=1)
    rotations = irrep.m * (irrep.m - 1) // 2  # Haar samples null every lower entry
    assert angles.shape == (irrep.m, len(elements), rotations + 1)
    for i in range(rotations + 1):
        stacked = _phase_diagonal(occ, angles[:, :, i])
        assert stacked.shape == (dim_weyl(irrep), len(elements))
        assert stacked.flags.c_contiguous
        for s in range(len(elements)):
            assert np.abs(stacked[:, s] - np.exp(1j * (occ @ angles[:, s, i]))).max() <= 1e-14
            assert np.array_equal(stacked[:, s], _phase_diagonal(occ, angles[:, s : s + 1, i])[:, 0])


def test_lift_working_memory_is_bounded_by_its_chunk():
    # each phase's diagonal is built when it is applied, so a chunk's scratch
    # memory does not grow with its rotation count: 600 Haar elements of
    # SU(5), 10 rotations each, lifted at one column of (5, 0, 0, 0, 0)
    irrep = SUIrrepLabel(5, (5, 0, 0, 0, 0))
    elements = haar_random_unitaries(5, range(600))
    lift_batch([irrep], haar_random_unitaries(5, [0]), [[0]])  # builds the tables
    tracemalloc.start()
    try:
        [lifted] = lift_batch([irrep], elements, [[0]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lifted.shape == (600, 126, 1)
    assert peak - lifted.nbytes <= 8 * sunrep.LIFT_BATCH_ENTRIES * 16


@pytest.mark.parametrize("row", [(1, 1, 1, 1), (2, 1, 0), (4, 2, 1, 0)])
def test_batch_of_phases_is_single_lifts(row):
    # diagonal elements have no rotation: their lifts are the stacked phases alone
    irrep, rng = SUIrrepLabel(len(row), row), np.random.default_rng(3)
    angles = rng.uniform(-np.pi, np.pi, (6, irrep.m))
    batch = UnitaryElements([np.diag(np.exp(1j * (a - a.mean()))) for a in angles])
    [got] = lift_batch([irrep], batch)
    for lifted, mat in zip(got, batch.matrices):
        assert np.array_equal(lifted, lift(irrep, from_matrix(mat)))


@pytest.mark.parametrize("entries", [1, 150])
def test_chunked_batch_is_the_whole_batch(monkeypatch, entries):
    # a budget of 1 lifts each element alone, 150 two at a time (d = 8)
    irrep = SUIrrepLabel(3, (2, 1, 0))
    batch = UnitaryElements(np.concatenate([_mixed_batch(3, s).matrices for s in (5, 6)]))
    [whole] = lift_batch([irrep], batch)
    monkeypatch.setattr(sunrep, "LIFT_BATCH_ENTRIES", entries)
    assert np.abs(lift_batch([irrep], batch)[0] - whole).max() <= 1e-15


@pytest.mark.parametrize("m", [3, 4])
def test_column_restricted_block_traces(m):
    # every principal block trace read from the rows and columns of its
    # weight blocks equals the diagonal sum, in basis order, of the full lift
    batch = _mixed_batch(m, 11)
    for size in range(1, m + 1):
        keeps = list(combinations(range(1, m + 1), size))
        parts = partitions_of(size)
        # all partitions as one set and all keeps from one gather: each
        # equals its keep's trace alone, lifted at that keep's block alone
        traces = _block_traces(m, {p: keeps for p in parts}, batch)
        for p in parts:
            label = SUIrrepLabel.from_partition(p, m, normalize=False)
            [full] = lift_batch([label], batch)
            for j, keep in enumerate(keeps):
                alone = _block_traces(m, {p: [keep]}, batch)[p][:, 0]
                assert list(traces[p][:, j]) == list(alone)
                idx = weight_block(label, state_weight(m, keep))
                want = sum((full[:, t, t] for t in idx), 0j)
                assert np.abs(alone - want).max() <= 1e-15


def test_each_identity_suite_lifts_one_set(monkeypatch):
    # which irreps share a set lift fixes the lifts' last bits, and so the
    # report streams: each suite lifts its irreps in one call per m, in
    # partition order, at the weight blocks its selectors read
    calls = []
    real = verification.lift_batch

    def recorded(labels, elements, cols=None, rows=None):
        listed = lambda picks: [np.asarray(pick).tolist() for pick in picks]
        calls.append(([label.row for label in labels], len(elements), listed(cols), listed(rows)))
        return real(labels, elements, cols, rows)

    def at(row, keep=None):
        # the basis positions at the modes ``keep``, or at any distinct modes
        occ = occupations(SUIrrepLabel(len(row), row))
        if keep is None:
            return np.flatnonzero(occ.max(axis=1) <= 1).tolist()
        return np.flatnonzero((occ == state_weight(len(row), keep)).all(axis=1)).tolist()

    def distinct(m, parts, count):
        # a call whose rows and columns are every weight of distinct modes
        rows = [SUIrrepLabel.from_partition(p, m, normalize=False).row for p in parts]
        return rows, count, [at(row) for row in rows], [at(row) for row in rows]

    monkeypatch.setattr(verification, "lift_batch", recorded)
    kostant_suite()
    corollary4_suite()
    littlewood_suite(samples=3)
    conjecture_suite(samples=3)
    named = [((2, 1, 0, 0, 0), (2, 3, 5), (1, 3, 4)), ((3, 1, 0, 0, 0), (1, 3, 4, 5), (1, 2, 3, 5))]
    assert calls == [
        *(distinct(m, partitions_of(m), 25) for m in (2, 3, 4)),
        *(distinct(m, [p for n in (2, 3, 4) if n < m for p in partitions_of(n)], 10) for m in (4, 5)),
        distinct(4, [Partition(3), Partition(1), Partition(3, 1), Partition(4)], 3),
        distinct(4, [Partition(2, 1)], 3),
        (
            [row for row, _, _ in named],
            3,
            [at(row, q) for row, _, q in named],
            [at(row, k) for row, k, _ in named],
        ),
    ]
    # a repeated size gives each partition once, not a repeated irrep
    twice = corollary4_suite(m=4, sizes=(2, 2), samples=2)
    assert [r.to_json_line() for r in twice] == [
        r.to_json_line() for r in corollary4_suite(m=4, sizes=(2,), samples=2)
    ]


@settings(FEW, max_examples=30)
@given(st.sampled_from((3, 4)), special_kinds, seeds)
def test_principal_identities_on_special_elements(m, kind, seed):
    # Corollary 4 and the duality route off the Haar measure: eigenvalues at
    # -1, degenerate spectra and exact zeros, for every principal selector
    # and partition
    u = _element(m, kind, seed)
    for size in range(1, m + 1):
        keeps = list(combinations(range(1, m + 1), size))
        for p in partitions_of(size):
            label = SUIrrepLabel.from_partition(p, m, normalize=False)
            lifted = lift(label, u)
            for keep in keeps:
                direct = immanant(p, submatrix(u.matrices[0], SubmatrixSelector(keep, keep)))
                idx = weight_block(label, state_weight(m, keep))
                assert abs(direct - np.trace(lifted[np.ix_(idx, idx)])) <= 1e-12
                assert abs(direct - immanant_via_duality(m, p, keep, keep, u.matrices[0])) <= 1e-12


@pytest.mark.parametrize("cols", [None, [], [0, 4]])
def test_empty_batch(cols):
    irrep = SUIrrepLabel(3, (2, 1, 0))
    width = 8 if cols is None else len(cols)
    empty = UnitaryElements(np.empty((0, 3, 3)))
    assert lift_batch([irrep], empty, [cols])[0].shape == (0, 8, width)


def test_batch_refusals_come_before_any_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a product ran before the refusal")

    monkeypatch.setattr(sunrep, "givens_factors", forbidden)
    for name in ("rotation_tables", "_block_times"):
        monkeypatch.setattr(sunrep, name, forbidden)
    irrep = SUIrrepLabel(3, (2, 1, 0))
    good = haar_random_unitaries(3, [2, 2])
    with pytest.raises(DomainError, match="columns must be"):
        lift_batch([irrep], good, [[0, 8]])
    with pytest.raises(DomainError, match="columns must be distinct"):
        lift_batch([irrep], good, [[1, 1]])
    with pytest.raises(DomainError, match="modes"):
        lift_batch([irrep], haar_random_unitaries(4, [2]))
    monkeypatch.setattr(sunrep, "ENTRY_CAP", sunrep.LIFT_BATCH_ENTRIES)
    with pytest.raises(ResourceLimitError, match=r"takes 16 returned \+ 32768 working entries"):
        lift_batch([irrep], good, [[0]])
    # an empty batch allocates nothing, so no cap refuses it
    assert lift_batch([irrep], UnitaryElements(np.empty((0, 3, 3))), [[0]])[0].shape == (0, 8, 1)


def test_only_a_checked_stack_is_lifted(monkeypatch):
    # a list of elements, a bare stack or a list of matrices is refused
    # before the stack is factored
    def forbidden(*args):
        raise AssertionError("the stack was factored before the refusal")

    monkeypatch.setattr(sunrep, "givens_factors", forbidden)
    good = haar_random_unitaries(3, [2, 3])
    irrep = SUIrrepLabel(3, (2, 1, 0))
    for elements in ([good], good.matrices, list(good.matrices), []):
        with pytest.raises(DomainError, match="lift_batch expects UnitaryElements"):
            lift_batch([irrep], elements)
    with pytest.raises(AssertionError, match="factored"):
        lift_batch([irrep], good)


# Sets of distinct irreps of one m: a d = 1 irrep first, then irreps whose
# GT blocks all have fewer than 16 rows.  OpenBLAS rounds a column of a
# larger block product by the column's position in the batch, so there a
# slice may differ from the lift alone in a last bit (SU(3) (6, 3, 0) does).
SETS = {
    2: ((1, 1), (1, 0), (4, 0), (3, 1)),
    3: ((2, 2, 2), (1, 0, 0), (2, 1, 0), (3, 0, 0), (4, 2, 0)),
    4: ((1, 1, 1, 1), (2, 1, 1, 0), (3, 1, 0, 0), (4, 2, 1, 0)),
    5: ((1, 1, 1, 1, 1), (1, 0, 0, 0, 0), (2, 1, 1, 0, 0)),
}


def _set_columns(irreps, seed: int) -> list:
    """All columns of the d = 1 irrep, none of the second, and up to five
    distinct columns, in drawn order, of each other irrep."""
    rng = np.random.default_rng(seed)
    cols = [None, []]
    for ir in irreps[2:]:
        d = dim_weyl(ir)
        cols.append([int(c) for c in rng.choice(d, size=min(d, 5), replace=False)])
    return cols


@pytest.mark.parametrize("m", sorted(SETS))
def test_set_slices_are_single_irrep_lifts(m):
    irreps = [SUIrrepLabel(m, row) for row in SETS[m]]
    for seed in (1, 2):
        batch = _mixed_batch(m, seed)
        cols = _set_columns(irreps, seed)
        for order in (slice(None), slice(None, None, -1)):
            lifts = lift_batch(irreps[order], batch, cols[order])
            assert len(lifts) == len(irreps)
            for ir, c, got in zip(irreps[order], cols[order], lifts):
                [alone] = lift_batch([ir], batch, [c])
                d = dim_weyl(ir)
                assert got.shape == (len(batch), d, d if c is None else len(c))
                assert got.tobytes() == alone.tobytes()
        # None alone: every column of every irrep
        for ir, got in zip(irreps, lift_batch(irreps, batch)):
            assert got.tobytes() == lift_batch([ir], batch)[0].tobytes()


def test_a_set_lift_factors_its_stack_once_per_call(monkeypatch):
    # (2, 1, 0) at every column and (3, 0, 0) at one lift as two direct
    # sums; both read the call's one factoring of the whole stack, repeated
    # element included, and no element keeps anything of it
    stacks, sums = [], []
    real_factors, real_tables = sunrep.givens_factors, sunrep.rotation_tables
    monkeypatch.setattr(
        sunrep, "givens_factors", lambda mats: stacks.append(mats.copy()) or real_factors(mats)
    )
    monkeypatch.setattr(
        sunrep, "rotation_tables", lambda irreps: sums.append(irreps) or real_tables(irreps)
    )
    mixed = _mixed_batch(3, 3).matrices
    batch = UnitaryElements(np.concatenate([mixed, mixed[1:2]]))
    before = dict(vars(batch))
    irreps = [SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (3, 0, 0))]
    for call in (1, 2):
        lift_batch(irreps, batch, [None, [0]])
        assert len(stacks) == call and len(sums) == 2 * call
        assert np.array_equal(stacks[-1], batch.matrices)
    assert sums[:2] == [(irreps[0],), (irreps[1],)]
    assert vars(batch).keys() == before.keys()
    assert all(vars(batch)[key] is value for key, value in before.items())


@pytest.mark.parametrize("row", ROWS)
def test_single_column_is_the_full_lifts_column_exactly(row):
    # the pruned lift of one column skips every block its support has not
    # reached; those blocks hold exact zeros in the full lift's column
    irrep = SUIrrepLabel(len(row), row)
    batch = _mixed_batch(irrep.m, 4)
    [full] = lift_batch([irrep], batch)
    d = dim_weyl(irrep)
    for t in range(0, d, 1 + d // 30):
        [one] = lift_batch([irrep], batch, [[t]])
        assert np.array_equal(one[:, :, 0], full[:, :, t])


def test_set_refusals_come_before_any_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a product ran before the refusal")

    monkeypatch.setattr(sunrep, "givens_factors", forbidden)
    for name in ("rotation_tables", "_block_times", "_phase_diagonal"):
        monkeypatch.setattr(sunrep, name, forbidden)
    a, b = SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (3, 0, 0))
    good = haar_random_unitary(3, 2)
    with pytest.raises(DomainError, match=r"columns must be integers in 0..9 for SU\(3\)\(3, 0, 0\)"):
        lift_batch([a, b], good, [None, [0, 10]])
    with pytest.raises(DomainError, match="columns must be distinct"):
        lift_batch([a, b], good, [[0], [2, 2]])
    with pytest.raises(DomainError, match="1 column lists for 2 irreps"):
        lift_batch([a, b], good, [None])
    with pytest.raises(DomainError, match="must share m"):
        lift_batch([a, SUIrrepLabel(4, (1, 0, 0, 0))], good)
    with pytest.raises(DomainError, match="irreps of a set lift must be distinct"):
        lift_batch([a, b, a], good)
    with pytest.raises(DomainError, match="modes"):
        lift_batch([a, b], haar_random_unitary(4, 2))
    monkeypatch.setattr(sunrep, "ENTRY_CAP", sunrep.LIFT_BATCH_ENTRIES)
    message = r"dimensions \[8, 10\] takes 74 returned \+ 32768 working entries"
    with pytest.raises(ResourceLimitError, match=message):
        lift_batch([a, b], good, [None, [0]])
    # an empty batch allocates nothing, so no cap refuses it
    empty = UnitaryElements(np.empty((0, 3, 3)))
    assert [x.shape for x in lift_batch([a, b], empty, [None, [0]])] == [(0, 8, 8), (0, 10, 1)]


@pytest.mark.parametrize("scale", [1.001, np.nan])
def test_set_columns_that_lose_orthonormality_are_refused(monkeypatch, scale):
    # (1, 1, 1) has no block and lifts to phases alone; (2, 1, 0) is refused
    real = sunrep._block_times
    monkeypatch.setattr(sunrep, "_block_times", lambda *args: scale * real(*args))
    irreps = [SUIrrepLabel(3, (1, 1, 1)), SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (3, 0, 0))]
    with pytest.raises(DomainError, match=r"into SU\(3\)\(2, 1, 0\) lost orthonormality"):
        lift_batch(irreps, _mixed_batch(3, 5), [None, [0, 3], [1]])


def _draw(rng, d: int, most: int):
    """Up to ``most`` distinct basis positions of 0..d-1, in drawn order."""
    return [int(c) for c in rng.choice(d, size=int(rng.integers(1, min(d, most) + 1)), replace=False)]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_row_blocks_are_the_gathered_column_lifts(m):
    # every irrep with d <= 200, alone and in two interleaved sets of mixed
    # sizes, at random rows (every third irrep of a set at rows None): the
    # block equals the column lift of the same set gathered at those rows,
    # byte for byte
    irreps = irreps_up_to(m, 200)
    batch = _mixed_batch(m, 7)
    rng = np.random.default_rng(m)
    cols = [_draw(rng, dim_weyl(ir), 5) for ir in irreps]
    rows = [None if i % 3 == 2 else _draw(rng, dim_weyl(ir), 6) for i, ir in enumerate(irreps)]
    for ir, c, r in zip(irreps, cols, rows):
        [whole] = lift_batch([ir], batch, [c])
        [block] = lift_batch([ir], batch, [c], [r])
        want = whole if r is None else whole[:, r]
        assert block.shape == want.shape and block.tobytes() == want.tobytes()
    for part in (slice(0, None, 2), slice(1, None, 2)):
        wholes = lift_batch(irreps[part], batch, cols[part])
        blocks = lift_batch(irreps[part], batch, cols[part], rows[part])
        for whole, block, r in zip(wholes, blocks, rows[part]):
            want = whole if r is None else whole[:, r]
            assert block.shape == want.shape and block.tobytes() == want.tobytes()
    # rows None alone: every row of every irrep
    few = irreps[:4]
    for whole, block in zip(lift_batch(few, batch, cols[:4]), lift_batch(few, batch, cols[:4], None)):
        assert block.tobytes() == whole.tobytes()


def test_row_refusals_come_before_any_table_or_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a table or product was built before the refusal")

    monkeypatch.setattr(sunrep, "givens_factors", forbidden)
    for name in ("rotation_tables", "_block_times", "_phase_diagonal"):
        monkeypatch.setattr(sunrep, name, forbidden)
    a, b = SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (3, 0, 0))
    good = haar_random_unitary(3, 2)
    with pytest.raises(DomainError, match=r"rows must be integers in 0..9 for SU\(3\)\(3, 0, 0\)"):
        lift_batch([a, b], good, None, [None, [0, 10]])
    with pytest.raises(DomainError, match=r"rows must be integers in 0..7 for SU\(3\)\(2, 1, 0\)"):
        lift_batch([a, b], good, [[0], [1]], [[-1], None])
    for bad in ([1.0], [True], ["0"], [np.float64(2)]):
        with pytest.raises(DomainError, match="rows must be integers"):
            lift_batch([a], haar_random_unitaries(3, [2, 2]), None, [bad])
    with pytest.raises(DomainError, match="rows must be distinct"):
        lift_batch([a, b], good, [[0], [1]], [[0], [2, 2]])
    with pytest.raises(DomainError, match="1 row lists for 2 irreps"):
        lift_batch([a, b], good, None, [None])
    with pytest.raises(DomainError, match="3 row lists for 2 irreps"):
        lift_batch([a, b], UnitaryElements(np.empty((0, 3, 3))), None, [[0], [0], [0]])


def test_a_fault_outside_the_requested_row_is_refused(monkeypatch):
    # one SU(2) rotation lifted into (2, 0), whose three patterns form one
    # GT block: V's row at pattern 2 scaled, so column 0 loses its norm
    # only at row 2.  The requested row 0 never meets the fault (with the
    # check muted it equals the unbroken lift bit for bit), so only the
    # full columns can show it, and the lift is still refused.
    irrep = SUIrrepLabel(2, (2, 0))
    batch = haar_random_unitaries(2, range(3))
    assert {kinds for kinds, _, _ in _factors(batch)} == {(0,)}
    [clean] = lift_batch([irrep], batch, [[0]], [[0]])
    real = sunrep.rotation_tables

    def skewed(irreps):
        pairs = []
        for blocks in real(irreps):
            found = []
            for rows, v, w in blocks:
                v = v.copy()
                v[rows == 2] *= 1.001
                found.append((rows, v, w))
            pairs.append(tuple(found))
        return tuple(pairs)

    monkeypatch.setattr(sunrep, "rotation_tables", skewed)
    with pytest.raises(DomainError, match=r"into SU\(2\)\(2, 0\) lost orthonormality"):
        lift_batch([irrep], batch, [[0]], [[0]])
    monkeypatch.setattr(sunrep, "_defect", lambda lifted: 0.0)
    [broken] = lift_batch([irrep], batch, [[0]], [[0]])
    assert broken.tobytes() == clean.tobytes()


def test_nothing_to_lift_or_check():
    # no irrep, or no column of any irrep: no phase is built on an empty
    # occupation table, and a suite with no configuration reports nothing
    batch = _mixed_batch(3, 1)
    assert lift_batch([], batch) == [] and lift_batch([], batch, []) == []
    irreps = [SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (1, 1, 1))]
    lifts = lift_batch(irreps, batch, [[], []])
    assert [x.shape for x in lifts] == [(len(batch), 8, 0), (len(batch), 1, 0)]
    assert corollary4_suite(m=4, sizes=(4, 5)) == []


def _dense_lift(irrep: SUIrrepLabel, element: UnitaryElements) -> np.ndarray:
    """The product of the dense lifts of the element's factors: each phase
    as diag(e^{i n.phi}), each rotation B_k(theta) as exp(-i theta S_k)
    through one eigh of the dense S_k scattered from the raising triples."""
    occ = occupations(irrep)
    [(kinds, thetas, phases)] = _factors(element)
    out = np.diag(np.exp(1j * (occ @ phases[:, 0])))
    for t, (k, theta) in enumerate(zip(kinds, thetas)):
        raising = generator_matrix(irrep, k + 1, k + 2)
        w, v = np.linalg.eigh(raising + raising.T)
        turn = (v * np.exp(-1j * theta * w)) @ v.T
        out = out @ turn @ np.diag(np.exp(1j * (occ @ phases[:, t + 1])))
    return out


@pytest.mark.parametrize("kind", ("identity", "permutation", "minus_pair", "block", "haar"))
@pytest.mark.parametrize("row", ROWS)
def test_block_lift_equals_the_dense_factor_product(row, kind):
    irrep = SUIrrepLabel(len(row), row)
    for seed in range(3):
        u = _element(irrep.m, kind, seed)
        lifted = lift(irrep, u)
        if kind == "identity":
            assert np.array_equal(lifted, np.eye(dim_weyl(irrep)))
        assert np.abs(lifted - _dense_lift(irrep, u)).max() <= 1e-13


@pytest.mark.parametrize("flaw", [0.3, np.nan])
def test_non_integral_spectrum_is_refused_before_any_product(monkeypatch, flaw):
    def forbidden(*args):
        raise AssertionError("a product ran before the refusal")

    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (lambda w, v: (w + flaw, v))(*real_eigh(a)))
    monkeypatch.setattr(sunrep, "rotation_tables", cache(rotation_tables.__wrapped__))
    monkeypatch.setattr(sunrep, "_block_times", forbidden)
    irrep = SUIrrepLabel(3, (2, 1, 0))
    message = r"rotation spectrum \d of SU\(3\)\(2, 1, 0\) is not integral"
    with pytest.raises(DomainError, match=message):
        lift(irrep, haar_random_unitary(3, 5))
    assert sunrep.rotation_tables.cache_info().currsize == 0


@pytest.mark.parametrize("flaw", ["orthogonal", "integral"])
def test_a_bad_table_of_the_second_sum_is_refused_before_any_product(monkeypatch, flaw):
    # (2, 1, 0) at all 8 columns and (3, 0, 0) at one are two direct sums;
    # the first sum's table is built, then the eigenbases are broken, so only
    # the second sum's table is bad.  Every sum's table is fetched before the
    # first product, so the lift is refused before any.
    def forbidden(*args):
        raise AssertionError("a product ran before the refusal")

    a, b = SUIrrepLabel(3, (2, 1, 0)), SUIrrepLabel(3, (3, 0, 0))
    batch, cols = _mixed_batch(3, 6), [None, [0]]
    monkeypatch.setattr(sunrep, "rotation_tables", cache(rotation_tables.__wrapped__))
    first = sunrep.rotation_tables((a,))
    real_eigh = np.linalg.eigh
    breaks = {"orthogonal": lambda w, v: (w, 1.001 * v), "integral": lambda w, v: (w + 0.3, v)}
    with monkeypatch.context() as broken:
        broken.setattr(np.linalg, "eigh", lambda x: breaks[flaw](*real_eigh(x)))
        for name in ("_block_times", "_phase_diagonal"):
            broken.setattr(sunrep, name, forbidden)
        message = rf"rotation \w+ \d of SU\(3\)\(3, 0, 0\) is not {flaw}"
        with pytest.raises(DomainError, match=message):
            lift_batch([a, b], batch, cols)
    assert sunrep.rotation_tables.cache_info().currsize == 1
    # intact, the set lifts; lifting it again builds no table and moves no bit
    once = lift_batch([a, b], batch, cols)
    misses = sunrep.rotation_tables.cache_info().misses
    twice = lift_batch([a, b], batch, cols)
    assert sunrep.rotation_tables.cache_info().misses == misses
    assert sunrep.rotation_tables.cache_info().currsize == 2
    assert sunrep.rotation_tables((a,)) is first
    assert [x.tobytes() for x in once] == [x.tobytes() for x in twice]
