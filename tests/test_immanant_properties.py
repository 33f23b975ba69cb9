"""Property tests of the immanant routes and the S_n character table.

The character sum is checked against the tensor-power (duality) route on
random selectors, against Ryser and LU at the two one-dimensional
characters, and the character table against its column orthogonality.
The duality route's projector is checked against its defining sum over
relabelled basis states.  The stacked evaluations equal their one-element
slices bit for bit, and the evaluations of many selectors at once equal
each selector's own.
Example counts stay small so the whole file runs in a few seconds.
"""

import math
from itertools import combinations, product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from immdfun.dualspace import (
    _mode_index,
    coefficient_matrix,
    coefficient_matrix_value,
    immanant_projector,
    immanant_via_duality_stack,
)
from immdfun.linalgimm import (
    SubmatrixSelector,
    UnitaryElement,
    immanant_batch,
    submatrix,
)
from immdfun.sunrep import SUIrrepLabel, lift_batch
from immdfun.symgroup import (
    Partition,
    character,
    partitions_of,
)

from _generators import all_permutations, class_size, permutation_matrix
from _single import (
    from_matrix,
    haar_random_unitary,
    immanant,
    immanant_via_duality,
    permanent_ryser,
)

FEW = settings(max_examples=20, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def _complex_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@FEW
@given(st.integers(2, 12), seeds, st.data())
def test_character_sum_matches_duality_route(m, seed, data):
    n = data.draw(st.integers(1, min(m, 6)))
    modes = st.lists(st.integers(1, m), min_size=n, max_size=n, unique=True)
    k = tuple(sorted(data.draw(modes)))
    q = tuple(data.draw(modes))
    p = data.draw(st.sampled_from(partitions_of(n)))
    u = haar_random_unitary(m, seed)
    direct = immanant(p, submatrix(u.matrix, SubmatrixSelector(k, q)))
    assert abs(direct - immanant_via_duality(m, p, k, q, u)) < 1e-10


def _special_stack(m: int, seed: int) -> np.ndarray:
    """Matrices of two Haar samples, the identity, a phase-normalised mode
    permutation, diag(-1, -1, 1, ...) and a Haar SU(2) block on two modes
    (exact zeros elsewhere), as one (6, m, m) stack."""
    rng = np.random.default_rng(seed)
    perm = all_permutations(m)[rng.integers(math.factorial(m))]
    a, b = sorted(rng.choice(m, size=2, replace=False))
    block = np.eye(m, dtype=np.complex128)
    block[np.ix_([a, b], [a, b])] = haar_random_unitary(2, seed).matrix
    elements = [
        haar_random_unitary(m, seed),
        haar_random_unitary(m, seed + 1),
        UnitaryElement(np.eye(m)),
        from_matrix(permutation_matrix(perm)),
        UnitaryElement(np.diag([-1.0, -1.0] + [1.0] * (m - 2))),
        UnitaryElement(block),
    ]
    return np.array([u.matrix for u in elements])


@settings(max_examples=6, deadline=None)
@given(st.integers(3, 5), st.integers(0, 2**31))
def test_stacked_routes_equal_their_slices_bit_for_bit(m, seed):
    mats = _special_stack(m, seed)
    for size in range(1, m + 1):
        for keep in combinations(range(1, m + 1), size):
            idx = np.array(keep) - 1
            subs = mats[:, idx[:, None], idx]
            for p in partitions_of(size):
                stacked = immanant_batch(p, subs)
                dual = immanant_via_duality_stack(m, p, [(keep, keep)], mats)[0]
                for s, mat in enumerate(mats):
                    assert stacked[s] == immanant(p, subs[s])
                    assert dual[s] == immanant_via_duality(m, p, keep, keep, mat)


def _one_pair_contraction(m, p, k, q, mats):
    """The bra-side duality contraction of one selector pair on its own,
    one row of U[k, q] per factor: the reference the stacked contraction
    keeps."""
    amps, n = immanant_projector(p), p.n
    out = np.broadcast_to(amps, (len(mats), amps.size))
    for row in k:
        left = mats[:, row - 1, np.array(q) - 1][:, None, :]
        out = (left @ out.reshape(len(mats), n, out.shape[1] // n))[:, 0]
    return out[:, 0]


@settings(max_examples=6, deadline=None)
@given(st.integers(3, 5), st.integers(0, 2**31))
def test_stacked_selectors_equal_their_slices_bit_for_bit(m, seed):
    # all C(m, size) keeps at once, as corollary 4 evaluates them: one
    # character sum over the (K S, n, n) stack and one duality contraction
    # (principal and crossed pairs) equal each selector's own evaluation
    mats = _special_stack(m, seed)
    for size in range(1, m + 1):
        keeps = list(combinations(range(1, m + 1), size))
        sel = np.array(keeps) - 1
        subs = mats[:, sel[:, :, None], sel[:, None, :]].transpose(1, 0, 2, 3)
        pairs = [(keep, keep) for keep in keeps] + list(zip(keeps, keeps[::-1]))
        for p in partitions_of(size):
            stacked = immanant_batch(p, subs.reshape(-1, size, size)).reshape(len(keeps), -1)
            dual = immanant_via_duality_stack(m, p, pairs, mats)
            assert dual.shape == (len(pairs), len(mats))
            for j in range(len(keeps)):
                assert list(stacked[j]) == list(immanant_batch(p, subs[j]))
            for j, (k, q) in enumerate(pairs):
                assert list(dual[j]) == list(_one_pair_contraction(m, p, k, q, mats))
                assert list(dual[j]) == list(immanant_via_duality_stack(m, p, [(k, q)], mats)[0])


def test_stacked_coefficient_values_equal_their_slices_bit_for_bit():
    m, p = 4, Partition(2, 1)
    pairs = list(product(combinations(range(1, m + 1), 3), repeat=2))
    cms = [coefficient_matrix(m, p, k, q) for k, q in pairs]
    cols = np.unique(np.concatenate([cm.col_index for cm in cms]))
    elements = [UnitaryElement(mat) for mat in _special_stack(m, 7)]
    [lifts] = lift_batch([SUIrrepLabel(m, (2, 1, 0, 0))], elements, [cols])
    rows = np.arange(lifts.shape[1])  # every row
    for cm in cms:
        stacked = coefficient_matrix_value(cm, lifts, cols, rows)
        assert list(stacked) == [coefficient_matrix_value(cm, lf, cols, rows) for lf in lifts]


@FEW
@given(st.integers(1, 5), st.data())
def test_projector_is_the_character_weighted_relabelling_sum(n, data):
    # P(s) carries the excitation of factor j, in mode j + 1, to factor s(j)
    p = data.draw(st.sampled_from(partitions_of(n)))
    want = np.zeros(n**n, dtype=np.complex128)
    for s in all_permutations(n):
        moved = [0] * n
        for j, img in enumerate(s.images):
            moved[img - 1] = j + 1
        want[_mode_index(n, tuple(moved))] += character(p, s.cycle_type())
    assert np.abs(immanant_projector(p) - want).max() < 1e-12

@FEW
@given(st.integers(1, 6), seeds)
def test_trivial_character_is_the_permanent(n, seed):
    a = _complex_matrix(n, seed)
    want = permanent_ryser(a)
    assert abs(immanant(Partition(n), a) - want) <= 1e-10 * max(1.0, abs(want))


@FEW
@given(st.integers(1, 6), seeds)
def test_sign_character_is_the_determinant(n, seed):
    a = _complex_matrix(n, seed)
    want = np.linalg.det(a)
    assert abs(immanant(Partition(*(1,) * n), a) - want) <= 1e-10 * max(1.0, abs(want))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 7), st.data())
def test_character_orthogonality(n, data):
    lam, mu = (data.draw(st.sampled_from(partitions_of(n))) for _ in range(2))
    total = sum(class_size(c) * character(lam, c) * character(mu, c) for c in partitions_of(n))
    assert total == (math.factorial(n) if lam == mu else 0)
