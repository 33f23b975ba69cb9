"""Property tests of the immanant routes and the S_n character table.

The character sum is checked against the tensor-power (duality) route on
random selectors, against Ryser and LU at the two one-dimensional
characters, and the character table against its column orthogonality.
The duality route's projector is checked against its defining sum over
relabelled basis states.
Example counts stay small so the whole file runs in a few seconds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from immdfun.dualspace import _mode_index, immanant_projector, immanant_via_duality
from immdfun.linalgimm import (
    SubmatrixSelector,
    determinant,
    haar_random_unitary,
    immanant,
    permanent_ryser,
    submatrix,
)
from immdfun.symgroup import (
    Partition,
    all_permutations,
    character,
    class_size,
    partitions_of,
)

FEW = settings(max_examples=20, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def _complex_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@FEW
@given(st.integers(2, 5), seeds, st.data())
def test_character_sum_matches_duality_route(m, seed, data):
    n = data.draw(st.integers(1, m))
    modes = st.lists(st.integers(1, m), min_size=n, max_size=n, unique=True)
    k = tuple(sorted(data.draw(modes)))
    q = tuple(data.draw(modes))
    p = data.draw(st.sampled_from(partitions_of(n)))
    u = haar_random_unitary(m, seed)
    direct = immanant(p, submatrix(u.matrix, SubmatrixSelector(k, q)))
    assert abs(direct - immanant_via_duality(m, p, k, q, u)) < 1e-10



@FEW
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_projector_is_the_character_weighted_relabelling_sum(m, n, data):
    # P(s) carries the excitation of factor j to factor s(j); modes may repeat
    modes = tuple(data.draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    p = data.draw(st.sampled_from(partitions_of(n)))
    want = np.zeros(m**n, dtype=np.complex128)
    for s in all_permutations(n):
        moved = [0] * n
        for j, img in enumerate(s.images):
            moved[img - 1] = modes[j]
        want[_mode_index(m, tuple(moved))] += character(p, s.cycle_type())
    assert np.abs(immanant_projector(p, m, modes) - want).max() < 1e-12

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
    want = determinant(a)
    assert abs(immanant(Partition(*(1,) * n), a) - want) <= 1e-10 * max(1.0, abs(want))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 7), st.data())
def test_character_orthogonality(n, data):
    lam, mu = (data.draw(st.sampled_from(partitions_of(n))) for _ in range(2))
    total = sum(class_size(c) * character(lam, c) * character(mu, c) for c in partitions_of(n))
    assert total == (math.factorial(n) if lam == mu else 0)
