"""Property tests of the factorised lift.

The lift is a product of lifted phases and adjacent-mode rotations, so it
is checked against what a representation must satisfy: column lifts equal
the full lift's columns, T(UV) = T(U)T(V) on Haar, permutation, sign and
block-diagonal elements, permutation matrices move weight spaces, and the
GT columns match the chain vectors built independently in the tensor power.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immdfun import sunrep
from immdfun.dualspace import TensorState, _tensor_irrep, apply_tensor_power
from immdfun.errors import DomainError, ResourceLimitError
from immdfun.linalgimm import UnitaryElement, haar_random_unitary, permutation_matrix
from immdfun.sunrep import (
    SUIrrepLabel,
    _rotation_tables,
    dim_weyl,
    gt_basis,
    lift,
    lift_columns,
    occupations,
)
from immdfun.symgroup import all_permutations

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


def _element(m: int, kind: str, seed: int) -> UnitaryElement:
    """An SU(m) element: a Haar sample, a mode permutation, a diagonal of
    signs, or a Haar SU(2) block on two modes (zeros in the lower triangle
    and a degenerate spectrum)."""
    rng = np.random.default_rng(seed)
    if kind == "haar":
        return haar_random_unitary(m, seed)
    if kind == "permutation":
        perms = all_permutations(m)
        return UnitaryElement.from_matrix(permutation_matrix(perms[rng.integers(len(perms))]))
    if kind == "signs":
        signs = rng.choice([-1.0, 1.0], size=m)
        signs[-1] = np.prod(signs[:-1])
        return UnitaryElement(np.diag(signs))
    a, b = sorted(rng.choice(m, size=2, replace=False))
    mat = np.eye(m, dtype=np.complex128)
    mat[np.ix_([a, b], [a, b])] = haar_random_unitary(2, seed).matrix
    return UnitaryElement(mat)


elements = st.tuples(st.sampled_from(("haar", "permutation", "signs", "block")), seeds)


@FEW
@given(irreps, seeds, st.data())
def test_columns_are_the_full_lifts_columns(irrep, seed, data):
    d = dim_weyl(irrep)
    cols = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=6, unique=True))
    u = haar_random_unitary(irrep.m, seed)
    got = lift_columns(irrep, u, cols)
    assert got.shape == (d, len(cols))
    assert np.abs(got - lift(irrep, u).matrix[:, cols]).max() < 1e-12


@FEW
@given(irreps, elements, elements)
def test_homomorphism(irrep, first, second):
    u, v = (_element(irrep.m, kind, seed) for kind, seed in (first, second))
    uv = UnitaryElement.from_matrix(u.matrix @ v.matrix)
    lhs = lift(irrep, uv).matrix
    assert np.abs(lhs - lift(irrep, u).matrix @ lift(irrep, v).matrix).max() < 1e-12


@pytest.mark.parametrize("row", ROWS)
def test_identity_lifts_exactly(row):
    irrep = SUIrrepLabel(len(row), row)
    lifted = lift(irrep, UnitaryElement(np.eye(irrep.m)))
    assert np.array_equal(lifted.matrix, np.eye(dim_weyl(irrep)))


@pytest.mark.parametrize("row", [r for r in ROWS if len(r) >= 3])
def test_minus_one_pair_lifts_to_signs(row):
    # diag(-1, -1, 1, ...) has no rotation to null: its lift is the sign
    # (-1)^(n_1 + n_2) on each basis state
    irrep = SUIrrepLabel(len(row), row)
    u = UnitaryElement(np.diag([-1.0, -1.0] + [1.0] * (irrep.m - 2)))
    signs = [(-1.0) ** (occ[0] + occ[1]) for occ in occupations(irrep)]
    assert np.abs(lift(irrep, u).matrix - np.diag(signs)).max() < 1e-14


@settings(FEW, max_examples=4)
@given(st.sampled_from(PERMUTATION_ROWS), seeds)
def test_permutation_matrices(row, seed):
    # every S_3 / S_4 mode permutation, the anti-diagonal ones included: the
    # lift moves the weight space of n to that of n permuted, and composes
    irrep = SUIrrepLabel(len(row), row)
    occ = np.array(occupations(irrep))
    v = haar_random_unitary(irrep.m, seed)
    t_v = lift(irrep, v).matrix
    for s in all_permutations(irrep.m):
        p = UnitaryElement.from_matrix(permutation_matrix(s))
        t_p = lift(irrep, p).matrix
        moved = occ[:, [s.inverse()(j) - 1 for j in range(1, irrep.m + 1)]]
        allowed = (moved[:, None, :] == occ[None, :, :]).all(axis=2)  # [t, r]
        assert np.abs(t_p.T[~allowed]).max(initial=0.0) < 1e-14
        pv = UnitaryElement.from_matrix(p.matrix @ v.matrix)
        assert np.abs(lift(irrep, pv).matrix - t_p @ t_v).max() < 1e-12


@settings(FEW, max_examples=10)
@given(st.sampled_from(CHAIN_ROWS), seeds, st.data())
def test_columns_match_chain_vectors(row, seed, data):
    # <r|U^(x)N|t> over one copy of the irrep inside (C^m)^(x)N
    m, n = len(row), sum(row)
    irrep = SUIrrepLabel(m, row)
    rep = _tensor_irrep(m, n, row)
    pats = gt_basis(irrep)
    t = data.draw(st.integers(0, len(pats) - 1))
    u = haar_random_unitary(m, seed)
    moved = apply_tensor_power(u.matrix, TensorState(m, n, rep.dense_vector(pats[t], 0)))
    want = [np.vdot(rep.dense_vector(r, 0), moved.amplitudes) for r in pats]
    assert np.abs(lift_columns(irrep, u, [t])[:, 0] - want).max() < 1e-12


@pytest.mark.parametrize("row", ROWS)
def test_rotation_tables_are_read_only(row):
    occ, eigen = _rotation_tables(SUIrrepLabel(len(row), row))
    assert len(eigen) == len(row) - 1
    for arr in (occ, *(a for entry in eigen for a in entry)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("cols", [[8], [-1], [0, 0], [1.0], [True], [0, 9]])
def test_bad_column_is_domain_error(cols):
    irrep = SUIrrepLabel(3, (2, 1, 0))
    with pytest.raises(DomainError, match="columns must be"):
        lift_columns(irrep, UnitaryElement(np.eye(3)), cols)


def test_column_lift_cap(monkeypatch):
    monkeypatch.setenv("IMMDFUN_MAX_DIM", "7")
    with pytest.raises(ResourceLimitError):
        lift_columns(SUIrrepLabel(3, (2, 1, 0)), UnitaryElement(np.eye(3)), [0])


def test_non_orthogonal_eigenbasis_is_refused(monkeypatch):
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (lambda w, v: (w, 1.001 * v))(*real_eigh(a)))
    with pytest.raises(DomainError, match="not orthogonal"):
        _rotation_tables.__wrapped__(SUIrrepLabel(3, (2, 1, 0)))


def test_columns_that_lose_orthonormality_are_refused(monkeypatch):
    real = sunrep._lifted_columns
    monkeypatch.setattr(sunrep, "_lifted_columns", lambda *args: 1.001 * real(*args))
    with pytest.raises(DomainError, match="orthonormality"):
        lift_columns(SUIrrepLabel(3, (2, 1, 0)), haar_random_unitary(3, 5), [0, 3])
