import math
from fractions import Fraction

import pytest

from immdfun import plethysm
from immdfun.errors import DomainError, RankDeficiencyError
from immdfun.plethysm import (
    PlethysmProblem,
    fit_decomposition,
    su2_power_problem,
    su3_sextic_permanent_problem,
)
from immdfun.symgroup import Partition
from immdfun.sunrep import SUIrrepLabel, pattern_rows

P = Partition


def two_j(cand, i):
    """Twice the su(2) J of basis position i of the candidate's irrep."""
    top, bottom = pattern_rows(cand.irrep)[i][-2]
    return top - bottom


class TestProblems:
    def test_su2_candidate_count(self):
        prob = su2_power_problem(3, P(2, 2))
        assert len(prob.candidates) == 7  # one diagonal pair per integer J <= 6
        assert all(c.diagonal for c in prob.candidates)

    def test_su3_candidate_count(self):
        prob = su3_sextic_permanent_problem()
        assert len(prob.candidates) == 38  # all torus-allowed pairs

    def test_partition_must_match_matrix_side(self):
        with pytest.raises(DomainError):
            PlethysmProblem(SUIrrepLabel(2, (3, 0)), P(2, 1), [])


class TestSU2Fit:
    def test_spin_three_halves_square(self):
        result = fit_decomposition(su2_power_problem(3, P(2, 2)), samples=60, seed=1905)
        fitted = {c.irrep.row[0]: v for c, v in result.coefficients}
        assert fitted[8].real == pytest.approx(26 / 35, abs=1e-8)
        assert fitted[4].real == pytest.approx(6 / 7, abs=1e-8)
        assert fitted[0].real == pytest.approx(2 / 5, abs=1e-8)
        assert set(fitted) == {8, 4, 0}
        assert all(abs(v) < 1e-9 for _, v in result.pruned)
        assert result.residual < 1e-8

    def test_coefficients_real(self):
        result = fit_decomposition(su2_power_problem(3, P(2, 2)), samples=60, seed=1905)
        assert all(abs(v.imag) < 1e-8 for _, v in result.coefficients)

    def test_seed_stability(self):
        a = fit_decomposition(su2_power_problem(3, P(2, 2)), samples=60, seed=1905)
        b = fit_decomposition(su2_power_problem(3, P(2, 2)), samples=60, seed=424242)
        fa = {c.irrep.row[0]: v for c, v in a.coefficients}
        fb = {c.irrep.row[0]: v for c, v in b.coefficients}
        assert set(fa) == set(fb)
        for k in fa:
            assert abs(fa[k] - fb[k]) < 1e-7

    def test_fundamental_reduces_to_trace_identity(self):
        result = fit_decomposition(su2_power_problem(1, P(2)), samples=30, seed=3)
        fitted = {c.irrep.row[0]: v for c, v in result.coefficients}
        assert set(fitted) == {2}
        assert fitted[2].real == pytest.approx(1.0, abs=1e-9)

    def test_antisymmetric_fundamental(self):
        result = fit_decomposition(su2_power_problem(1, P(1, 1)), samples=30, seed=3)
        fitted = {c.irrep.row[0]: v for c, v in result.coefficients}
        assert set(fitted) == {0}
        assert fitted[0].real == pytest.approx(1.0, abs=1e-9)

    def test_candidate_support_report(self):
        result = fit_decomposition(su2_power_problem(3, P(2, 2)))
        support = {Fraction(c.irrep.row[0], 2) for c, _ in result.coefficients}
        assert support == {Fraction(4), Fraction(2), Fraction(0)}

    def test_diagonal_sum(self):
        result = fit_decomposition(su2_power_problem(3, P(2, 2)), samples=60, seed=1905)
        assert abs(result.diagonal_sum() - 2.0) < 1e-8


@pytest.fixture(scope="module")
def su3_result():
    return fit_decomposition(su3_sextic_permanent_problem(), samples=60, seed=1905)


class TestSU3Fit:

    def test_support_is_seventeen(self, su3_result):
        assert len(su3_result.coefficients) == 17
        assert all(abs(v) < 1e-9 for _, v in su3_result.pruned)

    def test_residual(self, su3_result):
        assert su3_result.residual < 1e-8

    def test_diagonal_sum_is_one(self, su3_result):
        assert abs(su3_result.diagonal_sum() - 1.0) < 1e-8

    def test_key_diagonal_values(self, su3_result):
        fitted = {(c.irrep.row, two_j(c, c.r), two_j(c, c.t)): v.real for c, v in su3_result.coefficients}
        assert fitted[((12, 0, 0), 8, 8)] == pytest.approx(64 / 385, abs=1e-7)
        assert fitted[((10, 2, 0), 8, 8)] == pytest.approx(60 / 539, abs=1e-7)
        assert fitted[((10, 2, 0), 4, 4)] == pytest.approx(6 / 49, abs=1e-7)
        assert fitted[((6, 0, 0), 4, 4)] == pytest.approx(1 / 9, abs=1e-7)
        assert fitted[((6, 6, 0), 4, 4)] == pytest.approx(16 / 63, abs=1e-7)
        assert fitted[((0, 0, 0), 0, 0)] == pytest.approx(2 / 45, abs=1e-7)

    def test_off_diagonal_surds(self, su3_result):
        fitted = {(c.irrep.row, two_j(c, c.r), two_j(c, c.t)): v.real for c, v in su3_result.coefficients}
        surd = 6 / 49 * math.sqrt(10 / 11)
        assert fitted[((10, 2, 0), 8, 4)] == pytest.approx(surd, abs=1e-7)
        assert fitted[((10, 2, 0), 4, 8)] == pytest.approx(surd, abs=1e-7)

    def test_gram_blocks_are_rank_one(self, su3_result):
        # each irrep block of the coefficient matrix is an outer product
        fitted = {(c.irrep.row, two_j(c, c.r), two_j(c, c.t)): v.real for c, v in su3_result.coefficients}
        row = (8, 4, 0)
        for a in (0, 4, 8):
            for b in (0, 4, 8):
                lhs = fitted[(row, a, b)] * fitted[(row, b, a)]
                rhs = fitted[(row, a, a)] * fitted[(row, b, b)]
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestFitMachinery:
    def test_rank_deficiency_detected(self):
        prob = su2_power_problem(1, P(2))
        dup = prob.candidates[0]
        bad = PlethysmProblem(prob.base_irrep, prob.partition, prob.candidates + [dup])
        with pytest.raises(RankDeficiencyError):
            fit_decomposition(bad, samples=30, seed=1)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError):
            fit_decomposition(su2_power_problem(3, P(2, 2)), samples=5, seed=1)

    def test_each_sample_is_lifted_once(self, monkeypatch):
        # the base irrep is lifted in full, each candidate irrep only at the
        # rows and columns its candidates read; one (irrep, sample) entry per
        # lift, and the candidate irreps are lifted as one set
        calls, sets = [], []
        real = plethysm.lift_batch

        def counted(irs, us, cols=None, rows=None):
            sets.append(len(irs))
            calls.extend((ir, c is None) for ir, c in zip(irs, cols or [None] * len(irs)) for _ in us)
            lifts = real(irs, us, cols, rows)
            if rows is not None:  # each candidate irrep comes back as (S, r_i, c_i)
                for r, c, lifted in zip(rows, cols, lifts):
                    assert lifted.shape == (len(us), len(r), len(c))
            return lifts

        monkeypatch.setattr(plethysm, "lift_batch", counted)
        prob = su2_power_problem(3, P(2, 2))
        samples = 30
        result = fit_decomposition(prob, samples=samples, seed=1)
        prelim = max(samples, 3 * len(prob.candidates))
        irreps = {c.irrep for c in prob.candidates}
        assert len(calls) == prelim * (1 + len(irreps))
        assert calls.count((prob.base_irrep, True)) == prelim
        assert sum(full for _, full in calls) == prelim
        assert result.sample_count == samples
        assert sets == [1, len(irreps)]
