"""Named verification suites: each reruns one identity family over Haar
samples and emits one VerificationReport per configuration.  Reports are
built, and their pass rules decided, here and nowhere else.

Report streams are deterministic for a fixed (suite, flags, seed): sample
elements are seeded per index and enumeration order is fixed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .dualspace import (
    CoefficientMatrix,
    coefficient_matrix,
    coefficient_matrix_value,
    immanant_via_duality,
    state_weight,
)
from .errors import DomainError
from .linalgimm import (
    DEFAULT_SEED,
    SubmatrixSelector,
    UnitaryElement,
    haar_random_unitary,
    immanant,
    submatrix,
)
from .plethysm import (
    DecompositionResult,
    fit_decomposition,
    su2_power_problem,
    su3_sextic_permanent_problem,
)
from .reports import VerificationReport
from .symgroup import Partition, dim_sym, partitions_of
from .sunrep import SUIrrepLabel, chain_label, lift, weight_block_trace

DUALITY_TOL = 1e-10


def _principal_residuals(m, p, keep, elements, lifts) -> tuple[float, float]:
    """Worst |Imm^{p} - diagonal D-sum| and worst |Imm^{p} - duality route|
    of the principal submatrix on ``keep`` over the sampled elements, whose
    lifts into the irrep dual to ``p`` are ``lifts``."""
    occ = state_weight(m, keep).occupation
    selector = SubmatrixSelector(keep, keep)
    worst = 0.0
    worst_dual = 0.0
    for u, lf in zip(elements, lifts):
        direct = immanant(p, submatrix(u.matrix, selector))
        worst = max(worst, abs(direct - weight_block_trace(lf, occ)))
        via = immanant_via_duality(m, p, keep, keep, u)
        worst_dual = max(worst_dual, abs(direct - via))
    return float(worst), float(worst_dual)


def kostant_suite(
    m_values=(2, 3, 4),
    samples: int = 25,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
) -> list[VerificationReport]:
    """Immanant of the defining matrix = trace over zero-weight diagonal
    group functions, for every partition of m."""
    reports = []
    for m in m_values:
        full = tuple(range(1, m + 1))
        elements = [haar_random_unitary(m, seed + i) for i in range(samples)]
        for p in partitions_of(m):
            label = SUIrrepLabel.from_partition(p, m, normalize=False)
            lifts = [lift(label, u) for u in elements]
            worst, worst_dual = _principal_residuals(m, p, full, elements, lifts)
            reports.append(
                VerificationReport(
                    suite="kostant",
                    m=m,
                    partition=p.parts,
                    seed=seed,
                    residual=worst,
                    passed=worst < tol and worst_dual < DUALITY_TOL,
                    details={"samples": samples, "duality_residual": worst_dual},
                )
            )
    return reports


def corollary4_suite(
    m_values=(4, 5),
    sizes=(2, 3, 4),
    samples: int = 10,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
) -> list[VerificationReport]:
    """Principal submatrix immanants = diagonal D-sums over the selector's
    weight subspace, for every principal selector and partition."""
    reports = []
    for m in m_values:
        elements = [haar_random_unitary(m, seed + i) for i in range(samples)]
        for size in sizes:
            if size >= m:
                continue
            for p in partitions_of(size):
                label = SUIrrepLabel.from_partition(p, m, normalize=False)
                lifts = [lift(label, u) for u in elements]
                for keep in combinations(range(1, m + 1), size):
                    worst, worst_dual = _principal_residuals(m, p, keep, elements, lifts)
                    reports.append(
                        VerificationReport(
                            suite="corollary4",
                            m=m,
                            partition=p.parts,
                            selector_rows=keep,
                            selector_cols=keep,
                            seed=seed,
                            residual=worst,
                            passed=worst < tol and worst_dual < DUALITY_TOL,
                            details={
                                "samples": samples,
                                "weight": list(state_weight(m, keep).occupation),
                                "duality_residual": worst_dual,
                            },
                        )
                    )
    return reports


LITTLEWOOD_PAIRS = (((1, 2, 3), (4,)), ((1, 2, 4), (3,)), ((1, 3, 4), (2,)), ((2, 3, 4), (1,)))


def verify_littlewood(element: UnitaryElement, tol: float = 1e-9, seed: int | None = None) -> VerificationReport:
    """Coaxial product identity on a 4x4 unitary.

    Sums of permanent-times-entry over the four complementary principal
    pairs must equal Imm^{3,1} + Imm^{4}; the same identity is re-evaluated
    through diagonal group-function sums and both residuals are reported.
    """
    if element.m != 4:
        raise DomainError("the coaxial product identity is stated for 4x4 matrices")
    umat = element.matrix
    p3, p1, p31, p4 = Partition(3), Partition(1), Partition(3, 1), Partition(4)
    lhs = 0.0 + 0.0j
    for keep3, keep1 in LITTLEWOOD_PAIRS:
        sub3 = submatrix(umat, SubmatrixSelector(keep3, keep3))
        lhs += immanant(p3, sub3) * umat[keep1[0] - 1, keep1[0] - 1]
    rhs = immanant(p31, umat) + immanant(p4, umat)
    residual_imm = abs(lhs - rhs)

    lifted = {
        pp: lift(SUIrrepLabel.from_partition(pp, 4, normalize=False), element)
        for pp in (p3, p1, p31, p4)
    }

    lhs_d = 0.0 + 0.0j
    for keep3, keep1 in LITTLEWOOD_PAIRS:
        occ3 = state_weight(4, keep3).occupation
        occ1 = state_weight(4, keep1).occupation
        lhs_d += weight_block_trace(lifted[p3], occ3) * weight_block_trace(lifted[p1], occ1)
    full = (1, 1, 1, 1)
    rhs_d = weight_block_trace(lifted[p31], full) + weight_block_trace(lifted[p4], full)
    residual_d = abs(lhs_d - rhs_d)
    residual_forms = max(abs(lhs_d - lhs), abs(rhs_d - rhs))

    residual = max(residual_imm, residual_d, residual_forms)
    return VerificationReport(
        suite="littlewood",
        m=4,
        partition=(3, 1),
        seed=seed,
        residual=float(residual),
        passed=bool(residual < tol),
        details={
            "immanant_residual": float(residual_imm),
            "dfunction_residual": float(residual_d),
            "form_agreement": float(residual_forms),
        },
    )


def littlewood_suite(
    samples: int = 100, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[VerificationReport]:
    reports = []
    for i in range(samples):
        u = haar_random_unitary(4, seed + i)
        reports.append(verify_littlewood(u, tol=tol, seed=seed + i))
    return reports


def classify_coefficients(cm: CoefficientMatrix, tol: float = 1e-8) -> dict:
    """Counts of coefficient entries at 1 and 0, plus anything else, and the
    modulus-only variant that ignores phase conventions."""
    ent = cm.entries
    units = int((np.abs(ent - 1.0) < tol).sum())
    zeros = int((np.abs(ent) < tol).sum())
    mod_units = int((np.abs(np.abs(ent) - 1.0) < tol).sum())
    violations = []
    for (a, b), val in np.ndenumerate(ent):
        if abs(val - 1.0) >= tol and abs(val) >= tol:
            violations.append(
                {
                    "row": chain_label(cm.row_patterns[a]),
                    "col": chain_label(cm.col_patterns[b]),
                    "value": [float(val.real), float(val.imag)],
                }
            )
    return {
        "unit_entries": units,
        "zero_entries": zeros,
        "modulus_unit_entries": mod_units,
        "violations": violations,
        "shape": list(ent.shape),
    }


def conjecture_scan(
    m: int,
    p: Partition,
    selectors=None,
    entry_tol: float = 1e-8,
    check_samples: int = 25,
    seed: int = DEFAULT_SEED,
) -> list[VerificationReport]:
    """Scan submatrix selector pairs for the unit-coefficient pattern.

    For each (k, q) pair the coefficient matrix is classified: how many
    entries equal +1, how many vanish, and anything else is listed as a
    violation (with the modulus-only tally reported separately).  Each
    report also carries the worst residual of the reconstructed immanant
    against the character sum over ``check_samples`` Haar samples.  This is
    evidence reporting: a report passes when its own pair shows exactly
    dim{p} unit entries and zeros elsewhere, and that residual is below 1e-9.
    """
    n = p.n
    if selectors is None:
        index_sets = list(combinations(range(1, m + 1), n))
        selectors = [(k, q) for k in index_sets for q in index_sets]
    reports = []
    expected_units = dim_sym(p)
    row = tuple(p.parts) + (0,) * (m - len(p))
    label = SUIrrepLabel(m, row)
    samples = [haar_random_unitary(m, seed + 1000 * i) for i in range(check_samples)]
    lifts = [lift(label, u) for u in samples]
    for k, q in selectors:
        cm = coefficient_matrix(m, p, k, q)
        info = classify_coefficients(cm, entry_tol)
        worst = 0.0
        for u, lf in zip(samples, lifts):
            direct = immanant(p, submatrix(u.matrix, SubmatrixSelector(k, q)))
            via = coefficient_matrix_value(cm, lf)
            worst = max(worst, abs(direct - via))
        total = cm.entries.size
        ok = (
            info["unit_entries"] == expected_units
            and info["zero_entries"] == total - expected_units
            and not info["violations"]
            and worst < 1e-9
        )
        info["max_cross_residual"] = float(worst)
        info["expected_units"] = expected_units
        info["row_tags"] = [chain_label(pat) for pat in cm.row_patterns]
        info["col_tags"] = [chain_label(pat) for pat in cm.col_patterns]
        reports.append(
            VerificationReport(
                suite="conjecture",
                m=m,
                partition=p.parts,
                selector_rows=k,
                selector_cols=q,
                seed=seed,
                residual=float(worst),
                passed=bool(ok),
                details=info,
            )
        )
    return reports


def conjecture_suite(
    m: int = 4,
    partition: Partition | None = None,
    selectors=None,
    entry_tol: float = 1e-8,
    samples: int = 25,
    seed: int = DEFAULT_SEED,
) -> list[VerificationReport]:
    """Unit-coefficient evidence scan; by default the full 3x3 selector grid
    of SU(4) for {2,1} plus the two named SU(5) pairs, which are left out
    when ``selectors`` is given."""
    p = partition if partition is not None else Partition(2, 1)
    reports = conjecture_scan(
        m, p, selectors=selectors, entry_tol=entry_tol, check_samples=samples, seed=seed
    )
    if m == 4 and selectors is None:
        named = [
            (Partition(2, 1), (2, 3, 5), (1, 3, 4)),
            (Partition(3, 1), (1, 3, 4, 5), (1, 2, 3, 5)),
        ]
        for np_, k, q in named:
            reports.extend(
                conjecture_scan(
                    5,
                    np_,
                    selectors=[(k, q)],
                    entry_tol=entry_tol,
                    check_samples=samples,
                    seed=seed,
                )
            )
    return reports


# exact coefficient tables for the plethysm suites ---------------------------
#
# SU(2), spin 3/2, partition {2,2}: supported J = 4, 2, 0 (keys are 2J).
SU2_EXPECTED = {8: Fraction(26, 35), 4: Fraction(6, 7), 0: Fraction(2, 5)}

# SU(3) two-box irrep, permanent of the 6x6 matrix: 17 supported group
# functions, keyed by (irrep row, 2J_left, 2J_right).  Off-diagonal values
# are products of the rank-one Gram factors, e.g. the (10,2,0) cross term is
# (6/49)*sqrt(10/11) and the (8,4,0) (4,2) cross term is 16/(147*sqrt(5)).
SU3_EXPECTED = {
    ((12, 0, 0), 8, 8): 64.0 / 385.0,
    ((10, 2, 0), 8, 8): 60.0 / 539.0,
    ((10, 2, 0), 8, 4): 6.0 / 49.0 * math.sqrt(10.0 / 11.0),
    ((10, 2, 0), 4, 8): 6.0 / 49.0 * math.sqrt(10.0 / 11.0),
    ((10, 2, 0), 4, 4): 6.0 / 49.0,
    ((8, 4, 0), 8, 8): 16.0 / 245.0,
    ((8, 4, 0), 8, 4): 16.0 / (147.0 * math.sqrt(5.0)),
    ((8, 4, 0), 8, 0): 8.0 / 105.0,
    ((8, 4, 0), 4, 8): 16.0 / (147.0 * math.sqrt(5.0)),
    ((8, 4, 0), 4, 4): 16.0 / 441.0,
    ((8, 4, 0), 4, 0): 8.0 / (63.0 * math.sqrt(5.0)),
    ((8, 4, 0), 0, 8): 8.0 / 105.0,
    ((8, 4, 0), 0, 4): 8.0 / (63.0 * math.sqrt(5.0)),
    ((8, 4, 0), 0, 0): 4.0 / 45.0,
    ((6, 0, 0), 4, 4): 1.0 / 9.0,
    ((6, 6, 0), 4, 4): 16.0 / 63.0,
    ((0, 0, 0), 0, 0): 2.0 / 45.0,
}


def _diagonal_sum(result: DecompositionResult, p: Partition) -> tuple[list[float], bool]:
    """The fitted diagonal coefficients' sum as [re, im], and whether it is
    the S_N irrep dimension dim{p} to 1e-8."""
    total = result.diagonal_sum()
    return [float(total.real), float(total.imag)], bool(abs(total - dim_sym(p)) < 1e-8)


def plethysm_su2_suite(
    samples: int = 60, seed: int = DEFAULT_SEED, tol: float = 1e-8
) -> list[VerificationReport]:
    problem = su2_power_problem(3, Partition(2, 2))
    result = fit_decomposition(problem, samples=samples, seed=seed)
    fitted = {cand.irrep.row[0]: val for cand, val in result.coefficients}
    worst = 0.0
    detail_coeffs = {}
    for two_j, expected in SU2_EXPECTED.items():
        got = fitted.get(two_j, 0.0)
        worst = max(worst, abs(got - float(expected)))
        detail_coeffs[f"J={two_j // 2}"] = [float(np.real(got)), float(np.imag(got))]
    stray = max((abs(v) for c, v in result.pruned), default=0.0)
    stray = max(
        stray,
        max((abs(v) for c, v in result.coefficients if c.irrep.row[0] not in SU2_EXPECTED), default=0.0),
    )
    diag, diag_ok = _diagonal_sum(result, Partition(2, 2))
    passed = worst < tol and stray < 1e-9 and diag_ok and result.residual < 1e-8
    return [
        VerificationReport(
            suite="plethysm-su2",
            m=2,
            partition=(2, 2),
            seed=seed,
            residual=float(worst),
            passed=bool(passed),
            details={
                "coefficients": detail_coeffs,
                "stray_magnitude": float(stray),
                "fit_residual": float(result.residual),
                "diagonal_sum": diag,
                "samples": result.sample_count,
            },
        )
    ]


def plethysm_su3_suite(
    samples: int = 60, seed: int = DEFAULT_SEED, tol: float = 1e-7
) -> list[VerificationReport]:
    problem = su3_sextic_permanent_problem()
    result = fit_decomposition(problem, samples=samples, seed=seed)
    fitted = {
        (cand.irrep.row, cand.r.two_j, cand.t.two_j): val
        for cand, val in result.coefficients
    }
    worst = 0.0
    missing = []
    for key, expected in SU3_EXPECTED.items():
        got = fitted.pop(key, None)
        if got is None:
            missing.append(key)
            continue
        worst = max(worst, abs(got - expected))
    extra = {str(k): abs(v) for k, v in fitted.items()}
    diag, diag_ok = _diagonal_sum(result, Partition(6))
    passed = not missing and not extra and worst < tol and diag_ok and result.residual < 1e-8
    return [
        VerificationReport(
            suite="plethysm-su3",
            m=3,
            partition=(6,),
            seed=seed,
            residual=float(worst),
            passed=bool(passed),
            details={
                "supported": len(result.coefficients),
                "missing": [str(k) for k in missing],
                "unexpected": extra,
                "fit_residual": float(result.residual),
                "diagonal_sum": diag,
                "samples": result.sample_count,
            },
        )
    ]


SUITES = {
    "kostant": kostant_suite,
    "corollary4": corollary4_suite,
    "littlewood": littlewood_suite,
    "conjecture": conjecture_suite,
    "plethysm-su2": plethysm_su2_suite,
    "plethysm-su3": plethysm_su3_suite,
}


def run_suite(name: str, **kwargs) -> list[VerificationReport]:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITES[name](**kwargs)
