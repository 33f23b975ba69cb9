"""Named verification suites: each reruns one identity family over Haar
samples and emits one VerificationReport per configuration.

Report streams are deterministic for a fixed (suite, flags, seed): sample
elements are seeded per index and enumeration order is fixed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .dualspace import (
    conjecture_scan,
    immanant_via_duality,
    state_weight,
    verify_littlewood,
)
from .errors import DomainError
from .linalgimm import (
    DEFAULT_SEED,
    SubmatrixSelector,
    haar_random_unitary,
    immanant,
    submatrix,
)
from .plethysm import (
    diagonal_sum_check,
    fit_decomposition,
    su2_power_problem,
    su3_sextic_permanent_problem,
)
from .reports import VerificationReport
from .symgroup import Partition, partitions_of
from .sunrep import SUIrrepLabel, lift, weight_block_trace

def kostant_suite(
    m_values=(2, 3, 4),
    samples: int = 25,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
    check_duality: bool = True,
    duality_tol: float = 1e-10,
) -> list[VerificationReport]:
    """Immanant of the defining matrix = trace over zero-weight diagonal
    group functions, for every partition of m."""
    reports = []
    for m in m_values:
        full = tuple(range(1, m + 1))
        for p in partitions_of(m):
            label = SUIrrepLabel.from_partition(p, m, normalize=False)
            worst = 0.0
            worst_dual = 0.0
            for i in range(samples):
                u = haar_random_unitary(m, seed + i)
                direct = immanant(p, u.matrix)
                dsum = weight_block_trace(lift(label, u), (1,) * m)
                worst = max(worst, abs(direct - dsum))
                if check_duality:
                    via = immanant_via_duality(m, p, full, full, u)
                    worst_dual = max(worst_dual, abs(direct - via))
            passed = worst < tol and (not check_duality or worst_dual < duality_tol)
            reports.append(
                VerificationReport(
                    suite="kostant",
                    m=m,
                    partition=p.parts,
                    seed=seed,
                    residual=float(worst),
                    passed=bool(passed),
                    details={
                        "samples": samples,
                        "duality_residual": float(worst_dual) if check_duality else None,
                    },
                )
            )
    return reports


def corollary4_suite(
    m_values=(4, 5),
    sizes=(2, 3, 4),
    samples: int = 10,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
    check_duality: bool = True,
    duality_tol: float = 1e-10,
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
                    occ = state_weight(m, keep).occupation
                    worst = 0.0
                    worst_dual = 0.0
                    for u, lf in zip(elements, lifts):
                        sub = submatrix(u.matrix, SubmatrixSelector(keep, keep))
                        direct = immanant(p, sub)
                        dsum = weight_block_trace(lf, occ)
                        worst = max(worst, abs(direct - dsum))
                        if check_duality:
                            via = immanant_via_duality(m, p, keep, keep, u)
                            worst_dual = max(worst_dual, abs(direct - via))
                    passed = worst < tol and (not check_duality or worst_dual < duality_tol)
                    reports.append(
                        VerificationReport(
                            suite="corollary4",
                            m=m,
                            partition=p.parts,
                            selector_rows=keep,
                            selector_cols=keep,
                            seed=seed,
                            residual=float(worst),
                            passed=bool(passed),
                            details={
                                "samples": samples,
                                "weight": list(occ),
                                "duality_residual": float(worst_dual)
                                if check_duality
                                else None,
                            },
                        )
                    )
    return reports


def littlewood_suite(
    samples: int = 100, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[VerificationReport]:
    reports = []
    for i in range(samples):
        u = haar_random_unitary(4, seed + i)
        reports.append(verify_littlewood(u, tol=tol, seed=seed + i))
    return reports


def conjecture_suite(
    m: int = 4,
    partition: Partition | None = None,
    selectors=None,
    entry_tol: float = 1e-8,
    samples: int = 25,
    seed: int = DEFAULT_SEED,
    include_named_su5: bool = True,
) -> list[VerificationReport]:
    """Unit-coefficient evidence scan; by default the full 3x3 selector grid
    of SU(4) for {2,1} plus the two named SU(5) pairs."""
    p = partition if partition is not None else Partition(2, 1)
    reports = conjecture_scan(
        m, p, selectors=selectors, entry_tol=entry_tol, check_samples=samples, seed=seed
    )
    if include_named_su5 and m == 4 and selectors is None:
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


def plethysm_su2_suite(
    samples: int = 60, seed: int = DEFAULT_SEED, tol: float = 1e-8, zero_tol: float = 1e-9
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
    diag = diagonal_sum_check(result, Partition(2, 2))
    passed = worst < tol and stray < zero_tol and diag.passed and result.residual < 1e-8
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
                "diagonal_sum": diag.details["diagonal_sum"],
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
    diag = diagonal_sum_check(result, Partition(6))
    passed = (
        not missing
        and not extra
        and worst < tol
        and diag.passed
        and result.residual < 1e-8
    )
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
                "diagonal_sum": diag.details["diagonal_sum"],
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
