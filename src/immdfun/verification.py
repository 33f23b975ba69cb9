"""Named verification suites: each reruns one identity family over Haar
samples and emits one VerificationReport per configuration.  Reports are
built, and their pass rules decided, here and nowhere else.

Report streams are deterministic for a fixed (suite, flags, seed): sample
elements are seeded per index and enumeration order is fixed.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .dualspace import (
    CoefficientMatrix,
    _check_pair,
    coefficient_matrix,
    coefficient_matrix_value,
    immanant_via_duality_stack,
    state_weight,
)
from .errors import DomainError
from .linalgimm import DEFAULT_SEED, haar_random_unitaries, immanant_batch
from .plethysm import (
    DecompositionResult,
    fit_decomposition,
    su2_power_problem,
    su3_sextic_permanent_problem,
)
from .reports import VerificationReport
from .symgroup import Partition, dim_sym, partitions_of
from .sunrep import (
    SUIrrepLabel,
    chain_labels,
    gt_array,
    lift_batch,
    weight_block,
)

DUALITY_TOL = 1e-10


def _worst(values) -> float:
    """The largest of ``values`` (0.0 for none), and NaN if any is NaN:
    max(0.0, nan) is 0.0, so a running max would drop a NaN residual."""
    return float(np.max(np.array(list(values), dtype=np.float64), initial=0.0))


def _worst_gap(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`_worst` of |a_s - b_s| over the samples s, each modulus taken
    by Python's complex abs, sample by sample."""
    return _worst(abs(z) for z in (a - b).tolist())


def _matrices(elements, m: int) -> np.ndarray:
    """The (S, m, m) stack of the elements' matrices."""
    return np.array([u.matrix for u in elements], dtype=np.complex128).reshape(-1, m, m)


def _submatrices(mats: np.ndarray, rows, cols) -> np.ndarray:
    """The (S, n, n) stack of the (1-based) ``rows`` x ``cols`` submatrices."""
    return mats[:, np.array(rows)[:, None] - 1, np.array(cols) - 1]


def _block_columns(label: SUIrrepLabel, keeps) -> np.ndarray:
    """Ascending basis positions of the weight blocks of the mode sets
    ``keeps``."""
    cols = {int(i) for keep in keeps for i in weight_block(label, state_weight(label.m, keep))}
    return np.array(sorted(cols), dtype=np.intp)


def _block_lifts(m: int, blocks, elements) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Lift ``elements`` as one set into the irrep dual to each partition
    of the mapping ``blocks`` (partition -> (row keeps, column keeps)), at
    only the rows and columns of the weight blocks of those keeps: one
    (lifts, rows, cols) per partition, in the mapping's order."""
    labels = [SUIrrepLabel.from_partition(p, m, normalize=False) for p in blocks]
    rows = [_block_columns(label, ks) for label, (ks, _) in zip(labels, blocks.values())]
    cols = [_block_columns(label, qs) for label, (_, qs) in zip(labels, blocks.values())]
    return list(zip(lift_batch(labels, elements, cols, rows), rows, cols))


def _block_traces(m: int, keeps, elements) -> dict[Partition, np.ndarray]:
    """The principal block traces of ``elements`` for each partition of the
    mapping ``keeps`` (partition -> its kept-mode sets, all of one size, so
    their blocks are of one size too): an (S, K) array, each entry the sum,
    in basis order, of the lifted diagonal over the patterns at the weight
    of one keep, from one gather of one set lift (:func:`_block_lifts`)."""
    lifts = _block_lifts(m, {p: (kk, kk) for p, kk in keeps.items()}, elements)
    traces = {}
    for (p, kk), (lifted, rows, _) in zip(keeps.items(), lifts):
        label = SUIrrepLabel.from_partition(p, m, normalize=False)
        pos = np.searchsorted(rows, [weight_block(label, state_weight(m, keep)) for keep in kk])
        traces[p] = sum(np.moveaxis(lifted[..., pos, pos], -1, 0), 0j)
    return traces


def _principal_residuals(m, p, keeps, mats, traces) -> list[tuple[float, float]]:
    """Worst |Imm^{p} - diagonal D-sum| and worst |Imm^{p} - duality route|
    of the principal submatrix on each kept-mode set of ``keeps`` (all of
    one size) over the (S, m, m) sample stack ``mats``, whose (S, K) block
    traces in the irrep dual to ``p`` are ``traces``.  Each route is
    evaluated for all K keeps at once: one character sum over the
    (K S, n, n) stack of submatrices and one duality contraction."""
    sel = np.array(keeps) - 1
    subs = mats[:, sel[:, :, None], sel[:, None, :]].transpose(1, 0, 2, 3)
    direct = immanant_batch(p, subs.reshape(-1, *subs.shape[2:])).reshape(len(keeps), -1)
    dual = immanant_via_duality_stack(m, p, [(keep, keep) for keep in keeps], mats)
    return [(_worst_gap(a, t), _worst_gap(a, u)) for a, t, u in zip(direct, traces.T, dual)]


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
        elements = haar_random_unitaries(m, range(seed, seed + samples))
        mats = _matrices(elements, m)
        traces = _block_traces(m, {p: [full] for p in partitions_of(m)}, elements)
        for p, stacked in traces.items():
            [(worst, worst_dual)] = _principal_residuals(m, p, [full], mats, stacked)
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
        keeps = {
            p: list(combinations(range(1, m + 1), size))
            for size in sizes
            if size < m
            for p in partitions_of(size)
        }
        elements = haar_random_unitaries(m, range(seed, seed + samples))
        mats = _matrices(elements, m)
        traces = _block_traces(m, keeps, elements)
        for p, kk in keeps.items():
            residuals = _principal_residuals(m, p, kk, mats, traces[p])
            for keep, (worst, worst_dual) in zip(kk, residuals):
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
                            "weight": list(state_weight(m, keep)),
                            "duality_residual": worst_dual,
                        },
                    )
                )
    return reports


LITTLEWOOD_PAIRS = (((1, 2, 3), (4,)), ((1, 2, 4), (3,)), ((1, 3, 4), (2,)), ((2, 3, 4), (1,)))


def _littlewood_reports(elements, seeds, tol: float) -> list[VerificationReport]:
    """Coaxial product identity on 4x4 unitaries, one report per element.

    Sums of permanent-times-entry over the four complementary principal
    pairs must equal Imm^{3,1} + Imm^{4}; the same identity is re-evaluated
    through diagonal group-function sums and both residuals are reported.
    The four irreps are lifted as one set for all elements, each at the
    weight blocks its block traces read.
    """
    if any(u.m != 4 for u in elements):
        raise DomainError("the coaxial product identity is stated for 4x4 matrices")
    p3, p1, p31, p4 = Partition(3), Partition(1), Partition(3, 1), Partition(4)
    full = (1, 2, 3, 4)
    keeps = {
        p3: [keep3 for keep3, _ in LITTLEWOOD_PAIRS],
        p1: [keep1 for _, keep1 in LITTLEWOOD_PAIRS],
        p31: [full],
        p4: [full],
    }
    traces = {
        (pp, keep): trace
        for pp, stacked in _block_traces(4, keeps, elements).items()
        for keep, trace in zip(keeps[pp], stacked.T)
    }
    mats = _matrices(elements, 4)
    imm3 = {keep3: immanant_batch(p3, _submatrices(mats, keep3, keep3)) for keep3 in keeps[p3]}
    imm31, imm4 = immanant_batch(p31, mats), immanant_batch(p4, mats)
    reports = []
    # the tails stay scalar: numpy's complex multiply may round differently
    for s, (umat, seed) in enumerate(zip(mats, seeds)):
        lhs = 0.0 + 0.0j
        for keep3, keep1 in LITTLEWOOD_PAIRS:
            lhs += complex(imm3[keep3][s]) * umat[keep1[0] - 1, keep1[0] - 1]
        rhs = complex(imm31[s]) + complex(imm4[s])
        residual_imm = abs(lhs - rhs)

        lhs_d = 0.0 + 0.0j
        for keep3, keep1 in LITTLEWOOD_PAIRS:
            lhs_d += traces[p3, keep3][s] * traces[p1, keep1][s]
        rhs_d = traces[p31, full][s] + traces[p4, full][s]
        residual_d = abs(lhs_d - rhs_d)
        residual_forms = _worst((abs(lhs_d - lhs), abs(rhs_d - rhs)))

        residual = _worst((residual_imm, residual_d, residual_forms))
        reports.append(
            VerificationReport(
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
        )
    return reports


def littlewood_suite(
    samples: int = 100, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[VerificationReport]:
    seeds = range(seed, seed + samples)
    return _littlewood_reports(haar_random_unitaries(4, seeds), seeds, tol)


def classify_coefficients(cm: CoefficientMatrix, tol: float = 1e-8) -> dict:
    """Counts of coefficient entries at 1 and 0, plus anything else, and the
    modulus-only variant that ignores phase conventions."""
    ent = cm.entries
    units = int((np.abs(ent - 1.0) < tol).sum())
    zeros = int((np.abs(ent) < tol).sum())
    mod_units = int((np.abs(np.abs(ent) - 1.0) < tol).sum())
    tags = chain_labels(cm.label)
    violations = []
    for (a, b), val in np.ndenumerate(ent):
        if abs(val - 1.0) >= tol and abs(val) >= tol:
            violations.append(
                {
                    "row": tags[cm.row_index[a]],
                    "col": tags[cm.col_index[b]],
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


def _scan_samples(m: int, check_samples: int, seed: int):
    """The Haar check samples of a conjecture scan: every 1000th seed."""
    return haar_random_unitaries(m, range(seed, seed + 1000 * check_samples, 1000))


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
    if selectors is None:  # lifted before its C(m, n)^2 pairs are listed
        index_sets = list(combinations(range(1, m + 1), p.n))
        keeps = (index_sets, index_sets)
    else:
        selectors = [_check_pair(m, p, k, q) for k, q in selectors]
        keeps = ([k for k, _ in selectors], [q for _, q in selectors])
    samples = _scan_samples(m, check_samples, seed)
    [lifted] = _block_lifts(m, {p: keeps}, samples)  # every row_index and col_index
    if selectors is None:
        selectors = [(k, q) for k in index_sets for q in index_sets]
    return _scan(m, p, selectors, entry_tol, _matrices(samples, m), *lifted, seed)


def _scan(m, p, selectors, entry_tol, mats, lifts, rows, cols, seed) -> list[VerificationReport]:
    """The reports of :func:`conjecture_scan` over checked ``selectors``,
    the check samples' (S, m, m) matrices ``mats`` and their ``lifts`` at
    the rows ``rows`` and columns ``cols``, which hold every coefficient
    matrix's row_index and col_index."""
    label = SUIrrepLabel.from_partition(p, m, normalize=False)
    reports = []
    expected_units = dim_sym(p)
    tags = chain_labels(label)
    for k, q in selectors:
        cm = coefficient_matrix(m, p, k, q)
        info = classify_coefficients(cm, entry_tol)
        direct = immanant_batch(p, _submatrices(mats, k, q))
        worst = _worst_gap(direct, coefficient_matrix_value(cm, lifts, cols, rows))
        total = cm.entries.size
        ok = (
            info["unit_entries"] == expected_units
            and info["zero_entries"] == total - expected_units
            and not info["violations"]
            and worst < 1e-9
        )
        info["max_cross_residual"] = float(worst)
        info["expected_units"] = expected_units
        info["row_tags"] = [tags[i] for i in cm.row_index]
        info["col_tags"] = [tags[i] for i in cm.col_index]
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
    of SU(4) for {2,1} plus the two named SU(5) pairs, which only the
    default run, with no ``partition`` and no ``selectors``, appends."""
    p = partition if partition is not None else Partition(2, 1)
    reports = conjecture_scan(
        m, p, selectors=selectors, entry_tol=entry_tol, check_samples=samples, seed=seed
    )
    if m == 4 and partition is None and selectors is None:
        named = {
            Partition(2, 1): [((2, 3, 5), (1, 3, 4))],
            Partition(3, 1): [((1, 3, 4, 5), (1, 2, 3, 5))],
        }
        shared = _scan_samples(5, samples, seed)  # both labels are lifted as one set
        mats = _matrices(shared, 5)
        keeps = {np_: ([k for k, _ in kq], [q for _, q in kq]) for np_, kq in named.items()}
        for (np_, pairs), lifted in zip(named.items(), _block_lifts(5, keeps, shared)):
            reports.extend(_scan(5, np_, pairs, entry_tol, mats, *lifted, seed))
    return reports


# exact coefficient tables for the plethysm suites ---------------------------
#
# SU(2), spin 3/2, partition {2,2}: supported J = 4, 2, 0 (keys are 2J).
SU2_EXPECTED = {8: 26 / 35, 4: 6 / 7, 0: 2 / 5}

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
    got = {two_j: fitted.get(two_j, 0.0) for two_j in SU2_EXPECTED}
    worst = _worst(abs(got[two_j] - expected) for two_j, expected in SU2_EXPECTED.items())
    detail_coeffs = {
        f"J={two_j // 2}": [float(np.real(v)), float(np.imag(v))] for two_j, v in got.items()
    }
    stray = _worst(
        [abs(v) for c, v in result.pruned]
        + [abs(v) for c, v in result.coefficients if c.irrep.row[0] not in SU2_EXPECTED]
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


def _two_j(irrep: SUIrrepLabel, i: int) -> int:
    """Twice the su(2) angular momentum of basis vector i: the spread of
    its two-entry pattern row (:func:`gt_array` columns -3 and -2)."""
    top, bottom = gt_array(irrep)[i, -3:-1].tolist()
    return top - bottom


def plethysm_su3_suite(
    samples: int = 60, seed: int = DEFAULT_SEED, tol: float = 1e-7
) -> list[VerificationReport]:
    problem = su3_sextic_permanent_problem()
    result = fit_decomposition(problem, samples=samples, seed=seed)
    fitted = {
        (cand.irrep.row, _two_j(cand.irrep, cand.r), _two_j(cand.irrep, cand.t)): val
        for cand, val in result.coefficients
    }
    missing = [key for key in SU3_EXPECTED if key not in fitted]
    worst = _worst(abs(fitted[key] - val) for key, val in SU3_EXPECTED.items() if key in fitted)
    extra = {str(k): abs(v) for k, v in fitted.items() if k not in SU3_EXPECTED}
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
