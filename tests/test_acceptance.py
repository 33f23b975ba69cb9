"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines while the suite executes.  Every tolerance is pinned here, not
configurable.
"""

import math
import time
from itertools import combinations

import numpy as np

from immdfun.dualspace import immanant_via_duality, state_weight
from immdfun.linalgimm import (
    SubmatrixSelector,
    UnitaryElement,
    determinant,
    haar_random_unitary,
    immanant,
    permanent_ryser,
    su2_euler,
    submatrix,
)
from immdfun.symgroup import (
    Partition,
    all_permutations,
    character,
    class_size,
    partitions_of,
    young_orthogonal,
)
from immdfun.sunrep import (
    SUIrrepLabel,
    dim_weyl,
    generator_matrix,
    gt_basis,
    lift,
    weight_subspace,
)
from immdfun.verification import (
    SU2_EXPECTED,
    conjecture_scan,
    corollary4_suite,
    kostant_suite,
    plethysm_su2_suite,
    plethysm_su3_suite,
    verify_littlewood,
)

P = Partition
SEED = 1905


def report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_su2_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, 3)
        u = su2_euler(alpha, beta, gamma)
        worst = max(worst, abs(immanant(P(2), u.matrix) - math.cos(beta)))
        worst = max(worst, abs(immanant(P(1, 1), u.matrix) - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"SU(2) closed forms over 50 Euler triples: residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_kostant_trace():
    t0 = time.time()
    reports = kostant_suite(m_values=(2, 3, 4), samples=25, seed=SEED, tol=1e-9)
    elapsed = time.time() - t0
    worst = max(r.residual for r in reports)
    ok = all(r.passed for r in reports) and worst < 1e-9 and elapsed < 30.0
    report(
        2,
        ok,
        f"Kostant trace identity, m=2..4, all partitions, 25 samples: "
        f"residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_su3_identities():
    irrep_per = SUIrrepLabel(3, (3, 0, 0))
    irrep_mixed = SUIrrepLabel(3, (2, 1, 0))
    per_states = weight_subspace(irrep_per, (1, 1, 1))
    mixed_states = weight_subspace(irrep_mixed, (1, 1, 1))
    assert len(per_states) == 1 and len(mixed_states) == 2
    worst = 0.0
    for i in range(25):
        u = haar_random_unitary(3, SEED + i)
        lift_per = lift(irrep_per, u)
        lift_mixed = lift(irrep_mixed, u)
        per_d = lift_per.entry(per_states[0], per_states[0])
        mixed_d = sum(lift_mixed.entry(t, t) for t in mixed_states)
        worst = max(worst, abs(permanent_ryser(u.matrix) - per_d))
        worst = max(worst, abs(immanant(P(2, 1), u.matrix) - mixed_d))
        worst = max(worst, abs(determinant(u.matrix) - 1.0))
    ok = worst < 1e-10
    report(3, ok, f"SU(3) permanent/mixed/determinant identities, 25 samples: residual {worst:.2e}")


def test_criterion_4_corollary4_principal_submatrices():
    t0 = time.time()
    reports = corollary4_suite(m_values=(4, 5), sizes=(2, 3, 4), samples=10, seed=SEED, tol=1e-9)
    elapsed = time.time() - t0
    worst = max(r.residual for r in reports)
    target = next(
        r for r in reports if r.m == 5 and r.selector_rows == (1, 2, 4) and r.partition == (2, 1)
    )
    weight_ok = state_weight(5, (1, 2, 4)).cartan == (0, 1, -1, 1)
    ok = (
        all(r.passed for r in reports)
        and worst < 1e-9
        and weight_ok
        and target is not None
        and elapsed < 300.0
    )
    report(
        4,
        ok,
        f"principal submatrix immanants, m=4,5, sizes 2-4, all partitions "
        f"({len(reports)} selector/partition pairs): residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_littlewood_relation():
    worst = 0.0
    for i in range(100):
        u = haar_random_unitary(4, SEED + i)
        rep = verify_littlewood(u, tol=1e-9)
        worst = max(worst, rep.residual)
    ok = worst < 1e-9
    report(
        5,
        ok,
        f"coaxial product identity, 100 samples, immanant and D-function forms: "
        f"residual {worst:.2e}",
    )


def test_criterion_6_conjecture_scan():
    su4 = conjecture_scan(4, P(2, 1), entry_tol=1e-8, check_samples=25, seed=SEED)
    ok4 = len(su4) == 16 and all(
        r.details["unit_entries"] == 2
        and r.details["zero_entries"] == 2
        and not r.details["violations"]
        for r in su4
    )
    su5_21 = conjecture_scan(
        5, P(2, 1), selectors=[((2, 3, 5), (1, 3, 4))], entry_tol=1e-8, check_samples=25, seed=SEED
    )[0]
    su5_31 = conjecture_scan(
        5,
        P(3, 1),
        selectors=[((1, 3, 4, 5), (1, 2, 3, 5))],
        entry_tol=1e-8,
        check_samples=25,
        seed=SEED,
    )[0]
    ok5 = su5_21.details["unit_entries"] == 2 and su5_31.details["unit_entries"] == 3
    ok5 = ok5 and not su5_21.details["violations"] and not su5_31.details["violations"]
    recon = max(r.residual for r in su4 + [su5_21, su5_31])
    ok = ok4 and ok5 and recon < 1e-9
    report(
        6,
        ok,
        "generic-submatrix unit-coefficient evidence: SU(4) {2,1} all 16 pairs -> 2 units; "
        "SU(5) {2,1}/(235)(134) -> 2 units; SU(5) {3,1}/(1345)(1235) -> 3 units "
        f"(scanned set only; reconstruction residual {recon:.2e})",
    )


def test_criterion_7_plethysm_su2():
    reports = plethysm_su2_suite(samples=60, seed=SEED)
    rep = reports[0]
    coeffs = rep.details["coefficients"]
    expected = {f"J={tj // 2}": float(v) for tj, v in SU2_EXPECTED.items()}
    worst = max(abs(coeffs[k][0] - expected[k]) for k in expected)
    ok = rep.passed and worst < 1e-8 and rep.details["stray_magnitude"] < 1e-9
    report(
        7,
        ok,
        f"spin-3/2 square immanant fit: c_4=26/35, c_2=6/7, c_0=2/5 within {worst:.2e}; "
        f"strays {rep.details['stray_magnitude']:.1e}; diagonal sum 2",
    )


def test_criterion_8_plethysm_su3():
    t0 = time.time()
    reports = plethysm_su3_suite(samples=60, seed=SEED)
    elapsed = time.time() - t0
    rep = reports[0]
    ok = rep.passed and rep.residual < 1e-7 and elapsed < 120.0
    report(
        8,
        ok,
        f"SU(3) two-box permanent fit: all 17 coefficients match exact table "
        f"within {rep.residual:.2e} (off-diagonal surds included), diagonal sum 1, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_oracle_equivalence():
    worst = 0.0

    def check(m, p, k, q, u):
        nonlocal worst
        a = immanant_via_duality(m, p, k, q, u)
        b = immanant(p, submatrix(u.matrix, SubmatrixSelector(k, q)))
        worst = max(worst, abs(a - b))

    # criterion 2 configurations: full principal, m = 2..4, all partitions
    for m in (2, 3, 4):
        full = tuple(range(1, m + 1))
        for p in partitions_of(m):
            for i in range(25):
                check(m, p, full, full, haar_random_unitary(m, SEED + i))

    # criterion 4 configurations: every principal selector, m = 4, 5
    for m in (4, 5):
        samples = [haar_random_unitary(m, SEED + i) for i in range(10)]
        for size in (2, 3, 4):
            if size >= m:
                continue
            for p in partitions_of(size):
                for keep in combinations(range(1, m + 1), size):
                    for u in samples:
                        check(m, p, keep, keep, u)

    # criterion 5 configurations: the coaxial pairs and both full immanants
    for i in range(10):
        u = haar_random_unitary(4, SEED + i)
        for keep3 in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
            check(4, P(3), keep3, keep3, u)
        check(4, P(3, 1), (1, 2, 3, 4), (1, 2, 3, 4), u)
        check(4, P(4), (1, 2, 3, 4), (1, 2, 3, 4), u)

    # criterion 6 configurations: the scanned non-principal selector pairs
    su4_sets = list(combinations(range(1, 5), 3))
    for i in range(10):
        u4 = haar_random_unitary(4, SEED + i)
        for k in su4_sets:
            for q in su4_sets:
                check(4, P(2, 1), k, q, u4)
        u5 = haar_random_unitary(5, SEED + i)
        check(5, P(2, 1), (2, 3, 5), (1, 3, 4), u5)
        check(5, P(3, 1), (1, 3, 4, 5), (1, 2, 3, 5), u5)

    ok = worst < 1e-10
    report(
        9,
        ok,
        f"tensor-power duality route agrees with character-sum immanants across "
        f"criteria 2-6 configurations: residual {worst:.2e}",
    )


def test_criterion_10_structural_suites():
    failures = []

    # character orthogonality, n <= 6
    for n in range(2, 7):
        parts = partitions_of(n)
        for a in parts:
            for b in parts:
                total = sum(class_size(c) * character(a, c) * character(b, c) for c in parts)
                if total != (math.factorial(n) if a == b else 0):
                    failures.append(f"orthogonality {a} {b}")

    # orthogonal-form homomorphism
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        perms = all_permutations(n)
        s1, s2 = perms[rng.integers(len(perms))], perms[rng.integers(len(perms))]
        for p in partitions_of(n):
            lhs = young_orthogonal(p, s1.compose(s2)).entries
            rhs = young_orthogonal(p, s1).entries @ young_orthogonal(p, s2).entries
            if np.abs(lhs - rhs).max() >= 1e-12:
                failures.append(f"homomorphism {p}")

    # u(m) commutators up to m = 5
    for row in [(2, 0), (2, 1, 0), (2, 1, 1, 0), (1, 1, 0, 0, 0)]:
        ir = SUIrrepLabel(len(row), row)
        m = ir.m
        gens = {
            (i, j): generator_matrix(ir, i, j)
            for i in range(1, m + 1)
            for j in range(1, m + 1)
        }
        for (i, j), a in gens.items():
            for (k, l), b in gens.items():
                expected = np.zeros_like(a)
                if j == k:
                    expected = expected + gens[(i, l)]
                if l == i:
                    expected = expected - gens[(k, j)]
                if np.abs(a @ b - b @ a - expected).max() >= 1e-12:
                    failures.append(f"commutator {row} {(i, j, k, l)}")

    # lift homomorphism and unitarity
    for row in [(2, 0), (2, 1, 0), (2, 1, 1, 0)]:
        ir = SUIrrepLabel(len(row), row)
        m = ir.m
        d = dim_weyl(ir)
        for i in range(50):
            u1, u2 = haar_random_unitary(m, SEED + i), haar_random_unitary(m, 7000 + i)
            lifted = lift(ir, u1)
            if np.abs(lifted.matrix.conj().T @ lifted.matrix - np.eye(d)).max() >= 1e-10:
                failures.append(f"unitarity {row}")
            prod = UnitaryElement.from_matrix(u1.matrix @ u2.matrix, tol=1e-9)
            hom = lift(ir, prod).matrix - lifted.matrix @ lift(ir, u2).matrix
            if np.abs(hom).max() >= 1e-9:
                failures.append(f"lift homomorphism {row}")

    # pattern counts against the dimension formula
    for row in [(2, 0), (3, 1, 0), (2, 1, 1, 0), (2, 2, 0, 0, 0), (12, 0, 0)]:
        ir = SUIrrepLabel(len(row), row)
        if len(gt_basis(ir)) != dim_weyl(ir):
            failures.append(f"dimension {row}")

    ok = not failures
    report(
        10,
        ok,
        "structural suites (character orthogonality n<=6, orthogonal-form "
        "homomorphism, u(m) commutators m<=5, lift homomorphism/unitarity, "
        f"pattern counts): {len(failures)} failures" + (f" {failures[:3]}" if failures else ""),
    )
