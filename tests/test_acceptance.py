"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines while the suite executes.  Every tolerance is pinned here, not
configurable.
"""

import math
import time
from itertools import combinations

import numpy as np

from immdfun.dualspace import state_weight
from immdfun.linalgimm import SubmatrixSelector, su2_euler, submatrix
from immdfun.symgroup import (
    Partition,
    character,
    partitions_of,
)
from immdfun.sunrep import SUIrrepLabel, dim_weyl, gt_array, weight_block
from immdfun.verification import (
    SU2_EXPECTED,
    conjecture_suite,
    corollary4_suite,
    kostant_suite,
    plethysm_su2_suite,
    _littlewood_reports,
    plethysm_su3_suite,
)

from _generators import all_permutations, class_size, generator_matrix, young_matrix
from _single import (
    from_matrix,
    haar_random_unitary,
    immanant,
    immanant_via_duality,
    lift,
    permanent_ryser,
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
        worst = max(worst, abs(immanant(P(2), u.matrices[0]) - math.cos(beta)))
        worst = max(worst, abs(immanant(P(1, 1), u.matrices[0]) - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"SU(2) closed forms over 50 Euler triples: residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_kostant_trace():
    t0 = time.time()
    reports = kostant_suite(m=None, samples=25, seed=SEED, tol=1e-9)
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
    per_states = weight_block(irrep_per, (1, 1, 1))
    mixed_states = weight_block(irrep_mixed, (1, 1, 1))
    assert len(per_states) == 1 and len(mixed_states) == 2
    per_pos = per_states[0]
    mixed_pos = list(mixed_states)
    worst = 0.0
    for i in range(25):
        u = haar_random_unitary(3, SEED + i)
        lift_per = lift(irrep_per, u)
        lift_mixed = lift(irrep_mixed, u)
        per_d = lift_per[per_pos, per_pos]
        mixed_d = sum(lift_mixed[t, t] for t in mixed_pos)
        worst = max(worst, abs(permanent_ryser(u.matrices[0]) - per_d))
        worst = max(worst, abs(immanant(P(2, 1), u.matrices[0]) - mixed_d))
        worst = max(worst, abs(np.linalg.det(u.matrices[0]) - 1.0))
    ok = worst < 1e-10
    report(3, ok, f"SU(3) permanent/mixed/determinant identities, 25 samples: residual {worst:.2e}")


def test_criterion_4_corollary4_principal_submatrices():
    t0 = time.time()
    reports = corollary4_suite(m=None, samples=10, seed=SEED, tol=1e-9, sizes=(2, 3, 4))
    elapsed = time.time() - t0
    worst = max(r.residual for r in reports)
    target = next(
        r for r in reports if r.m == 5 and r.selector_rows == (1, 2, 4) and r.partition == (2, 1)
    )
    occ = state_weight(5, (1, 2, 4))
    weight_ok = occ == (1, 1, 0, 1, 0) == tuple(target.details["weight"])
    weight_ok = weight_ok and tuple(-np.diff(occ)) == (0, 1, -1, 1)  # the Cartan weight
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
        rep = _littlewood_reports(u, [None], 1e-9)[0]
        worst = max(worst, rep.residual)
    ok = worst < 1e-9
    report(
        5,
        ok,
        f"coaxial product identity, 100 samples, immanant and D-function forms: "
        f"residual {worst:.2e}",
    )


def test_criterion_6_conjecture_scan():
    su4 = conjecture_suite(m=4, partition=P(2, 1), samples=25, seed=SEED, tol=1e-8)
    ok4 = len(su4) == 16 and all(
        r.details["unit_entries"] == 2
        and r.details["zero_entries"] == 2
        and not r.details["violations"]
        for r in su4
    )
    su5_21 = conjecture_suite(
        m=5, partition=P(2, 1), rows=(2, 3, 5), cols=(1, 3, 4), samples=25, seed=SEED, tol=1e-8
    )[0]
    su5_31 = conjecture_suite(
        m=5,
        partition=P(3, 1),
        rows=(1, 3, 4, 5),
        cols=(1, 2, 3, 5),
        samples=25,
        seed=SEED,
        tol=1e-8,
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
        a = immanant_via_duality(m, p, k, q, u.matrices[0])
        b = immanant(p, submatrix(u.matrices[0], SubmatrixSelector(k, q)))
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
            lhs = young_matrix(p, s1.compose(s2))
            rhs = young_matrix(p, s1) @ young_matrix(p, s2)
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
            if np.abs(lifted.conj().T @ lifted - np.eye(d)).max() >= 1e-10:
                failures.append(f"unitarity {row}")
            prod = from_matrix(u1.matrices[0] @ u2.matrices[0], tol=1e-9)
            hom = lift(ir, prod) - lifted @ lift(ir, u2)
            if np.abs(hom).max() >= 1e-9:
                failures.append(f"lift homomorphism {row}")

    # pattern counts against the dimension formula
    for row in [(2, 0), (3, 1, 0), (2, 1, 1, 0), (2, 2, 0, 0, 0), (12, 0, 0)]:
        ir = SUIrrepLabel(len(row), row)
        if len(gt_array(ir)) != dim_weyl(ir):
            failures.append(f"dimension {row}")

    ok = not failures
    report(
        10,
        ok,
        "structural suites (character orthogonality n<=6, orthogonal-form "
        "homomorphism, u(m) commutators m<=5, lift homomorphism/unitarity, "
        f"pattern counts): {len(failures)} failures" + (f" {failures[:3]}" if failures else ""),
    )
