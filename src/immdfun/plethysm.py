"""Immanants of non-fundamental representation matrices.

An immanant of a lifted irrep matrix is still a finite combination of group
functions; the combination is recovered by least-squares regression over
Haar-sampled group elements.  Candidate group functions are restricted by
torus covariance (only pairs connecting the correct left/right weights can
contribute) and then pruned by a preliminary fit, so the final solve runs
over the empirically supported set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import math

import numpy as np

from .errors import DomainError, RankDeficiencyError
from .linalgimm import DEFAULT_SEED, haar_random_unitary, immanant, permanent_ryser
from .symgroup import Partition
from .sunrep import (
    GTPattern,
    SUIrrepLabel,
    chain_label,
    dim_weyl,
    lift,
    lift_columns,
    occupations,
    pattern_index,
    weight_subspace,
)


@dataclass(frozen=True)
class DCandidate:
    """One basis function D^{(irrep)}_{rt} in a decomposition ansatz."""

    irrep: SUIrrepLabel
    r: GTPattern
    t: GTPattern

    @property
    def diagonal(self) -> bool:
        return self.r == self.t

    def tag(self) -> str:
        return f"{tuple(self.irrep.row)}:{chain_label(self.r)};{chain_label(self.t)}"


@dataclass
class PlethysmProblem:
    """Decompose Imm^{partition} of the lifted ``base_irrep`` matrix."""

    base_irrep: SUIrrepLabel
    partition: Partition
    candidates: list[DCandidate]

    def __post_init__(self):
        if self.partition.n != dim_weyl(self.base_irrep):
            raise DomainError(
                f"partition {self.partition} must be a partition of the base matrix "
                f"side {dim_weyl(self.base_irrep)}"
            )


@dataclass
class DecompositionResult:
    coefficients: list[tuple[DCandidate, complex]]
    residual: float
    sample_count: int
    gram_condition: float
    pruned: list[tuple[DCandidate, complex]] = field(default_factory=list)

    def diagonal_sum(self) -> complex:
        return sum(v for c, v in self.coefficients if c.diagonal)

    def to_records(self) -> list[dict]:
        tagged = [(c, v, False) for c, v in self.coefficients]
        tagged += [(c, v, True) for c, v in self.pruned]
        return [
            {
                "irrep": list(cand.irrep.row),
                "r": cand.r.as_lists(),
                "t": cand.t.as_lists(),
                "tag": cand.tag(),
                "value": [float(val.real), float(val.imag)],
                "rational": recognize_value(val.real)
                if not pruned and abs(val.imag) < 1e-9
                else None,
                "pruned": pruned,
            }
            for cand, val, pruned in tagged
        ]


def _diagonal_product_weight(base: SUIrrepLabel) -> tuple[int, ...]:
    """Occupation of the product-over-all-basis-states tensor state."""
    return tuple(sum(mode) for mode in zip(*occupations(base)))


def torus_candidates(base: SUIrrepLabel, irreps: list[SUIrrepLabel]) -> list[DCandidate]:
    """All D^{(irrep)}_{rt} whose left/right Cartan weights match the target.

    The immanant of a lifted matrix transforms under the maximal torus with
    the weight of the diagonal product state on both sides, so only pattern
    pairs at that Cartan weight can carry nonzero coefficients.
    """
    target = _diagonal_product_weight(base)
    cands = []
    for ir in irreps:
        pats = weight_subspace(ir, target)
        for r in pats:
            for t in pats:
                cands.append(DCandidate(ir, r, t))
    return cands


def su2_power_problem(two_j: int, partition: Partition) -> PlethysmProblem:
    """Imm^{partition} of the (2J+1)-dimensional SU(2) irrep matrix.

    Candidates are D^{J'}_{00} for every integer J' up to N * J.
    """
    base = SUIrrepLabel(2, (two_j, 0))
    n = partition.n
    top = n * two_j // 2
    irreps = [SUIrrepLabel(2, (2 * jp, 0)) for jp in range(top + 1)]
    cands = torus_candidates(base, irreps)
    return PlethysmProblem(base, partition, cands)


# SU(3) irreps occurring in the symmetric sixth power of the two-box irrep,
# as u(3) rows inside the 12-box tensor space (round labels: (12,0), (8,2),
# (4,4), (6,0), (0,6), (0,0)).
SU3_SEXTIC_ROWS = (
    (12, 0, 0),
    (10, 2, 0),
    (8, 4, 0),
    (6, 0, 0),
    (6, 6, 0),
    (0, 0, 0),
)


def su3_sextic_permanent_problem() -> PlethysmProblem:
    """Permanent of the 6x6 matrix carrying the SU(3) two-box irrep."""
    base = SUIrrepLabel(3, (2, 0, 0))
    irreps = [SUIrrepLabel(3, row) for row in SU3_SEXTIC_ROWS]
    cands = torus_candidates(base, irreps)
    return PlethysmProblem(base, Partition(6), cands)


def _target_value(problem: PlethysmProblem, lifted: np.ndarray) -> complex:
    p = problem.partition
    if len(p) == 1:  # permanent: Ryser is exact and much faster than the n! sum
        return permanent_ryser(lifted)
    return immanant(p, lifted)


PRUNE_BELOW = 1e-9  # preliminary coefficients smaller than this are dropped
MAX_CONDITION = 1e8  # a design matrix worse conditioned than this is rank deficient


def fit_decomposition(
    problem: PlethysmProblem, samples: int = 60, seed: int = DEFAULT_SEED
) -> DecompositionResult:
    """Least-squares coefficients of the immanant over the candidate set.

    A preliminary fit over all candidates (with at least 3x as many samples
    as unknowns) locates the support; candidates below ``PRUNE_BELOW`` are
    dropped and the survivors are refit at the requested sample count.
    Deterministic for a fixed seed.
    """
    cands = problem.candidates
    if not cands:
        raise DomainError("no candidates to fit")
    m = problem.base_irrep.m
    prelim_samples = max(samples, 3 * len(cands))

    # One row per Haar sample.  Each candidate irrep lifts only the columns
    # t its candidates read, and each sample's lifts are dropped once read.
    irreps = sorted({c.irrep for c in cands}, key=lambda ir: ir.row)
    cols = {
        ir: sorted({pattern_index(ir)[c.t] for c in cands if c.irrep == ir}) for ir in irreps
    }
    where = [
        (c.irrep, pattern_index(c.irrep)[c.r], cols[c.irrep].index(pattern_index(c.irrep)[c.t]))
        for c in cands
    ]
    X0 = np.empty((prelim_samples, len(cands)), dtype=np.complex128)
    y0 = np.empty(prelim_samples, dtype=np.complex128)
    for i in range(prelim_samples):
        omega = haar_random_unitary(m, seed + i)
        y0[i] = _target_value(problem, lift(problem.base_irrep, omega).matrix)
        lifts = {ir: lift_columns(ir, omega, cols[ir]) for ir in irreps}
        X0[i] = [lifts[ir][r, t] for ir, r, t in where]

    def solve(X, y, subset):
        svals = np.linalg.svd(X, compute_uv=False)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
        if cond > MAX_CONDITION:
            gram = np.abs(X.conj().T @ X)
            norms = np.sqrt(np.diagonal(gram).real)
            overlap = gram / np.outer(norms, norms)
            np.fill_diagonal(overlap, 0.0)
            a, b = np.unravel_index(np.argmax(overlap), overlap.shape)
            raise RankDeficiencyError(
                f"candidate functions are near-dependent (condition {cond:.3e}); "
                f"worst pair: {subset[a].tag()} ~ {subset[b].tag()}"
            )
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        residual = float(np.abs(X @ coef - y).max())
        return coef, residual, cond

    coef0, _, _ = solve(X0, y0, cands)
    keep = [c for c, v in enumerate(coef0) if abs(v) >= PRUNE_BELOW]
    survivors = [cands[c] for c in keep]
    pruned = [(c, complex(v)) for c, v in zip(cands, coef0) if abs(v) < PRUNE_BELOW]
    if not survivors:
        return DecompositionResult([], float(np.abs(y0).max()), prelim_samples, 1.0, pruned)
    if samples < 3 * len(survivors):
        raise DomainError(
            f"{samples} samples < 3x the {len(survivors)} supported candidates"
        )
    # C order, as a freshly filled design would be: the solve's bits depend on it.
    X1 = np.ascontiguousarray(X0[:samples, keep])
    coef1, residual, cond = solve(X1, y0[:samples], survivors)
    return DecompositionResult(
        coefficients=[(c, complex(v)) for c, v in zip(survivors, coef1)],
        residual=residual,
        sample_count=samples,
        gram_condition=cond,
        pruned=pruned,
    )


def _square_split(n: int) -> tuple[int, int]:
    """n = a^2 * c with c squarefree (trial division; n stays small here)."""
    a, c, d = 1, 1, 2
    while d * d <= n:
        power = 0
        while n % d == 0:
            n //= d
            power += 1
        a *= d ** (power // 2)
        if power % 2:
            c *= d
        d += 1
    return a, c * n


RECOGNIZE_TOL = 1e-7
MAX_DENOMINATOR = 1000


def recognize_value(x: float) -> str | None:
    """Match a float against small rationals p/q or surds (a/b)*sqrt(c/d)
    to within ``RECOGNIZE_TOL``, with denominators up to ``MAX_DENOMINATOR``.

    A surd is accepted only when the squarefree parts c, d stay small, which
    keeps generic floats unmatched; unmatched values are reported as floats
    by the callers.
    """
    if x == 0.0:
        return "0"
    frac = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    if frac != 0 and abs(x - float(frac)) < RECOGNIZE_TOL:
        return str(frac)
    sq = Fraction(x * x).limit_denominator(MAX_DENOMINATOR**4)
    if sq > 0:
        a, c = _square_split(sq.numerator)
        b, d = _square_split(sq.denominator)
        value = (a / b) * math.sqrt(c / d)
        small = max(c, d) <= MAX_DENOMINATOR and b <= MAX_DENOMINATOR**2
        if small and abs(abs(x) - value) < RECOGNIZE_TOL:
            sign = "-" if x < 0 else ""
            radicand = str(c) if d == 1 else f"{c}/{d}"
            if a == b:
                return f"{sign}sqrt({radicand})"
            return f"{sign}({a}/{b})*sqrt({radicand})"
    return None
