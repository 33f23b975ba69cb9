"""immdfun: immanants of unitary matrices and submatrices as sums of SU(m)
group functions, with tensor-power oracles and verification suites."""

from .errors import (
    DomainError,
    MatrixParseError,
    RankDeficiencyError,
    ResourceLimitError,
)
from .linalgimm import (
    SubmatrixSelector,
    UnitaryElement,
    determinant,
    haar_random_unitary,
    immanant,
    permanent_ryser,
    permutation_matrix,
    su2_euler,
    submatrix,
)
from .symgroup import (
    Partition,
    Permutation,
    all_permutations,
    character,
    class_size,
    dim_sym,
    partitions_of,
    young_orthogonal,
)
from .sunrep import (
    GTPattern,
    SUIrrepLabel,
    WeightVector,
    chain_label,
    dfunction,
    dim_weyl,
    gt_basis,
    lift,
    lift_batch,
    weight_of,
    weight_subspace,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "GTPattern",
    "MatrixParseError",
    "Partition",
    "Permutation",
    "RankDeficiencyError",
    "ResourceLimitError",
    "SUIrrepLabel",
    "SubmatrixSelector",
    "UnitaryElement",
    "WeightVector",
    "all_permutations",
    "chain_label",
    "character",
    "class_size",
    "determinant",
    "dfunction",
    "dim_sym",
    "dim_weyl",
    "gt_basis",
    "haar_random_unitary",
    "immanant",
    "lift",
    "lift_batch",
    "partitions_of",
    "permanent_ryser",
    "permutation_matrix",
    "su2_euler",
    "submatrix",
    "weight_of",
    "weight_subspace",
    "young_orthogonal",
]
