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
    haar_random_unitaries,
    immanant_batch,
    permanent_ryser_batch,
    su2_euler,
    submatrix,
)
from .symgroup import (
    Partition,
    character,
    dim_sym,
    partitions_of,
)
from .sunrep import (
    SUIrrepLabel,
    dim_weyl,
    gt_array,
    lift_batch,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "MatrixParseError",
    "Partition",
    "RankDeficiencyError",
    "ResourceLimitError",
    "SUIrrepLabel",
    "SubmatrixSelector",
    "UnitaryElement",
    "character",
    "dim_sym",
    "dim_weyl",
    "gt_array",
    "haar_random_unitaries",
    "immanant_batch",
    "lift_batch",
    "partitions_of",
    "permanent_ryser_batch",
    "su2_euler",
    "submatrix",
]
