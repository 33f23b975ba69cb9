"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a documented precondition (wrong size, invalid label, ...)."""


class ResourceLimitError(RuntimeError):
    """A request exceeds a configured cap: ``sunrep.ENTRY_CAP`` (entries of
    an array), ``linalgimm.IMMANANT_CAP`` and ``RYSER_CAP`` (matrix side of
    a character sum or a Ryser permanent), or ``dualspace.TENSOR_SIZE_CAP``
    (states of a tensor power)."""


class RankDeficiencyError(RuntimeError):
    """Candidate basis functions are numerically dependent; a least-squares fit is ill posed."""


class MatrixParseError(ValueError):
    """A matrix file could not be read or decoded."""
