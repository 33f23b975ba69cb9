"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a documented precondition (wrong size, invalid label, ...)."""


class ResourceLimitError(RuntimeError):
    """A request exceeds a configured cap (factorial sum size, irrep dimension, tensor size)."""


class RankDeficiencyError(RuntimeError):
    """Candidate basis functions are numerically dependent; a least-squares fit is ill posed."""


class MatrixParseError(ValueError):
    """A matrix file could not be read or decoded."""
