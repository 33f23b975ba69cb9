"""The tensor-power action U (x) ... (x) U on m^N amplitudes, for the tests.

The duality route reads one amplitude of <Phi_k| U^(x N) from the bra side,
so only the tests evolve a whole state: the chain-vector covariance checks
and the mode-permutation check compare against this.  The chain vectors of
every pattern, which no ``src`` caller reads at once, are gathered here.
"""

import numpy as np

from immdfun.dualspace import _chain_vectors
from immdfun.errors import DomainError
from immdfun.linalgimm import as_square
from immdfun.sunrep import SUIrrepLabel, occupations, weight_block


def apply_tensor_power(umat, amps: np.ndarray, factors: int) -> np.ndarray:
    """Apply U (x) U (x) ... (x) U, ``factors`` times, without forming the
    m^N x m^N matrix."""
    umat = as_square(umat)
    m = umat.shape[0]
    if np.shape(amps) != (m**factors,):
        raise DomainError(f"amplitude vector has shape {np.shape(amps)}, expected ({m ** factors},)")
    tensor = np.reshape(amps, (m,) * factors)
    for axis in range(factors):
        tensor = np.moveaxis(np.tensordot(umat, tensor, axes=(1, axis)), 0, axis)
    return tensor.reshape(-1)


def pattern_chain_vectors(m: int, factors: int, row) -> tuple:
    """The (block size, copies) chain vectors of every pattern of the u(m)
    irrep ``row`` in (C^m)^(x N), in pattern order, read at all its weights
    through ``dualspace._chain_vectors``; empty if the irrep has no copies."""
    label = SUIrrepLabel(m, row)
    occ = [tuple(o) for o in occupations(label).tolist()]
    blocks = _chain_vectors(m, factors, tuple(row), list(dict.fromkeys(occ)))
    if not blocks:
        return ()
    return tuple(
        blocks[o][np.searchsorted(weight_block(label, o), i)] for i, o in enumerate(occ)
    )
