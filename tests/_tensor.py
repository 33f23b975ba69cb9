"""The tensor-power action U (x) ... (x) U on m^N amplitudes, for the tests.

The duality route reads one amplitude of <Phi_k| U^(x N) from the bra side,
so only the tests evolve a whole state: the chain-vector covariance checks
and the mode-permutation check compare against this.
"""

import numpy as np

from immdfun.errors import DomainError
from immdfun.linalgimm import as_square


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
