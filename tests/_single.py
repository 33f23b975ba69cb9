"""One-element forms for tests: each is the one-slice call of its stacked form."""

from immdfun.dualspace import immanant_via_duality_stack
from immdfun.linalgimm import UnitaryElement, as_square, haar_random_unitaries
from immdfun.linalgimm import immanant_batch, permanent_ryser_batch
from immdfun.sunrep import lift_batch


def lift(irrep, element, cols=None):
    return lift_batch([irrep], [element], [cols])[0][0]


def immanant(p, mat):
    return complex(immanant_batch(p, as_square(mat)[None])[0])


def permanent_ryser(mat):
    return complex(permanent_ryser_batch(as_square(mat)[None])[0])


def haar_random_unitary(m, seed):
    return haar_random_unitaries(m, [seed])[0]


def from_matrix(mat, tol=1e-10):
    return UnitaryElement.from_matrices(as_square(mat)[None], tol)[0]


def immanant_via_duality(m, p, k, q, element):
    return complex(immanant_via_duality_stack(m, p, [(k, q)], as_square(element)[None])[0, 0])
