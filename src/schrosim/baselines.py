"""Classical oracles: the direct solve and the exact propagator, the
ground truth the ``solve`` and ``evolve`` reports are checked against.
The plain iteration and power method the tests check against live in
``tests/classical_reference.py``."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import core
from .errors import InvalidInputError, SingularMatrixError


def direct_solve(A, b) -> np.ndarray:
    """Dense factorisation solve of Ay = b (numpy's LAPACK, the runtime of
    the Jacobi solve's polynomial kernel; the inputs are already checked)."""
    A = core.require_square(core.as_matrix(A), "A")
    b = core.as_vector(b)
    if A.shape[0] != b.shape[0]:
        raise InvalidInputError("A and b dimensions differ")
    try:
        y = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"A is singular: {exc}") from exc
    if not np.all(np.isfinite(y)):
        raise SingularMatrixError("solve produced non-finite entries")
    return y


def exact_propagator(C, x0, t: float) -> np.ndarray:
    """exp((C - I)t) x0 via the dense scaling-and-squaring exponential."""
    C = core.require_square(core.as_matrix(C), "C")
    x0 = core.as_vector(x0)
    t = core.require_time(t)
    return scipy.linalg.expm((C - np.eye(C.shape[0])) * t) @ x0
