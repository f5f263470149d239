"""Classical oracles: direct solve, exact propagator, plain iteration and
power method. These are the ground truth every end-to-end result is
checked against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import core
from .errors import InvalidInputError, SingularMatrixError


@dataclass(frozen=True)
class IterationTrace:
    iterates: list
    step_deltas: list
    converged_at: int | None


def classical_iterate(C, x0, K: int, tol: float = 0.0) -> IterationTrace:
    """x_k = C^k x0 with per-step deltas ||x_{k+1} - x_k||."""
    C = core.require_square(core.as_matrix(C), "C")
    x0 = core.as_vector(x0)
    if K < 1:
        raise InvalidInputError(f"K must be >= 1, got {K}")
    iterates = [x0]
    deltas = []
    converged_at = None
    x = x0
    for k in range(1, K + 1):
        x_next = C @ x
        iterates.append(x_next)
        deltas.append(float(np.linalg.norm(x_next - x)))
        if converged_at is None and tol > 0 and deltas[-1] < tol:
            converged_at = k
        x = x_next
    return IterationTrace(iterates=iterates, step_deltas=deltas, converged_at=converged_at)


def classical_power(C, x0, K: int) -> tuple[complex, np.ndarray]:
    """Rayleigh estimate x_K† x_{K+1} / x_K† x_K and the unit iterate x_K.

    Each iterate is renormalised to dodge underflow (all eigenvalues may be
    below one); the Rayleigh quotient is invariant under that rescaling.
    """
    C = core.require_square(core.as_matrix(C), "C")
    x = core.as_vector(x0)
    if K < 1:
        raise InvalidInputError(f"K must be >= 1, got {K}")
    if np.linalg.norm(x) == 0.0:
        raise InvalidInputError("x0 must be nonzero")
    for _ in range(K):
        x = C @ x
        n = np.linalg.norm(x)
        if n == 0.0:
            raise InvalidInputError("iterate vanished; C annihilates x0")
        x = x / n
    x_next = C @ x
    est = complex(np.vdot(x, x_next) / np.vdot(x, x))
    return est, x / np.linalg.norm(x)


def direct_solve(A, b) -> np.ndarray:
    """Dense factorisation solve of Ay = b (scipy's LAPACK, the runtime of
    the Jacobi solve's per-mode kernel; the inputs are already checked)."""
    A = core.require_square(core.as_matrix(A), "A")
    b = core.as_vector(b)
    if A.shape[0] != b.shape[0]:
        raise InvalidInputError("A and b dimensions differ")
    try:
        y = scipy.linalg.solve(A, b, check_finite=False)
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
