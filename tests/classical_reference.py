"""The classical Jacobi-type iteration and power method, run step by step.
The tests check the quantum solvers' stopping times and estimates against
them; no command or solver calls them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from schrosim import core
from schrosim.errors import InvalidInputError


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
