"""Dense complex linear algebra shared by the whole package.

Matrices and vectors are plain ``numpy`` arrays of ``complex128``; the
helpers here validate them, build the augmented block matrix for affine
iterations, split a drift matrix into Hermitian/skew parts, and compute
spectral diagnostics with a dense eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionError,
    InvalidInputError,
    NumericalError,
)

HERMITICITY_TOL = 1e-12
SPARSITY_TOL = 1e-12
MAX_DENSE_DIM = 512


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def as_vector(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("vector has non-finite entries")
    return m


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    return m


def require_dense_size(m: np.ndarray) -> np.ndarray:
    """Reject a matrix too large for the dense eigensolvers."""
    if m.shape[0] > MAX_DENSE_DIM:
        raise InvalidInputError(
            f"dimension {m.shape[0]} exceeds dense eigensolve limit {MAX_DENSE_DIM}"
        )
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    """Entrywise max norm of M - M†."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class AugmentedSystem:
    """Affine iteration y ↦ Gy + g embedded as the homogeneous x ↦ Cx.

    ``C`` is (d+1)×(d+1) with top-left block G, top-right column g and
    last row (0, ..., 0, 1).
    """

    G: np.ndarray
    g: np.ndarray
    C: np.ndarray

    @property
    def dim(self) -> int:
        return self.G.shape[0]


@dataclass(frozen=True)
class DriftSplit:
    """Hermitian/skew decomposition of the drift C - I, plus the
    observable split of C itself.

    C - I = C1h + i·C2h with C1h, C2h both Hermitian;
    C = obs_C1 + i·obs_C2 with obs_C1 = (C+C†)/2, obs_C2 = (C−C†)/(2i).
    """

    C1h: np.ndarray
    C2h: np.ndarray
    obs_C1: np.ndarray
    obs_C2: np.ndarray


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    spectral_radius: float
    gap: float
    diag_dominant: bool
    sparsity: int
    max_norm: float
    steady_eigenvalue: complex = field(default=0j)


def augment(G, g) -> AugmentedSystem:
    """Build the (d+1)×(d+1) block matrix C from G (d×d) and g (d)."""
    G = require_square(as_matrix(G), "G")
    g = as_vector(g)
    d = G.shape[0]
    if g.shape[0] != d:
        raise DimensionError(f"g has length {g.shape[0]}, expected {d}")
    C = np.zeros((d + 1, d + 1), dtype=complex)
    C[:d, :d] = G
    C[:d, d] = g
    C[d, d] = 1.0
    return AugmentedSystem(G=G, g=g, C=C)


def deaugment(x) -> np.ndarray:
    """Recover y from x = (y, c)ᵀ by dividing out the last entry."""
    x = as_vector(x)
    if x.shape[0] < 2:
        raise DimensionError("augmented vector must have length >= 2")
    last = x[-1]
    if abs(last) < 1e-12:
        raise DegenerateStateError(
            f"last entry has magnitude {abs(last):.3e}; cannot de-augment"
        )
    return x[:-1] / last


def split(C) -> DriftSplit:
    """Decompose C - I = C1h + i·C2h and C = obs_C1 + i·obs_C2."""
    C = require_square(as_matrix(C), "C")
    Ch = C.conj().T
    obs_C1 = (C + Ch) / 2
    obs_C2 = (C - Ch) / 2j
    C1h = obs_C1 - np.eye(C.shape[0])
    return DriftSplit(C1h=C1h, C2h=obs_C2, obs_C1=obs_C1, obs_C2=obs_C2)


def is_diagonally_dominant(A) -> bool:
    """Row-wise |A_ii| >= sum_{j != i} |A_ij| for every row."""
    A = require_square(as_matrix(A), "A")
    absA = np.abs(A)
    diag = np.diag(absA)
    off = absA.sum(axis=1) - diag
    return bool(np.all(diag >= off - 1e-15))


def sparsity_and_max_norm(M: np.ndarray) -> tuple[int, float]:
    """Most nonzeros in any row (s) and the largest entry modulus
    (‖M‖_max), the two matrix facts the query-cost scaling uses."""
    if not M.size:
        return 0, 0.0
    absM = np.abs(M)
    return int(np.max((absM > SPARSITY_TOL).sum(axis=1))), float(np.max(absM))


def steady_mode(eigvals: np.ndarray, hint: complex | None = None) -> tuple[int, float]:
    """Index of the steady eigenvalue (largest real part by default, or the
    eigenvalue closest to the hint) and the real-part gap from it to the
    nearest other eigenvalue (0 when there is no other)."""
    if hint is None:
        idx = int(np.argmax(eigvals.real))
    else:
        idx = int(np.argmin(np.abs(eigvals - hint)))
    others = np.delete(eigvals, idx)
    gap = float(np.min(np.abs(others.real - eigvals[idx].real))) if others.size else 0.0
    return idx, gap


def spectrum(M, steady_eigenvalue_hint: complex | None = None) -> SpectrumReport:
    """Dense eigensolve plus the diagnostics the stopping-time bounds need;
    the steady eigenvalue and gap follow ``steady_mode``."""
    M = require_dense_size(require_square(as_matrix(M), "M"))
    try:
        eigvals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc
    steady_idx, gap = steady_mode(eigvals, steady_eigenvalue_hint)
    sparsity, max_norm = sparsity_and_max_norm(M)
    return SpectrumReport(
        eigenvalues=eigvals,
        spectral_radius=float(np.max(np.abs(eigvals))),
        gap=gap,
        diag_dominant=is_diagonally_dominant(M),
        sparsity=sparsity,
        max_norm=max_norm,
        steady_eigenvalue=complex(eigvals[steady_idx]),
    )
