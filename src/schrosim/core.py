"""Dense complex linear algebra shared by the whole package.

Matrices and vectors are plain ``numpy`` arrays of ``complex128``; the
helpers here validate them, build the augmented matrix C of an affine
iteration, split the drift C - I into Hermitian parts, and find the
eigenvalues, steady mode and gap of a matrix with a dense eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def real_if_exact(m: np.ndarray) -> np.ndarray:
    """M, or its real part when the imaginary part is exactly zero, so that
    a real matrix stored as complex goes to the real LAPACK driver."""
    return m if m.imag.any() else m.real


def require_time(t) -> float:
    """An evolution time as a float, rejecting a negative or non-finite one."""
    t = float(t)
    if not 0.0 <= t < np.inf:  # NaN fails too
        raise InvalidInputError(f"t must be finite and nonnegative, got {t}")
    return t


def require_dense_size(n: int) -> None:
    """Reject a dimension too large for the dense eigensolvers."""
    if n > MAX_DENSE_DIM:
        raise InvalidInputError(
            f"dimension {n} exceeds dense eigensolve limit {MAX_DENSE_DIM}"
        )


def hermiticity_defect(m: np.ndarray) -> float:
    """Entrywise max norm of M - M†."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class DriftSplit:
    """Hermitian decomposition of the drift: C - I = C1h + i·C2h with
    C1h = (C+C†)/2 - I and C2h = (C−C†)/(2i), both Hermitian, and the one
    eigendecomposition of C1h (``eigh``) that every reader of C1h's
    spectrum shares."""

    C1h: np.ndarray
    C2h: np.ndarray

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """C1h = W·diag(w)·W† as (w, W), w ascending, both read-only, in real
        arithmetic when C1h is real: the split's one decomposition of C1h.
        Its eigenvalues serve the kink speed, the half-width, the affine
        scale and the polynomial's fold and interval, and W is the
        polynomial's basis; on a Hermitian C (C2h = 0) W diagonalises every
        mode's generator η·(-C1h), so it also serves the overlaps and the
        phase readout. C1h must not be changed once it has run."""
        try:
            w, W = np.linalg.eigh(real_if_exact(self.C1h))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition of C1h failed: {exc}") from exc
        w.flags.writeable = W.flags.writeable = False
        return w, W


def augment(G, g) -> np.ndarray:
    """The (d+1)×(d+1) matrix C embedding the affine iteration y ↦ Gy + g
    as x ↦ Cx: top-left block G, top-right column g, last row (0, ..., 0, 1)."""
    G = require_square(as_matrix(G), "G")
    g = as_vector(g)
    d = G.shape[0]
    if g.shape[0] != d:
        raise DimensionError(f"g has length {g.shape[0]}, expected {d}")
    C = np.zeros((d + 1, d + 1), dtype=complex)
    C[:d, :d] = G
    C[:d, d] = g
    C[d, d] = 1.0
    return C


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
    """Decompose C - I = C1h + i·C2h. Both parts are exactly Hermitian,
    not only to rounding, because entry (j, i) of each is computed as the
    exact conjugate of entry (i, j): IEEE addition commutes and rounds
    symmetrically, and halving and dividing by 2j treat both alike."""
    C = require_square(as_matrix(C), "C")
    Ch = C.conj().T
    C1h = (C + Ch) / 2 - np.eye(C.shape[0])
    return DriftSplit(C1h=C1h, C2h=(C - Ch) / 2j)


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


def spectrum(
    M, steady_eigenvalue_hint: complex | None = None
) -> tuple[np.ndarray, int, float]:
    """Dense eigenvalues of M (complex, in LAPACK order), with the index of
    the steady eigenvalue and the gap from it, as ``steady_mode`` picks
    them. A real M (zero imaginary part) is solved in real arithmetic. It
    runs on numpy's LAPACK, as ``DriftSplit.eigh`` does, so a ``diagnose``
    wakes only numpy's thread pool."""
    M = require_square(as_matrix(M), "M")
    require_dense_size(M.shape[0])
    try:
        eigvals = np.linalg.eigvals(real_if_exact(M))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc
    eigvals = eigvals.astype(complex, copy=False)
    return (eigvals, *steady_mode(eigvals, steady_eigenvalue_hint))
