"""Warped-phase spectral engine for linear drift systems.

The drift system dx/dt = (C - I)x is lifted to a transport equation in an
auxiliary coordinate p through the substitution v(t, p) = e^{-p} x(t), then
Fourier-transformed in p. Each Fourier mode η evolves under its own small
Hermitian generator -(η·C1h + C2h), so the whole evolution is a direct sum
of unitaries and preserves the global 2-norm exactly. x(t) is recovered by
undoing the transform and reading off the p > 0 region.

Fourier convention: the forward transform maps e^{-|p|} to 1/(π(1+η²)) in
the continuum limit, i.e. ṽ(η) = (1/2π) ∫ e^{+iηp} v(p) dp. The sign of
the exponent is the one under which per-mode evolution by exp(-it·H_η)
reproduces the exact propagator e^{(C-I)t}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np
from scipy.linalg import blas, lapack

from . import core
from .errors import (
    DegenerateRecoveryError,
    DimensionError,
    InvalidInputError,
    NumericalError,
)

NORM_PRESERVATION_TOL = 1e-10
DEFAULT_PSTAR = 1.0
MAX_DENSE_ASSEMBLY = 4096


@dataclass(frozen=True)
class Grid:
    """Uniform p-grid on [-L, L) with its Fourier modes.

    p_l = -L + l·(2L/N) for l = 0..N-1; η_k = πk/L for k = -N/2+1..N/2.
    The unit-spaced mode ladder is the special case L = π.
    """

    N: int
    L: float
    p: np.ndarray
    eta: np.ndarray
    mode_index: np.ndarray  # integer k for each η slot, -N/2+1..N/2

    @property
    def dp(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def deta(self) -> float:
        return np.pi / self.L


@dataclass
class WarpedState:
    """v(t, p) sampled on the grid; shape (d+1, N), column l ↔ p_l."""

    values: np.ndarray
    grid: Grid
    time: float = 0.0


@dataclass
class SpectralState:
    """ṽ(t, η) sampled on the grid; shape (d+1, N), column j ↔ η_{k_j}."""

    values: np.ndarray
    grid: Grid
    time: float = 0.0


@dataclass(frozen=True)
class GeneratorBlocks:
    """Per-mode Hermitian generators H_k = -(η_k·C1h + C2h) on ``grid``.

    ``split`` is the DriftSplit they come from. ``blocks`` is the dense
    (N, d+1, d+1) stack of every H_k, the reference representation built
    by ``generator_blocks``; ``evolve`` reads it only when ``split`` is
    None. ``propagate`` passes the split alone, so no stack is built.
    ``evolve`` picks its path from the split by exact tests: C2h == 0
    (Hermitian C) decomposes -C1h once; C1h.imag == 0 and C2h.real == 0
    (real C) reduces only the modes k = 0..N/2; any other split, or none,
    reduces every mode.
    """

    blocks: np.ndarray | None
    grid: Grid
    split: core.DriftSplit | None = None


@dataclass(frozen=True)
class RecoveredState:
    x: np.ndarray
    state: np.ndarray
    success_probability: float
    time: float


def make_grid(N: int, L: float) -> Grid:
    if N < 4 or N > 2**16 or N & (N - 1) != 0:
        raise InvalidInputError(f"N must be a power of two in [4, 65536], got {N}")
    if not (L > 0):
        raise InvalidInputError(f"L must be positive, got {L}")
    L = float(L)
    p = -L + (2.0 * L / N) * np.arange(N)
    k = np.arange(-N // 2 + 1, N // 2 + 1)
    return Grid(N=N, L=L, p=p, eta=np.pi * k / L, mode_index=k)


def default_domain_halfwidth(C1h: np.ndarray, t: float) -> float:
    """Half-width rule: transport speed is bounded by the largest Hermitian
    drift eigenvalue, so L = 4 + t·ρ keeps the p > 0 region clear of
    wrap-around while holding the boundary truncation e^{-L} small."""
    rho = float(np.max(np.abs(np.linalg.eigvalsh(C1h)))) if C1h.size else 0.0
    return max(float(np.pi), 4.0 + t * rho)


def initial_warped_state(x0, grid: Grid) -> WarpedState:
    """v(0, p) = e^{-|p|} x0, separable in the component and p indices."""
    x0 = core.as_vector(x0)
    if np.linalg.norm(x0) == 0.0:
        raise InvalidInputError("x0 must be nonzero")
    values = np.exp(-np.abs(grid.p))[None, :] * x0[:, None]
    return WarpedState(values=values, grid=grid, time=0.0)


def transform(state, direction: Literal["forward", "inverse"] = "forward"):
    """Discrete Fourier transform along the p index (or its exact inverse).

    Scaled so the forward transform of e^{-|p|} approaches 1/(π(1+η²));
    inverse(forward(w)) == w to machine precision.
    """
    grid = state.grid
    k = grid.mode_index
    m = k % grid.N
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    if direction == "forward":
        if not isinstance(state, WarpedState):
            raise DimensionError("forward transform expects a WarpedState")
        F = np.fft.ifft(state.values, axis=1) * grid.N
        vals = (grid.dp / (2.0 * np.pi)) * sign[None, :] * F[:, m]
        return SpectralState(values=vals, grid=grid, time=state.time)
    if direction == "inverse":
        if not isinstance(state, SpectralState):
            raise DimensionError("inverse transform expects a SpectralState")
        X = np.zeros_like(state.values)
        X[:, m] = state.values * sign[None, :]
        vals = grid.deta * np.fft.fft(X, axis=1)
        return WarpedState(values=vals, grid=grid, time=state.time)
    raise InvalidInputError(f"unknown direction {direction!r}")


def generator_blocks(ds: core.DriftSplit, grid: Grid) -> GeneratorBlocks:
    """H_k = -(η_k·C1h + C2h) for every grid mode; each block Hermitian.

    The dense (N, d+1, d+1) reference representation, for tests and small
    systems; ``propagate`` never builds it. The split may come from
    anywhere, so a C1h or C2h not Hermitian to HERMITICITY_TOL is rejected.
    """
    for name, mat in (("C1h", ds.C1h), ("C2h", ds.C2h)):
        defect = core.hermiticity_defect(mat)
        if defect > core.HERMITICITY_TOL:
            raise InvalidInputError(
                f"{name} is not Hermitian (defect {defect:.2e})"
            )
    blocks = -(grid.eta[:, None, None] * ds.C1h[None] + ds.C2h[None])
    return GeneratorBlocks(blocks=blocks, grid=grid, split=ds)


def assemble_Htot(C, grid: Grid) -> np.ndarray:
    """Dense -C⊗(D-iI)/2 - C†⊗(D+iI)/2 + I⊗D with D = diag(η_k).

    Component-major ordering |i⟩|k⟩; equals the direct sum of
    generator_blocks under the mode-major permutation. A dense reference
    representation for small systems; ``propagate`` never builds it.
    """
    C = core.require_square(core.as_matrix(C), "C")
    d1 = C.shape[0]
    if d1 * grid.N > MAX_DENSE_ASSEMBLY:
        raise InvalidInputError(
            f"dense assembly size {d1 * grid.N} exceeds {MAX_DENSE_ASSEMBLY};"
            " use generator_blocks"
        )
    D = np.diag(grid.eta.astype(complex))
    I_N = np.eye(grid.N, dtype=complex)
    I_d = np.eye(d1, dtype=complex)
    H = (
        -np.kron(C, (D - 1j * I_N) / 2)
        - np.kron(C.conj().T, (D + 1j * I_N) / 2)
        + np.kron(I_d, D)
    )
    return H


def _lapack(name: str, *args, **kwargs):
    """Call ``scipy.linalg.lapack.<name>`` and drop its trailing info,
    raising NumericalError when it is nonzero."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise NumericalError(f"LAPACK {name} failed (info {info})")
    return out


def _split_blocks(ds: core.DriftSplit, eta: np.ndarray):
    """H = -(η·C1h + C2h) for each η, one Fortran-ordered matrix at a time."""
    A = np.asfortranarray(-ds.C1h, dtype=complex)
    B = np.asfortranarray(-ds.C2h, dtype=complex)
    for e in eta:
        H = A * e
        H += B
        yield H


def _evolve_stack(blocks, X: np.ndarray, t: float) -> np.ndarray:
    """Y[m] = exp(-it·H_m)·X[m] for the m-th matrix of ``blocks`` (Hermitian,
    Fortran order, overwritten) and the (n, r) vectors X[m].

    zhetrd (lower) reduces H = Q·T·Q† with T real tridiagonal and dstevd
    gives T = Z·diag(w)·Zᵀ, so exp(-itH)·x = Q·Z·e^{-itw}·Zᵀ·Q†·x. No
    eigenvector of H is formed: Q stays as its reflectors, Q = diag(1, Q')
    with Q' in QR form below the subdiagonal, applied by zunmqr, and Z is
    applied by dgemm to the real view of the vectors. The loop calls only
    scipy's LAPACK and BLAS, so one BLAS thread pool serves it.
    """
    M, n, r = X.shape
    Y = np.empty((M, n, r), dtype=complex)
    if n == 1:
        for m, H in enumerate(blocks):
            Y[m] = np.exp(-1j * t * H[0, 0].real) * X[m]
        return Y
    lwork = int(_lapack("zhetrd_lwork", n, lower=1)[0].real)
    for m, H in enumerate(blocks):
        c, d, e, tau = _lapack("zhetrd", H, lower=1, lwork=lwork, overwrite_a=1)
        w, Z = _lapack("dstevd", d, e)
        refl = np.asfortranarray(c[1:, :-1])
        x = np.array(X[m])  # C order: its real view is (n, 2r)
        x[1:] = _lapack("zunmqr", "L", "C", refl, tau, x[1:], r)[0]
        # dgemm sees the real view transposed, (2r, n): xᵀ·Z = (Zᵀ·x)ᵀ
        x = blas.dgemm(1.0, x.view(np.float64).T, Z).T.view(complex)
        x *= np.exp(-1j * t * w)[:, None]
        x = blas.dgemm(1.0, x.view(np.float64).T, Z, trans_b=1).T.view(complex)
        Y[m, 0] = x[0]
        Y[m, 1:] = _lapack("zunmqr", "L", "N", refl, tau, x[1:], r)[0]
    return Y


def evolve(s: SpectralState, gen: GeneratorBlocks, t: float) -> SpectralState:
    """Propagate each mode column by exp(-i·t·H_k). Exactly norm-preserving.

    The path is chosen from exact properties of ``gen.split``, with no
    tolerance:

    - Hermitian C (C2h exactly zero): H_k = η_k·(-C1h), so one
      eigendecomposition -C1h = W·diag(μ)·W† serves every mode and the
      evolution is two GEMMs, W·(e^{-itη_kμ_j} ∘ (W†·V)).
    - Real C (C1h with zero imaginary part, C2h with zero real part) on a
      grid whose mode ladder is symmetric (η_{-k} = -η_k bit for bit, as
      ``make_grid`` builds it): H_{-k} = -conj(H_k), so only the modes
      k = 0..N/2 are reduced, each applied to v_k and conj(v_{-k}); the
      k < 0 column is conj(exp(-itH_{|k|})·conj(v_k)). This holds for
      complex states too.
    - Otherwise every mode is reduced, its H_k built from the split, or
      taken from ``gen.blocks`` when there is no split.

    The last two run one kernel per mode (``_evolve_stack``): Householder
    tridiagonalisation and a real tridiagonal eigensolve, applied to the
    mode's vectors only. Memory is O(d² + N·d); no (N, d+1, d+1) stack is
    built. The Hermitian test runs first, so real symmetric C takes the
    one-matrix path.
    """
    if t < 0:
        raise InvalidInputError(f"t must be nonnegative, got {t}")
    ds, eta = gen.split, gen.grid.eta
    if ds is not None:
        modes, dim = eta.size, ds.C1h.shape[0]
    elif gen.blocks is not None:
        modes, dim = gen.blocks.shape[:2]
    else:
        raise InvalidInputError("generator has neither a split nor blocks")
    if s.values.shape[1] != modes:
        raise DimensionError("state and generator mode counts differ")
    if s.values.shape[0] != dim:
        raise DimensionError("state and generator block dimensions differ")
    vals = np.asarray(s.values, dtype=complex)
    N = eta.size
    h = N // 2 - 1  # slot of k = 0; slots h+1..N-1 hold k = 1..N/2
    if ds is not None and not ds.C2h.any():
        try:
            mu, W = np.linalg.eigh(-ds.C1h)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition of C1h failed: {exc}") from exc
        out = W @ ((W.conj().T @ vals) * np.exp(-1j * t * np.outer(mu, eta)))
    elif (
        ds is not None
        and not ds.C1h.imag.any()
        and not ds.C2h.real.any()
        and np.array_equal(-eta[:h], eta[N - 2 : h : -1])
    ):
        # row m is mode k = m (slot h + m); its second vector is conj(v_{-k}),
        # at slot h - m, for k = 1..N/2-1
        X = np.zeros((N - h, dim, 2), dtype=complex)
        X[:, :, 0] = vals[:, h:].T
        X[1 : h + 1, :, 1] = vals[:, h - 1 :: -1].T.conj()
        Y = _evolve_stack(_split_blocks(ds, eta[h:]), X, t)
        out = np.empty_like(vals)
        out[:, h:] = Y[:, :, 0].T
        out[:, h - 1 :: -1] = Y[1 : h + 1, :, 1].T.conj()
    else:
        if ds is not None:
            blocks = _split_blocks(ds, eta)
        else:
            blocks = (np.array(H, order="F") for H in gen.blocks)
        out = _evolve_stack(blocks, vals.T[:, :, None], t)[:, :, 0].T
    return SpectralState(values=out, grid=s.grid, time=s.time + t)


def recover(
    w: WarpedState,
    grid: Grid,
    mode: Literal["at_pstar", "sum_positive"] = "sum_positive",
    pstar: float = DEFAULT_PSTAR,
    p_min: float = 0.0,
) -> RecoveredState:
    """Read x(t) back out of the warped profile.

    at_pstar: x̂ = e^{p*} v(t, p*) at the grid point nearest p*.
    sum_positive: least-squares fit of v(t, p_l) ≈ e^{-p_l} x̂ over all
    p_l > max(0, p_min) (the projection onto the positive-p subspace),
    which averages out the per-point discretisation noise.

    p_min shifts the readout window right: when the Hermitian drift part
    has positive eigenvalues the profile kink travels right at that speed,
    and the exponential profile only survives beyond the kink's position.
    """
    floor = max(0.0, p_min)
    if mode == "at_pstar":
        idx = int(np.argmin(np.abs(grid.p - max(pstar, floor + 1.0))))
        xhat = np.exp(grid.p[idx]) * w.values[:, idx]
    elif mode == "sum_positive":
        pos = grid.p > floor
        if not np.any(pos):
            raise DegenerateRecoveryError(
                f"no grid points beyond the readout floor p > {floor:.3f}"
            )
        weights = np.exp(-grid.p[pos])
        xhat = (w.values[:, pos] @ weights) / (weights @ weights)
    else:
        raise InvalidInputError(f"unknown recovery mode {mode!r}")
    xnorm = float(np.linalg.norm(xhat))
    if xnorm < 1e-300:
        raise DegenerateRecoveryError("recovered amplitude vector has zero norm")
    wnorm = float(np.linalg.norm(w.values))
    env_norm = float(np.sqrt(np.sum(np.exp(-2.0 * grid.p[grid.p > 0]))))
    prob = min(1.0, (xnorm * env_norm / wnorm) ** 2) if wnorm > 0 else 0.0
    return RecoveredState(
        x=xhat, state=xhat / xnorm, success_probability=prob, time=w.time
    )


class Expectation(NamedTuple):
    raw: complex
    normalized: complex


def expectation_without_recovery(s: SpectralState, O) -> Expectation:
    """⟨v|(I⊗O)|v⟩ over the positive half of the warped domain.

    No amplitude rescaling or profile fit is performed. The restriction to
    p > 0 matters: only there is the warped field a common scalar profile
    times x(t), so the ratio ⟨v|(I⊗O)|v⟩/⟨v|v⟩ matches ⟨x|O|x⟩/⟨x|x⟩ up to
    grid error. The left half mixes earlier history and would bias it.
    """
    O = core.require_square(core.as_matrix(O), "O")
    if O.shape[0] != s.values.shape[0]:
        raise DimensionError("observable dimension does not match state")
    if core.hermiticity_defect(O) > core.HERMITICITY_TOL:
        raise InvalidInputError("observable must be Hermitian")
    w = transform(s, "inverse")
    vals = w.values[:, w.grid.p > 0.0]
    raw = complex(np.einsum("in,ij,jn->", vals.conj(), O, vals))
    denom = float(np.linalg.norm(vals) ** 2)
    if denom == 0.0:
        raise DegenerateRecoveryError("spectral state has zero norm on p > 0")
    return Expectation(raw=raw, normalized=raw / denom)


def propagate(
    C,
    x0,
    t: float,
    grid: Grid,
    mode: Literal["at_pstar", "sum_positive"] = "sum_positive",
    pstar: float = DEFAULT_PSTAR,
) -> RecoveredState:
    """End-to-end: warp, transform, per-mode unitary evolution, inverse
    transform, recovery. Approximates e^{(C-I)t} x0 with error set by the
    p-grid resolution only (time evolution is exact per mode)."""
    C = core.require_square(core.as_matrix(C), "C")
    x0 = core.as_vector(x0)
    if C.shape[0] != x0.shape[0]:
        raise DimensionError("C and x0 dimensions differ")
    ds = core.split(C)  # exactly Hermitian parts, so evolve needs no check
    top = float(np.max(np.linalg.eigvalsh(ds.C1h)))
    if top > 1e-10:
        warnings.warn(
            f"Hermitian drift part is not negative semidefinite "
            f"(max eigenvalue {top:.3e}); the profile kink drifts right and "
            "the readout window is shifted past it",
            stacklevel=2,
        )
    w0 = initial_warped_state(x0, grid)
    v0 = transform(w0, "forward")
    vt = evolve(v0, GeneratorBlocks(blocks=None, grid=grid, split=ds), t)
    wt = transform(vt, "inverse")
    # the kink at p = 0 travels right at the top Hermitian drift speed;
    # read only beyond it (a few cells of margin for the ringing around it)
    p_min = max(0.0, top) * t + 4.0 * grid.dp if top > 1e-10 else 0.0
    return recover(wt, grid, mode=mode, pstar=pstar, p_min=p_min)
