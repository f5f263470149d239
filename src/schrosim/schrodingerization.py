"""Warped-phase spectral engine for linear drift systems.

The drift system dx/dt = (C - I)x is lifted to a transport equation in an
auxiliary coordinate p through the substitution v(t, p) = e^{-p} x(t), then
Fourier-transformed in p. Each Fourier mode η evolves under its own small
Hermitian generator -(η·C1h + C2h), so the whole evolution is a direct sum
of unitaries and preserves the global 2-norm exactly. x(t) is recovered by
undoing the transform and reading off the p > 0 region.

The p < 0 half of the initial profile is free: x(t) is read from p > 0
only, where the profile is e^{-p}. ``Profile`` names the extensions in use;
the paper's e^{-|p|} has a kink at p = 0, ``SMOOTH`` is C^6 there, so its
Fourier coefficients decay fast and the modes that carry almost no mass
can be left out of the evolution (``truncate``).

Fourier convention: the forward transform maps e^{-|p|} to 1/(π(1+η²)) in
the continuum limit, i.e. ṽ(η) = (1/2π) ∫ e^{+iηp} v(p) dp. The sign of
the exponent is the one under which per-mode evolution by exp(-it·H_η)
reproduces the exact propagator e^{(C-I)t}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
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

# relative 2-norm that ``truncate`` may drop from a spectral state: the
# zeroed modes hold at most TRUNCATION_EPS² of its mass
TRUNCATION_EPS = 1e-6


@dataclass(frozen=True)
class Profile:
    """Initial warped profile ψ: e^{-p} on p >= 0 and, on p < 0,
    ψ(p) = e^{ap}·T_m(p), with T_m the degree-m Taylor polynomial of
    e^{-(1+a)p} at 0. ψ - e^{-p} = O(p^{m+1}) at 0, so ψ is C^m there
    (m = 0 is a kink), and the factor e^{ap} makes it decay as p → -∞.
    (a, m) = (1, 0) is the paper's e^{-|p|}."""

    name: str
    a: float
    m: int

    def __call__(self, p: np.ndarray) -> np.ndarray:
        out = np.exp(-np.abs(p))
        neg = p < 0
        u = -p[neg]
        taylor = np.ones_like(u)
        for j in range(self.m, 0, -1):  # Horner form of Σ_j ((1+a)u)^j / j!
            taylor = 1.0 + (1.0 + self.a) * u / j * taylor
        # e^{-|p|}·e^{-(a-1)u}·T_m = e^{ap}·T_m; for e^{-|p|} the factor is 1.0
        out[neg] *= np.exp(-(self.a - 1.0) * u) * taylor
        return out

    @property
    def negative_mass(self) -> float:
        """∫_{p<0} ψ² dp in closed form; ∫_{p>0} ψ² dp = 1/2. With
        s = 1 + a it is Σ_{i,j<=m} C(i+j, i)·s^{i+j} / (2a)^{i+j+1}."""
        s, two_a = 1.0 + self.a, 2.0 * self.a
        return sum(
            math.comb(i + j, i) * s ** (i + j) / two_a ** (i + j + 1)
            for i in range(self.m + 1)
            for j in range(self.m + 1)
        )


# the paper's profile: negative mass 1/2, so half the mass lies on p > 0
EXP_ABS = Profile("exp-abs", 1.0, 0)
# C^6 at p = 0: negative mass 3.41, so 0.128 of the mass lies on p > 0
SMOOTH = Profile("smooth-a5-m6", 5.0, 6)


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

    The dense (N, d+1, d+1) reference representation ``generator_blocks``
    builds from the DriftSplit ``split``, for tests and small systems.
    ``evolve`` takes the split itself and never builds or reads ``blocks``.
    """

    blocks: np.ndarray
    grid: Grid
    split: core.DriftSplit


@dataclass(frozen=True)
class RecoveredState:
    """x(t) read out of a warped state. ``propagate`` also records the
    initial profile, the number of Fourier modes it evolved, the relative
    norm it dropped (see ``truncate``) and the ``evolve`` path that ran
    (see ``evolve_path``)."""

    x: np.ndarray
    state: np.ndarray
    success_probability: float
    time: float
    profile: Profile = EXP_ABS
    modes_evolved: int | None = None
    dropped_norm: float = 0.0
    path: str | None = None


def valid_mode_count(N: int) -> bool:
    """The grid rule for N: a power of two in [4, 65536]."""
    return 4 <= N <= 2**16 and N & (N - 1) == 0


def make_grid(N: int, L: float) -> Grid:
    if not valid_mode_count(N):
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
    rho = (
        float(np.max(np.abs(np.linalg.eigvalsh(core.real_if_exact(C1h)))))
        if C1h.size
        else 0.0
    )
    return max(float(np.pi), 4.0 + t * rho)


def initial_warped_state(x0, grid: Grid, profile: Profile = EXP_ABS) -> WarpedState:
    """v(0, p) = ψ(p) x0, separable in the component and p indices; ψ is
    e^{-|p|} unless another profile is given."""
    x0 = core.as_vector(x0)
    if np.linalg.norm(x0) == 0.0:
        raise InvalidInputError("x0 must be nonzero")
    values = profile(grid.p)[None, :] * x0[:, None]
    return WarpedState(values=values, grid=grid, time=0.0)


def transform(state, direction: Literal["forward", "inverse"] = "forward"):
    """Discrete Fourier transform along the p index (or its exact inverse).

    Scaled so the forward transform of e^{-|p|} approaches 1/(π(1+η²));
    inverse(forward(w)) == w to machine precision. With p_l = -L + l·dp,
    e^{iη_k p_l} = (-1)^k·e^{2πikl/N}, so the forward map is the unscaled
    inverse FFT (``norm="forward"``), gathered from bin k mod N into mode
    order and multiplied in place by the one vector dp/2π·(-1)^k. The
    inverse scatters the modes back to their bins with deta·(-1)^k folded
    into the scatter, then runs the unscaled forward FFT.
    """
    grid = state.grid
    k = grid.mode_index
    m = k % grid.N
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    if direction == "forward":
        if not isinstance(state, WarpedState):
            raise DimensionError("forward transform expects a WarpedState")
        vals = np.fft.ifft(state.values, axis=1, norm="forward")[:, m]
        vals *= (grid.dp / (2.0 * np.pi)) * sign
        return SpectralState(values=vals, grid=grid, time=state.time)
    if direction == "inverse":
        if not isinstance(state, SpectralState):
            raise DimensionError("inverse transform expects a SpectralState")
        X = np.empty_like(state.values)
        X[:, m] = state.values * (grid.deta * sign)
        return WarpedState(values=np.fft.fft(X, axis=1), grid=grid, time=state.time)
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


def _lapack(name: str, *args, **kwargs):
    """Call ``scipy.linalg.lapack.<name>`` and drop its trailing info,
    raising NumericalError when it is nonzero."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise NumericalError(f"LAPACK {name} failed (info {info})")
    return out


def truncate(s: SpectralState) -> tuple[SpectralState, float]:
    """Zero the mode pairs (k, -k) of least combined mass whose total mass
    is at most TRUNCATION_EPS² of the state's; k = 0 and k = N/2 have no
    partner and count alone. Returns the state and the relative norm
    zeroed, at most TRUNCATION_EPS. Evolution is unitary per mode and the
    transform is a scaled unitary, so that norm is also the exact relative
    2-norm error truncation adds to the warped state at any time.

    Whole pairs keep a real state real: for real C and real x0 the column
    of -k is the conjugate of the column of k, so cutting one of the two
    would leave an imaginary part. The real path of ``evolve`` reduces a
    pair when either column is nonzero, so a half pair saves no work.
    """
    mass = np.einsum("ij,ij->j", s.values.conj(), s.values).real
    pair = np.abs(s.grid.mode_index)  # |k|, 0..N/2
    pair_mass = np.bincount(pair, weights=mass)
    order = np.argsort(pair_mass, kind="stable")
    cumulative = np.cumsum(pair_mass[order])
    total = cumulative[-1]
    dropped = int(np.searchsorted(cumulative, TRUNCATION_EPS**2 * total, "right"))
    if dropped == 0 or total == 0.0:
        return s, 0.0
    values = s.values.copy()
    values[:, np.isin(pair, order[:dropped])] = 0.0
    norm = float(np.sqrt(cumulative[dropped - 1] / total))
    return SpectralState(values=values, grid=s.grid, time=s.time), norm


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


def evolve_path(ds: core.DriftSplit, grid: Grid) -> str:
    """The path ``evolve`` takes for split ``ds`` on ``grid``, from exact
    tests with no tolerance: "hermitian" when C2h is zero (C == C†) and
    the modes are ``make_grid``'s ladder η_k = πk/L; "real" when C1h.imag
    and C2h.real are zero and the ladder is symmetric (η_{-k} == -η_k bit
    for bit); "general" otherwise. A C that is Hermitian or real only to
    rounding takes a slower path."""
    eta, N = grid.eta, grid.N
    h = N // 2 - 1  # slot of k = 0
    ladder = np.pi * np.arange(-N // 2 + 1, N // 2 + 1) / grid.L
    if not ds.C2h.any() and np.array_equal(eta, ladder):
        return "hermitian"
    if (
        not ds.C1h.imag.any()
        and not ds.C2h.real.any()
        and np.array_equal(-eta[:h], eta[N - 2 : h : -1])
    ):
        return "real"
    return "general"


def _matmul(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A @ V for a C-contiguous complex V. A real A multiplies V's real
    view, (n, 2N) with real and imaginary parts interleaved, in one real
    GEMM instead of a complex one."""
    if np.iscomplexobj(A):
        return A @ V
    return (A @ V.view(np.float64)).view(complex)


def _apply_phases(Y: np.ndarray, mu: np.ndarray, grid: Grid, t: float) -> None:
    """Y[j, :] *= e^{-itμ_j·η_k} in place, for a C-contiguous Y on
    ``make_grid``'s ladder η_k = k·π/L, k = k_0..N/2 consecutive.

    With the slot written as B·a + b (B about √N), k = k_0 + B·a + b, so the
    phase is the product of an (n, N/B) and an (n, B) block of
    exponentials: n·(N/B + B) complex exponentials instead of n·N.
    """
    N = grid.N
    B = 1 << (N.bit_length() - 1) // 2
    theta = (-t * grid.deta) * mu  # phase per unit step in k
    outer = np.exp(1j * np.outer(theta, np.arange(-N // 2 + 1, N // 2 + 1, B)))
    inner = np.exp(1j * np.outer(theta, np.arange(B)))
    blocks = Y.reshape(mu.size, N // B, B)  # [j, a, b] is mode k_0 + B·a + b
    blocks *= outer[:, :, None]
    blocks *= inner[:, None, :]


def evolve(s: SpectralState, ds: core.DriftSplit, t: float) -> SpectralState:
    """Propagate each mode column of ``s`` by exp(-i·t·H_k), with
    H_k = -(η_k·C1h + C2h) built from the split ``ds`` on the state's own
    grid ``s.grid``. Exactly norm-preserving. C1h and C2h must be
    Hermitian; ``core.split`` makes them so exactly.

    The path is the one ``evolve_path`` names from ``ds`` and ``s.grid``:

    - "hermitian" (C2h exactly zero, on ``make_grid``'s mode ladder):
      H_k = η_k·(-C1h), so one eigendecomposition -C1h = W·diag(μ)·W†
      serves every mode and the evolution is two GEMMs,
      W·(e^{-itη_kμ_j} ∘ (W†·V)). A real C1h is decomposed in real
      arithmetic and its real W multiplies the real view of V; the phases
      come from the mode ladder in two short blocks (``_apply_phases``).
      Every call is numpy's, so the path runs on one BLAS thread pool.
    - "real" (C1h with zero imaginary part, C2h with zero real part, on a
      symmetric mode ladder): H_{-k} = -conj(H_k), so only the modes
      k = 0..N/2 are reduced, each applied to v_k and conj(v_{-k}); the
      k < 0 column is conj(exp(-itH_{|k|})·conj(v_k)). This holds for
      complex states too.
    - "general": every mode is reduced.

    The last two run one kernel per mode (``_evolve_stack``): Householder
    tridiagonalisation and a real tridiagonal eigensolve, applied to the
    mode's vectors only, all on scipy's LAPACK and BLAS. Memory is
    O(d² + N·d); no (N, d+1, d+1) stack is built. The Hermitian test runs
    first, so real symmetric C takes the one-matrix path.

    A mode whose vector is exactly zero stays zero, so those two paths do
    not reduce it (on the real path, a pair k, -k is reduced when either
    vector is nonzero); ``truncate`` makes such modes. The Hermitian path
    maps a zero column to an exact zero in its GEMMs.
    """
    if t < 0:
        raise InvalidInputError(f"t must be nonnegative, got {t}")
    grid = s.grid
    eta, N, dim = grid.eta, grid.N, ds.C1h.shape[0]
    if s.values.shape != (dim, N):
        raise DimensionError("state and drift split dimensions differ")
    vals = np.ascontiguousarray(s.values, dtype=complex)
    h = N // 2 - 1  # slot of k = 0; slots h+1..N-1 hold k = 1..N/2
    path = evolve_path(ds, grid)
    if path == "hermitian":
        try:
            mu, W = np.linalg.eigh(-core.real_if_exact(ds.C1h))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition of C1h failed: {exc}") from exc
        Y = _matmul(W.conj().T, vals)
        _apply_phases(Y, mu, grid, t)
        out = _matmul(W, Y)
    elif path == "real":
        # row m is mode k = m (slot h + m); its second vector is conj(v_{-k}),
        # at slot h - m, for k = 1..N/2-1
        X = np.zeros((N - h, dim, 2), dtype=complex)
        X[:, :, 0] = vals[:, h:].T
        X[1 : h + 1, :, 1] = vals[:, h - 1 :: -1].T.conj()
        live = np.flatnonzero(X.any(axis=(1, 2)))
        Y = np.zeros_like(X)
        Y[live] = _evolve_stack(_split_blocks(ds, eta[h:][live]), X[live], t)
        out = np.empty_like(vals)
        out[:, h:] = Y[:, :, 0].T
        out[:, h - 1 :: -1] = Y[1 : h + 1, :, 1].T.conj()
    else:
        live = np.flatnonzero(vals.any(axis=0))
        blocks = _split_blocks(ds, eta[live])
        out = np.zeros_like(vals)
        out[:, live] = _evolve_stack(blocks, vals[:, live].T[:, :, None], t)[:, :, 0].T
    return SpectralState(values=out, grid=grid, time=s.time + t)


def recover(w: WarpedState, p_min: float = 0.0) -> RecoveredState:
    """Read x(t) back out of the warped profile on its grid ``w.grid``: the
    least-squares fit of v(t, p_l) ≈ e^{-p_l} x̂ over all p_l > max(0, p_min),
    i.e. the projection onto the positive-p subspace, which averages out
    the per-point discretisation noise (the recovery of Jin, Liu & Yu,
    arXiv:2212.13969). It is the only readout.

    p_min shifts the readout window right: when the Hermitian drift part
    has positive eigenvalues the profile kink travels right at that speed,
    and the exponential profile only survives beyond the kink's position.
    """
    grid = w.grid
    floor = max(0.0, p_min)
    pos = grid.p > floor
    if not np.any(pos):
        raise DegenerateRecoveryError(
            f"no grid points beyond the readout floor p > {floor:.3f}"
        )
    weights = np.exp(-grid.p[pos])
    xhat = (w.values[:, pos] @ weights) / (weights @ weights)
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
    profile: Profile = EXP_ABS,
) -> RecoveredState:
    """End-to-end: warp with ``profile``, transform, truncate, per-mode
    unitary evolution, inverse transform, recovery. Approximates
    e^{(C-I)t} x0 with error set by the p-grid resolution (time evolution
    is exact per mode) and by the truncation, whose relative warped-state
    error is the returned ``dropped_norm`` <= TRUNCATION_EPS."""
    C = core.require_square(core.as_matrix(C), "C")
    x0 = core.as_vector(x0)
    if C.shape[0] != x0.shape[0]:
        raise DimensionError("C and x0 dimensions differ")
    ds = core.split(C)  # exactly Hermitian parts, so evolve needs no check
    top = float(np.max(np.linalg.eigvalsh(core.real_if_exact(ds.C1h))))
    if top > 1e-10:
        join = "kink" if profile.m == 0 else f"C^{profile.m} join"
        warnings.warn(
            f"Hermitian drift part is not negative semidefinite "
            f"(max eigenvalue {top:.3e}); the {join} of the {profile.name} "
            "profile at p = 0 drifts right and the readout window is shifted "
            "past it",
            stacklevel=2,
        )
    w0 = initial_warped_state(x0, grid, profile)
    v0, dropped = truncate(transform(w0, "forward"))
    vt = evolve(v0, ds, t)
    wt = transform(vt, "inverse")
    # the join at p = 0 travels right at the top Hermitian drift speed;
    # read only beyond it (a few cells of margin for the ringing around it)
    p_min = max(0.0, top) * t + 4.0 * grid.dp if top > 1e-10 else 0.0
    rec = recover(wt, p_min=p_min)
    modes = int(np.count_nonzero(v0.values.any(axis=0)))
    return replace(
        rec, profile=profile, modes_evolved=modes, dropped_norm=dropped,
        path=evolve_path(ds, grid),
    )
