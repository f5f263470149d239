"""Warped-phase spectral engine for linear drift systems.

The drift system dx/dt = (C - I)x is lifted to a transport equation in an
auxiliary coordinate p through the substitution v(t, p) = e^{-p} x(t), then
Fourier-transformed in p. Each Fourier mode η evolves under its own small
Hermitian generator -(η·C1h + C2h), so the whole evolution is a direct sum
of unitaries and preserves the global 2-norm. ``evolve`` applies them with
one of two kernels, both unitary to rounding: per mode an
eigendecomposition, stacked over the modes (O(d³) per mode), or, when its
measured cost is lower, a Chebyshev polynomial in products with C1h and
C2h, batched over the modes: the series of cos(t|X|) and sin(t|X|)/|X| in
X², X = H_η centred at the midpoint of C1h's interval, so its degree
follows the spread of |X| rather than that of X. The drift split's one
decomposition of C1h = W·diag(w)·W† (``core.DriftSplit.eigh``) gives w to
the kink speed, the half-width and the polynomial's fold, and W to the
polynomial as the basis it steps in, where C1h is diagonal: each step is one GEMM
with two blocks and one elementwise product with a diagonal, written into
a buffer from which the previous term is subtracted in place; for a real
C the GEMM is a real one on the float64 view of the complex vectors.
Each kernel returns its rows Y read out by a matrix ρ, Σ_rows ρ_row ⊗
Y_row, summed as they are made; ``evolve`` reads out by the identity,
which is the state. The start ψ(p)·x0 is separable, so its transform
x0⊗ψ̂ takes one length-N transform of ψ (``initial_state``) and the modes
it cuts depend on ψ̂ alone; the readout, a least-squares fit of the p > 0
region, is linear, so ``recover`` applies it to the spectral state and no
transform back to p runs. ``propagate`` builds no state at all: it hands
the fit's weights to the kernel as ρ (``_kernel_readout``). For a
Hermitian C each mode's generator η·(-C1h) is diagonal in W, so
evolution is a phase per entry in W's coordinates, and x̂ is W·(c ∘ Φ)
for c = W†x0 and one sum Φ_j of the readout weights times ψ̂ and the
phases per eigenvalue μ_j = -w_j (``_phase_readout``).

The engine imports nothing from scipy. scipy links its own OpenBLAS, whose
threads keep spinning for about 0.1 s after a threaded call, and on a
machine with few cores a call on numpy's pool can stall behind them; so
all of the engine's LAPACK and BLAS is numpy's, the pool its callers use.

The p < 0 half of the initial profile is free: x(t) is read from p > 0
only, where the profile is e^{-p}. ``Profile`` names the extensions in use;
the paper's e^{-|p|} has a kink at p = 0, ``SMOOTH`` is C^6 there and, as
``sample_profile`` puts it on a grid, C^8 across the periodic seam at ±L,
so its Fourier coefficients decay fast and the modes that carry almost no
mass can be left out of the evolution (``_start_spectrum``). ``propagate``
starts from ``SMOOTH`` unless told otherwise.

Fourier convention: the forward transform maps e^{-|p|} to 1/(π(1+η²)) in
the continuum limit, i.e. ṽ(η) = (1/2π) ∫ e^{+iηp} v(p) dp. The sign of
the exponent is the one under which per-mode evolution by exp(-it·H_η)
reproduces the exact propagator e^{(C-I)t}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, NamedTuple

import numpy as np

from . import core
from .errors import (
    DegenerateRecoveryError,
    DimensionError,
    InvalidInputError,
    NumericalError,
)

# relative 2-norm that ``initial_state`` may drop from the start: the
# zeroed modes hold at most TRUNCATION_EPS² of its mass
TRUNCATION_EPS = 1e-6
# relative 2-norm the polynomial kernel may drop from a vector: its bound
# on the coefficient tail beyond the degree it stops at
CHEBYSHEV_EPS = 1e-16
# the measured costs of the per-mode kernels (``_evolve_modes``) in
# row-degrees, one vector's product in one step of the polynomial: a step
# costs STEP_ROWS row-degrees besides its rows, a mode's ``eigh``
# REDUCTION_ROWS·n
STEP_ROWS = 12
REDUCTION_ROWS = 1.33
# bytes of generators the ``eigh`` kernel decomposes at a time, in chunks of
# EIGH_BYTES // (16·n²) modes; their eigenvectors take as many again. Chunks
# of 1 and 16 MiB were no faster at n = 8-128 (2 vCPUs)
EIGH_BYTES = 1 << 18
# log ρ of the Bernstein ellipses on which ``_folded_degree`` bounds the tail
_LOG_RHO = np.geomspace(1e-3, 8.0, 64)
# rows of polynomial coefficients transformed at a time
COEF_BLOCK = 16


@dataclass(frozen=True)
class Profile:
    """Initial warped profile ψ: e^{-p} on p >= 0 and, on p < 0,
    ψ(p) = e^{ap}·T_m(p), with T_m the degree-m Taylor polynomial of
    e^{-(1+a)p} at 0. ψ - e^{-p} = O(p^{m+1}) at 0, so ψ is C^m there
    (m = 0 is a kink), and the factor e^{ap} makes it decay as p → -∞.
    (a, m) = (1, 0) is the paper's e^{-|p|}.

    Calling a profile gives this continuum ψ. On a grid it is sampled by
    ``sample_profile``, which blends a profile with m > 0 across the
    periodic seam, so there ``negative_mass`` is off by O(e^{-2L})."""

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
        """∫_{p<0} ψ² dp of the continuum ψ in closed form; ∫_{p>0} ψ² dp
        = 1/2. With s = 1 + a it is Σ_{i,j<=m} C(i+j, i)·s^{i+j} / (2a)^{i+j+1}."""
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform p-grid on [-L, L) with its Fourier modes.

    p_l = -L + l·(2L/N) for l = 0..N-1; η_k = πk/L for k = -N/2+1..N/2.
    The unit-spaced mode ladder is the special case L = π. The arrays are
    read-only and made from N and L alone, so every grid is its ladder.
    """

    N: int
    L: float

    @cached_property
    def p(self) -> np.ndarray:
        return _read_only(-self.L + self.dp * np.arange(self.N))

    @cached_property
    def mode_index(self) -> np.ndarray:  # the integer k of each η slot
        return _read_only(np.arange(-self.N // 2 + 1, self.N // 2 + 1))

    @cached_property
    def eta(self) -> np.ndarray:
        return _read_only(np.pi * self.mode_index / self.L)

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
    # how ``evolve`` last moved it: its kernel and largest polynomial degree
    # in the generator (see ``RecoveredState``)
    kernel: str | None = None
    max_degree: int | None = None


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
    """x(t) read out of a warped state at ``time`` on ``grid``; the solvers'
    reports hold it as the record of their evolution. ``propagate`` also
    records the initial profile, the number of Fourier modes it evolved, the
    relative norm its cut dropped (see ``initial_state``), the ``evolve``
    path that ran (see ``evolve_path``), its kernel ("phases", "eigh" or
    "chebyshev") and the largest polynomial degree in the generator (None
    off the polynomial; 2·D + 1 for its D steps, 0 where it is a phase)."""

    x: np.ndarray
    state: np.ndarray
    success_probability: float
    time: float
    grid: Grid
    profile: Profile = EXP_ABS
    modes_evolved: int | None = None
    dropped_norm: float = 0.0
    path: str | None = None
    kernel: str | None = None
    max_degree: int | None = None


def valid_mode_count(N: int) -> bool:
    """The grid rule for N: a power of two in [4, 65536]."""
    return 4 <= N <= 2**16 and N & (N - 1) == 0


def make_grid(N: int, L: float) -> Grid:
    if not valid_mode_count(N):
        raise InvalidInputError(f"N must be a power of two in [4, 65536], got {N}")
    if not 0 < L < math.inf:  # NaN fails too
        raise InvalidInputError(f"L must be finite and positive, got {L}")
    return Grid(N=N, L=float(L))


def sample_profile(profile: Profile, grid: Grid) -> np.ndarray:
    """ψ at the grid points p_l, as the periodic grid sees it.

    The grid wraps p = L onto p = -L, where ψ(L) = e^{-L} and a profile
    with a C^m join (m > 0) is nearly 0, so its periodic extension jumps by
    about e^{-L} and that jump, not the join, sets the Fourier tail at small
    L. Such a profile is blended across the seam: on [-L, -L/2] it is mixed
    toward the wrapped tail e^{-(p+2L)} by the C^8 smoothstep, weight 0 at
    -L and 1 at -L/2, so the extension is C^8 at ±L and p > 0 is unchanged.
    ``EXP_ABS`` (m = 0) is sampled as it is: its kink sets its tail anyway.
    The blend moves the mass on p < 0 by O(e^{-2L}): 1.2e-4 at L = 4 (the
    smallest default L), 3e-6 at L = 6."""
    psi = profile(grid.p)
    if profile.m == 0:
        return psi
    L = grid.L
    seam = grid.p < -L / 2
    p = grid.p[seam]
    s = (2.0 * (p + L) / L)[:, None]
    # the C^8 smoothstep, the Beta(9, 9) distribution function, in Bernstein
    # form Σ_{k=9}^{17} C(17, k)·s^k·(1-s)^{17-k}: positive terms, no cancellation
    k = np.arange(9, 18)
    binom = np.array([math.comb(17, j) for j in range(9, 18)], dtype=float)
    w = (binom * s**k * (1.0 - s) ** (17 - k)).sum(axis=1)
    psi[seam] = w * psi[seam] + (1.0 - w) * np.exp(-(p + 2.0 * L))
    return psi


def default_domain_halfwidth(C1h: np.ndarray | core.DriftSplit, t: float) -> float:
    """Half-width rule: transport speed is bounded by the largest Hermitian
    drift eigenvalue, so L = 4 + t·ρ keeps the p > 0 region clear of
    wrap-around while holding the boundary truncation e^{-L} small. ρ is
    read from the eigenvalues of the ``eigh`` of a DriftSplit passed in
    place of C1h, else from one ``eigvalsh`` of C1h, which decomposes no
    eigenvector."""
    if isinstance(C1h, core.DriftSplit):
        eigs = C1h.eigh[0]
    else:
        eigs = np.linalg.eigvalsh(core.real_if_exact(C1h))
    return max(float(np.pi), 4.0 + t * float(np.max(np.abs(eigs), initial=0.0)))


def _bins_and_signs(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """FFT bin k mod N of each mode slot, and (-1)^k."""
    k = grid.mode_index
    return k % grid.N, np.where(k % 2 == 0, 1.0, -1.0)


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
    m, sign = _bins_and_signs(grid)
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


def _start_vector(x0) -> np.ndarray:
    """x0 as a complex vector, refused when it is zero."""
    x0 = core.as_vector(x0)
    if np.linalg.norm(x0) == 0.0:
        raise InvalidInputError("x0 must be nonzero")
    return x0


def _profile_spectrum(profile: Profile, grid: Grid) -> np.ndarray:
    """ψ̂_k for k = -N/2+1..N/2: the transform (``transform``'s scaling) of
    the profile ψ as ``sample_profile`` puts it on the grid, seam blend
    included.

    ψ is real, so ψ̂_{-k} = conj(ψ̂_k): ψ̂ is computed for k = 0..N/2 (a real
    FFT) and mirrored, with ψ̂_0 and ψ̂_{N/2} real."""
    sign = _bins_and_signs(grid)[1][grid.N // 2 - 1 :]  # k = 0..N/2
    # e^{+2πikl/N} sums of a real ψ are the conjugates of rfft's e^{-2πikl/N}
    half = np.fft.rfft(sample_profile(profile, grid)).conj()
    half *= (grid.dp / (2.0 * np.pi)) * sign
    half[[0, -1]] = half[[0, -1]].real
    return np.concatenate([half[-2:0:-1].conj(), half])


def _start_spectrum(profile: Profile, grid: Grid) -> tuple[np.ndarray, float]:
    """ψ̂ (``_profile_spectrum``) cut by ``_truncation`` on |ψ̂_k|², and the
    norm it drops: mode k of x0⊗ψ̂, in any unitary basis of x0, holds mass
    ‖x0‖²·|ψ̂_k|², so this is the cut of every start on the grid."""
    psi = _profile_spectrum(profile, grid)
    cut, dropped = _truncation(psi.real**2 + psi.imag**2, grid)
    if cut is not None:
        psi[cut] = 0.0
    return psi, dropped


def initial_state(x0, grid: Grid, profile: Profile) -> tuple[SpectralState, float]:
    """The transform x0⊗ψ̂ of v(0, p) = ψ(p)·x0 with ψ̂ cut by
    ``_start_spectrum``, and the relative norm the cut drops, at most
    TRUNCATION_EPS. Evolution is unitary per mode and the transform a
    scaled unitary, so that is the exact relative 2-norm error the cut adds
    to the warped state at any time.

    For a real x0 the column of -k is the conjugate of the column of k bit
    for bit, as ψ̂ is, which is the test ``evolve`` runs to evolve one
    vector per mode pair."""
    x0 = _start_vector(x0)
    psi, dropped = _start_spectrum(profile, grid)
    return SpectralState(values=np.outer(x0, psi), grid=grid), dropped


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
    return GeneratorBlocks(blocks=_generators(ds, grid.eta), grid=grid, split=ds)


def _generators(ds: core.DriftSplit, eta: np.ndarray) -> np.ndarray:
    """H = -(η·C1h + C2h) for each η, as one complex (M, n, n) stack,
    built in place."""
    H = np.multiply(-eta[:, None, None], ds.C1h, dtype=complex)
    H -= ds.C2h
    return H


def _truncation(mass: np.ndarray, grid: Grid) -> tuple[np.ndarray | None, float]:
    """The cut of the column masses ``mass`` (N,) of a state on ``grid``:
    the mask of the columns in the mode pairs (k, -k) of least combined
    mass whose total is at most TRUNCATION_EPS² of the whole, or None when
    there are none, and the relative norm they hold. k = 0 and k = N/2
    have no partner and count alone. Whole pairs keep the start of a real
    x0 conjugate-symmetric, on which the real path of ``evolve`` evolves
    one vector per pair; that path evolves a pair when either column is
    nonzero, so a half pair would save no work."""
    pair = np.abs(grid.mode_index)  # |k|, 0..N/2
    pair_mass = np.bincount(pair, weights=mass)
    order = np.argsort(pair_mass, kind="stable")
    cumulative = np.cumsum(pair_mass[order])
    total = cumulative[-1]
    dropped = int(np.searchsorted(cumulative, TRUNCATION_EPS**2 * total, "right"))
    if dropped == 0 or total == 0.0:
        return None, 0.0
    cut = np.zeros(pair_mass.size, dtype=bool)
    cut[order[:dropped]] = True
    return cut[pair], float(np.sqrt(cumulative[dropped - 1] / total))


def _evolve_stack(
    ds: core.DriftSplit, eta: np.ndarray, X: np.ndarray, t: float, readout=None
) -> np.ndarray:
    """Y[m] = exp(-it·H_m)·X[m] for H_m = -(η_m·C1h + C2h) and the (n, r)
    vectors X[m]; with a ``readout`` (M, r, q) its sum
    Σ_{m,v} readout[m, v] ⊗ Y[m, :, v], (q, n), instead (``_evolve_modes``).

    The modes run in chunks of EIGH_BYTES // (16·n²), so no (M, n, n) stack
    is built: each chunk's generators are one stack, decomposed by one
    stacked ``np.linalg.eigh``, H = V·diag(w)·V†, and applied as
    exp(-itH)·x = V·(e^{-itw} ∘ V†·x) by two stacked ``matmul``s, all on
    numpy's LAPACK and BLAS. V†·x is read as the conjugate of x†·V, so no
    conjugate of V is made. A failed decomposition raises NumericalError.
    The readout's sum is an einsum per chunk, which calls no BLAS."""
    M, n, r = X.shape
    step = max(1, EIGH_BYTES // (16 * n * n))
    if readout is None:
        Y = np.empty((M, n, r), dtype=complex)
    else:
        Y = np.zeros((readout.shape[2], n), dtype=complex)
    for lo in range(0, M, step):
        part = slice(lo, lo + step)
        try:
            w, V = np.linalg.eigh(_generators(ds, eta[part]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigh of a mode generator failed: {exc}") from exc
        Z = np.matmul(X[part].conj().swapaxes(1, 2), V).conj()  # (V†·x)ᵀ, (m, r, n)
        Z *= np.exp(-1j * t * w)[:, None, :]
        Z = np.matmul(V, Z.swapaxes(1, 2))
        if readout is None:
            Y[part] = Z
        else:
            Y += np.einsum("mvq,mnv->qn", readout[part], Z)
    return Y


def _spectral_interval(M: np.ndarray) -> tuple[float, float]:
    """The extreme eigenvalues of a Hermitian M, in real arithmetic when M
    is real or purely imaginary: M = iA with A real antisymmetric has the
    eigenvalues ±σ(A), so its interval is ±sqrt(λmax(AᵀA)). All on numpy's
    LAPACK and BLAS, like the polynomial the interval serves."""
    if not M.real.any():
        A = np.ascontiguousarray(M.imag)
        top = math.sqrt(max(np.linalg.eigvalsh(A.T @ A)[-1], 0.0))
        return -top, top
    w = np.linalg.eigvalsh(core.real_if_exact(M))
    return float(w[0]), float(w[-1])


def _folded_degree(t: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The degree D in y at which the folded kernel's two series may stop,
    for ζ = X² on [lo, hi] = [c - r, c + r] (lo >= 0) and y = (ζ - c)/r:
    the smallest D whose bound on what the cut and the FFT's aliasing drop
    from exp(-itX) = f(X²) - i·X·g(X²), f(ζ) = cos(t√ζ) and
    g(ζ) = sin(t√ζ)/√ζ, is at most CHEBYSHEV_EPS, over the Bernstein
    ellipses E_ρ of ``_LOG_RHO``.

    f and g are entire. With w = t√ζ, |cos w| <= e^{|Im w|} and, since
    sin w / w = ∫_0^1 cos(sw) ds, |sin w / w| <= e^{|Im w|}; so on the
    image of E_ρ (foci ±1, semi-axes α = (ρ + 1/ρ)/2 and β = (ρ - 1/ρ)/2)
    |f| <= e^{tY} and |g| <= t·e^{tY}, Y the largest |Im √ζ| there. On
    ζ = c + r·(α cos θ + iβ sin θ), with u = r cos θ + cα, Re ζ = αu - cβ²
    and |ζ|² = u² - β²(c² - r²), so 2|Im √ζ|² = |ζ| - Re ζ is concave in
    u, with its peak at u = αab (a = √lo, b = √hi). That peak lies on the
    ellipse when α(b - a) <= b + a, and there Y = β(b - a)/2; otherwise
    the left vertex θ = π is highest, Y = √max(0, rα - c). A function
    bounded by M on E_ρ has Chebyshev coefficients |a_j| <= 2Mρ^{-j}
    (Trefethen, ATAP Thm 8.1), so the terms past D sum to at most
    2Mρ^{-D}/(ρ - 1); aliasing on M' > 2D + 2 points adds each of them to
    at most two kept coefficients; and ‖X‖ <= b. D is the least with
    6·(1 + tb)·e^{tY}·ρ^{-D}/(ρ - 1) <= CHEBYSHEV_EPS, and 0 where f and
    g are constant on the interval (r = 0) or X·g vanishes (tb = 0).
    Against exact coefficient tails (the half-angle Jacobi–Anger series
    where lo = 0, FFTs at looser ε elsewhere) D is within 1.2× + 3 of the
    exact degree."""
    lo, hi = np.maximum(lo, 0.0)[:, None], np.asarray(hi, dtype=float)[:, None]
    a, b = np.sqrt(lo), np.sqrt(hi)
    rho = np.exp(_LOG_RHO)
    alpha, beta = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    Y = np.where(
        alpha * (b - a) <= b + a,
        0.5 * beta * (b - a),
        np.sqrt(np.maximum(r * alpha - c, 0.0)),
    )
    log_bound = t * Y + np.log(
        6.0 * (1.0 + t * b) / (np.expm1(_LOG_RHO) * CHEBYSHEV_EPS)
    )
    D = np.ceil(log_bound / _LOG_RHO).min(axis=1)
    return np.where((r[:, 0] > 0) & (t * b[:, 0] > 0), D, 0.0).astype(int)


class _Polynomial(NamedTuple):
    """The plan of the polynomial kernel for the rows at η. With
    P = centre·I - C1h and Q = m2·I - C2h, H = -(η·C1h + C2h) is x + X at
    x = -(η·centre + m2), X = η·P + Q, and exp(-itX) = f(X²) - i·X·g(X²)
    (``_chebyshev_stack``): two Chebyshev series in y = (X² - c)/R, on
    [-1, 1] over the spectrum, with c = κ2·η² + κ0, to degree D per row.
    ``degree`` is the largest degree in H: 2·max D + 1, or 0 where X·g
    vanishes on every row (t = 0 or X = 0), so exp(-itH) is a phase."""

    centre: float
    m2: float
    R: np.ndarray
    D: np.ndarray
    kappa2: float
    kappa0: float
    degree: int

    def cost(self, vectors: np.ndarray, n: int) -> float:
        """Its cost in row-degrees (``_evolve_modes``) for ``vectors`` per
        row and n×n blocks: its blocks, second coefficient table and last
        product by X cost about two steps and 2·n row-degrees more than its
        steps (the lines through the timings behind ``_evolve_modes``' tables
        put that part at 1.2-5.2·n, the median per row count). Its steps run
        in C1h's eigenbasis (``_chebyshev_stack``), which adds, by flop count
        against the 2n² multiply-adds of a row-degree (one vector's product
        with the two blocks of a step): the two basis products, n² per
        vector into the basis and at most n² per vector out, one row-degree
        per vector. The ``eigh`` of C1h that gives the basis is not charged:
        the plan reads its eigenvalues, so it has run before either kernel
        is priced. With every D at 0 no step runs and no block is built, so
        only the last product is charged, a row-degree per vector, and
        nothing when it is skipped too (``degree`` 0)."""
        if self.D.any():
            D = self.D + 2.0
            return float(vectors @ (D + 1.0) + STEP_ROWS * D.max() + 2 * n)
        return float(vectors.sum()) if self.degree else 0.0


def _folded_plan(
    ds: core.DriftSplit,
    eta: np.ndarray,
    t: float,
    c2h: tuple[float, float],
    centre: float,
) -> _Polynomial:
    """The polynomial for the rows at η folded about ``centre``, with C2h's
    interval ``c2h`` = (lo, hi).

    With h the distance from the centre to the nearest eigenvalue of C1h
    (0 when one sits there) and F the largest, P = centre·I - C1h has
    |eigenvalues| in [h, F], and Q = m2·I - C2h has norm at most r2, so by
    Weyl's bound the eigenvalues of X = η·P + Q have modulus in
    [a, b] = [max(0, |η|·h - r2), |η|·F + r2] and those of X² lie in
    [a², b²]. The shift c = κ2·η² + κ0 is shared by every row through the
    blocks of ``_chebyshev_stack``: κ2 = (F² + h²)/2 centres [a², b²] as
    r2/|η| → 0, and κ0, the least with c >= b²/2 on every row, keeps the
    interval c ± R, R = max(b² - c, c - a²), inside ζ >= 0, where f and g
    of ``_folded_degree`` stay bounded."""
    w1 = ds.eigh[0]
    h = float(np.min(np.abs(w1 - centre)))
    F = max(centre - float(w1[0]), float(w1[-1]) - centre)
    r2, e = 0.5 * (c2h[1] - c2h[0]), np.abs(eta)
    a, b = np.maximum(e * h - r2, 0.0), e * F + r2
    kappa2 = 0.5 * (F * F + h * h)
    kappa0 = float(np.max(0.5 * b * b - kappa2 * e * e, initial=0.0))
    c = kappa2 * e * e + kappa0
    R = np.maximum(b * b - c, c - a * a)
    D = _folded_degree(t, c - R, c + R)
    degree = 2 * int(D.max(initial=0)) + 1 if (t * b).any() else 0
    return _Polynomial(centre, 0.5 * (c2h[0] + c2h[1]), R, D, kappa2, kappa0, degree)


def _chebyshev_plan(
    ds: core.DriftSplit, eta: np.ndarray, t: float, vectors: np.ndarray, budget: float
) -> _Polynomial | None:
    """The polynomial for the rows at η with ``vectors`` vectors each,
    folded about the midpoint m of C1h's interval, or None when it costs
    more than ``budget`` (``_Polynomial.cost``). C1h's eigenvalues are read
    off the split's ``eigh``, and C2h is eigensolved once.

    The midpoint of the widest gap never folds narrower. About a centre s
    the spread of |X| is |η|·(F - h) + 2·r2 (less where a = 0, then b),
    and F - h = H + |s - m| - h_s with H the interval's half-width. For the
    midpoint s0 of the widest gap g, h_s = g/2. If m lies in that gap, its
    nearest eigenvalue is the gap's near edge, h_m = g/2 - |s0 - m|, so the
    spreads tie (and b at m is the lower); if not, |s0 - m| >= g/2 and the
    spread about s0 is at least |η|·H + 2·r2, which m's never exceeds.
    Lower in [a², b²] at the same spread, m's fold was also the one the
    ellipse bound prices lower: on every drift with a lone eigenvalue
    across a gap the tests build, on the Jacobi benchmark's drift (one
    eigenvalue near 0, the rest in [-1.16, -0.85], where m lies in the
    gap and folds the lone eigenvalue onto the bulk), and on 583 of 600
    random spectra, the other 17 within 1.5%."""
    w1 = ds.eigh[0]
    centre = 0.5 * float(w1[0] + w1[-1])
    plan = _folded_plan(ds, eta, t, _spectral_interval(ds.C2h), centre)
    return plan if plan.cost(vectors, ds.C1h.shape[0]) <= budget else None


def _coefficients(sample, D: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The (max D + 1, rows) table phase·(2 - δ_j0)·c_j of the Chebyshev
    coefficients c_j of each row's function of x = cos θ on [-1, 1],
    ``sample(x, rows)`` for the rows of a slice, zero past each row's D,
    so a finished row adds nothing. The rows are in descending D; each
    COEF_BLOCK of them is read off one FFT on M >= 2D + 2 points of its
    own largest D, so aliasing adds only terms beyond D, and no (rows, M)
    array is built beside the table."""
    m = D.size
    top = int(D[0]) if m else 0
    coef = np.zeros((top + 1, m), dtype=complex)
    for b in range(0, m, COEF_BLOCK):
        rows = slice(b, b + COEF_BLOCK)
        degree = int(D[b])
        M = 1 << (2 * degree + 2).bit_length()
        F = np.fft.fft(sample(np.cos(2.0 * np.pi / M * np.arange(M)), rows))
        F = F[:, : degree + 1] * (phase[rows] / M)[:, None]
        F[:, 1:] *= 2.0
        coef[: degree + 1, rows] = F.T
    coef[np.arange(top + 1)[:, None] > D] = 0.0
    return coef


def _recurrence(dtype, G, W, diag, T0, D, R, identity) -> np.ndarray:
    """Σ_j T_j(y)·R[j], the terms T_j(y)·v of every column v of T0 (n, m)
    (columns in descending D) read out by the weights R[j] (m, c) of each
    degree j <= max D: one (n, c) sum, or with ``identity`` each column's
    own (n, m, c) sum Σ_j T_j(y)·v ⊗ R[j, v]. Here
    2y·v = G·[W_0∘v ; W_1∘v] + diag∘v for the blocks [G_0 | G_1] of G
    (n, 2n), the per-column weights W (2, m) and the real ``diag``, (n, m)
    with each column doubled to (n, 2m) to act on the float64 view.

    The vectors are the columns of C-ordered (n, k) arrays, whose float64
    views are (n, 2k): each vector's real and imaginary parts are two real
    columns, so a real G runs each step as one real ``matmul`` on those
    views and a complex G as one complex ``matmul``. Step j of
    T_{j+1} = 2y·T_j - T_{j-1} is that one GEMM with the stacked weighted
    columns, written into a spare buffer, to which diag∘T_j is added and
    from which T_{j-1} is subtracted in place (the first step is halved
    instead: T_1 = y·T_0). numpy's GEMM takes no beta, so the buffers of
    T_{j-1}, T_j and T_{j+1} rotate. Each term is read out as it is made:
    one skinny GEMM T_j·R[j] into the sum, or with ``identity`` the
    elementwise product that GEMM is for a diagonal readout, so no m×m
    matrix is built. R[j] is zero past a column's D, so a finished column
    adds nothing; it keeps being stepped until the live columns have
    fallen to 7/8 of the buffers, and only then are they copied down."""
    n, m = T0.shape
    top = int(D[0]) if m else 0
    cur = T0  # T_0, a vector per column
    prev = np.zeros_like(cur)  # T_{-1}
    nxt = np.empty_like(cur)  # T_{j+1}
    acc = cur[:, :, None] * R[0] if identity else np.matmul(cur, R[0])
    buf = np.empty(2 * n * m, dtype=complex)
    active = np.searchsorted(-D, -np.arange(top + 1), side="right")
    width = m
    for j in range(1, top + 1):
        k = active[j]  # columns with D >= j
        if 8 * k <= 7 * width:  # one copy at a time keeps the peak memory low
            cur = cur[:, :k].copy()
            prev = prev[:, :k].copy()
            nxt = np.empty_like(cur)
            diag = diag[:, : 2 * k].copy()
            width = k
        stacked = buf[: 2 * n * width].reshape(2 * n, width)
        np.multiply(cur, W[0, :width], out=stacked[:n])
        np.multiply(cur, W[1, :width], out=stacked[n:])
        # every operand is C-ordered, so the GEMM copies nothing
        np.matmul(G, stacked.view(dtype), out=nxt.view(dtype))
        scaled = buf[: n * width].view(np.float64).reshape(n, 2 * width)
        np.multiply(cur.view(np.float64), diag, out=scaled)
        np.add(nxt.view(np.float64), scaled, out=nxt.view(np.float64))
        if j == 1:
            nxt *= 0.5
        else:
            nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        if identity:
            acc[:, :width] += cur[:, :, None] * R[j, :width]
        else:
            acc += np.matmul(cur, R[j, :width])
    return acc


def _chebyshev_stack(
    ds: core.DriftSplit,
    V: np.ndarray,
    eta: np.ndarray,
    t: float,
    plan: _Polynomial,
    readout: np.ndarray | None = None,
) -> np.ndarray:
    """exp(-itH)·v for each row v of V (m, n), H = -(η·C1h + C2h) at the
    row's own η, by the polynomial ``plan`` (``_Polynomial``), as rows
    (m, n); with a ``readout`` (m, q) their sum Σ_rows readout[row] ⊗
    exp(-itH)·v, (q, n), instead, so no row is kept. With x the row's
    centre and X = η·P + Q = H - x, exp(-itX) = f(X²) - i·X·g(X²) with
    f(ζ) = cos(t√ζ) and g(ζ) = sin(t√ζ)/√ζ: two series that share one
    recurrence (``_recurrence``), and one last GEMM with [P | Q] for X·g.

    The steps run in the eigenbasis B of C1h (``DriftSplit.eigh``), where
    P = centre·I - C1h is the diagonal p = centre - w and Q is
    Q̃ = B†·Q·B: each step is one GEMM with [p∘Q̃ + Q̃∘p | Q̃² - κ0·I] on
    (η·T_j ; T_j) and one elementwise product with (p² - κ2)⊗η² for the
    block P² - κ2·I, a third fewer flops than the three blocks P² - κ2·I,
    PQ + QP and Q² - κ0·I of the original basis. The rows enter the
    basis by one product with B† and the result leaves it by one with B.
    Each term is read out as it is made: the f series by the readout, the
    g series by the readout and by η times it, which the last GEMM turns
    into X·g. ``evolve`` reads out by the identity, which returns the rows.
    Where no step runs (every D 0) no block is built and the basis is not
    used: the last product runs in the original basis, and where X·g
    vanishes (``degree`` 0) it is not made either.

    The coefficients are FFTs of f and g at c + R cos θ
    (``_coefficients``). On a real split (C1h.imag and C2h.real exactly
    zero, as ``_real_split`` tests) C2h = i·A with A real antisymmetric,
    whose interval is symmetric, so m2 = 0 and Q = -i·A, and B is real:
    each block is real once the weight of Q carries its i (weights i·η and
    1; η and i), and each step and basis product is one real ``matmul``
    on the float64 views, at half the flops of a general split's complex
    one. The eigendecomposition, the blocks and every product are numpy's
    (see the module docstring for why). Unitary to rounding, not exactly."""
    centre, m2, R, D, kappa2, kappa0, degree = plan
    m, n = V.shape
    order = np.argsort(-D, kind="stable")
    R, D, eta = R[order], D[order], eta[order]
    phase = np.exp(1j * t * (eta * centre + m2))  # e^{-itx}
    if _real_split(ds):
        P, Q = centre * np.eye(n) - ds.C1h.real, -ds.C2h.imag
        dtype, unit, unit2 = np.float64, 1j, -1.0
    else:
        P, Q = centre * np.eye(n) - ds.C1h, m2 * np.eye(n) - ds.C2h
        dtype, unit, unit2 = complex, 1.0, 1.0
    c = kappa2 * eta * eta + kappa0

    def root(x, rows):
        return np.sqrt(np.maximum(c[rows, None] + R[rows, None] * x, 0.0))

    cos = _coefficients(lambda x, rows: np.cos(t * root(x, rows)), D, phase)
    sin = _coefficients(
        lambda x, rows: t * np.sinc(t / np.pi * root(x, rows)), D, -1j * phase
    )
    f = np.divide(2.0, R, out=np.zeros_like(R), where=R > 0)
    T = np.array(V[order].T, dtype=complex, order="C")
    B = G = diag = None
    if D.any():
        w, B = ds.eigh
        B = B.astype(dtype, copy=False)
        p = centre - w
        P, Q = np.diag(p), np.matmul(B.conj().T, np.matmul(Q, B))
        T = _times(B.conj().T, T, dtype)
        G = np.hstack([
            (p[:, None] + p) * Q,  # p∘Q̃ + Q̃∘p
            unit2 * np.matmul(Q, Q) - kappa0 * np.eye(n),  # (unit·Q̃)² - κ0·I
        ])
        diag = np.repeat(np.outer(p * p - kappa2, f * eta * eta), 2, axis=1)
    W = np.array([f * unit * eta, f], dtype=complex)
    if readout is None:
        acc = _recurrence(dtype, G, W, diag, T, D, np.stack([cos, sin], axis=2), True)
        out, sine = acc[:, :, 0], acc[:, :, 1]
        sine_eta = sine * eta
    else:
        rho = readout[order]
        reads = np.concatenate(
            [rho * cos[:, :, None], rho * (sin * eta)[:, :, None], rho * sin[:, :, None]],
            axis=2,
        )
        acc = _recurrence(dtype, G, W, diag, T, D, reads, False)
        out, sine_eta, sine = np.split(acc, 3, axis=1)
    out = np.array(out, order="C")
    if degree:  # f(X²)·v + X·(-i·g(X²)·v), one GEMM with [P | Q]
        out += _times(np.hstack([P, Q]), np.vstack([sine_eta, sine * unit]), dtype)
    if B is not None:
        out = _times(B, out, dtype)
    if readout is not None:
        return out.T
    Y = np.empty((m, n), dtype=complex)
    Y[order] = out.T
    return Y


def _times(A: np.ndarray, X: np.ndarray, dtype) -> np.ndarray:
    """A·X for a C-ordered complex X: one real ``matmul`` on X's float64
    view when ``dtype`` is float64 (A real), else one complex one."""
    return np.matmul(A, X.view(dtype)).view(complex)


def _evolve_modes(
    ds: core.DriftSplit,
    eta: np.ndarray,
    X: np.ndarray,
    t: float,
    readout: np.ndarray | None = None,
) -> tuple[np.ndarray, str, int | None]:
    """Y[m] = exp(-it·H_m)·X[m] for H_m = -(η_m·C1h + C2h) and the (n, r)
    vectors X[m], with the kernel that ran and its largest degree in H. A
    mode whose vectors are all zero is left at zero. With a ``readout``
    (M, r, q) it is read out instead of returned: the (q, n) sum
    Σ_{m,v} readout[m, v] ⊗ Y[m, :, v], made by each kernel as it runs.

    The kernel is priced from measured costs. The polynomial
    (``_chebyshev_stack``) runs one product per degree over all its rows,
    one nonzero vector per row: a row-degree costs O(n²), and each step a
    fixed part more, since even one row's product reads both blocks. The
    ``eigh`` kernel (``_evolve_stack``) costs O(n³) per live mode,
    whatever its vector count. The ``eigh`` of C1h is charged to neither:
    the plan reads its eigenvalues, so it has run before either kernel is
    priced. In row-degrees the polynomial costs Σ (D + 3) + STEP_ROWS·(max
    D + 2) + 2·n over its rows (``_Polynomial.cost``), and the ``eigh``
    kernel REDUCTION_ROWS·n per live mode; the cheaper runs, the
    polynomial on a tie. Timed warm on 2 vCPUs (numpy 2.4, OpenBLAS 0.3),
    with every row at one degree D, the two break even at these D/n (the
    range over three runs, each a line through the least of up to 21
    times at two D; random splits with a dense C1h):

        general split (complex steps, zgemm)
        n    rows = 1      8              64             256
        4    -3.14..-1.59  -18.85..-1.92  -0.85..-0.66   -0.00..0.05
        8    -1.35..-1.31  -0.45..-0.36   1.37..1.52     2.25..2.39
        16   -0.49..-0.43  0.83..0.85     3.23..3.40     4.12..12.07
        32   -0.19..-0.14  0.58..2.22     2.47..2.70     3.56..3.82
        65   0.25..0.67    1.73..2.04     4.02..4.31     4.54..4.72
        128  0.47..0.85    3.41..4.98     5.76..10.59    5.09..5.49
        256  -1.75..0.71   2.68..3.47     3.96..4.45     3.63..4.24
        512  0.45..0.56    1.82..2.19     3.62..3.82     3.37..4.03

        real split (real steps, dgemm)
        4    -2.97..-2.74  -2.10..-1.87   -0.88..0.75    0.13..0.17
        8    -23.99..-1.10 -0.47..-0.43   1.51..1.63     2.38..2.50
        16   -0.50..-0.44  0.86..7.52     3.65..3.94     4.86..5.06
        32   -0.05..-0.04  1.39..1.45     3.50..3.67     4.05..4.35
        65   0.42..0.50    2.52..2.72     1.95..3.93     4.73..5.08
        128  1.19..1.43    4.48..15.83    6.71..10.59    5.10..6.22
        256  1.33..2.36    3.10..4.71     5.03..5.25     5.53..5.61
        512  0.58..0.67    3.05..3.16     3.97..5.73     4.85..6.39

    The rule's break-even is (REDUCTION_ROWS·rows - 2)/(rows + STEP_ROWS),
    less at most 3/n: -0.05, 0.43, 1.09 and 1.26 for 1, 8, 64 and 256
    rows. The cells with few rows or small n are noisy, as both kernels
    take well under a millisecond there. Where the rule gives the
    polynomial a step, it sits below the measured break-even, so near it
    the ``eigh`` kernel runs, except at n <= 8 for D = 1 or 2, where timed
    directly the steps cost more than the decomposition: n = 4 with 64
    rows (0.39-0.41 ms against 0.30-0.31) and 256 rows (1.15-1.23 ms
    against 0.87-1.09), and n = 8 with 8 rows (0.20-0.22 ms against 0.14).
    The polynomial's fixed 0.2 ms per call is no multiple of n, so no
    pair of constants puts those cells right and keeps the polynomial at
    D = 0.8·n for n = 32 and 64 rows, where it is three times faster. For
    one row the rule is below -2/n, so the polynomial runs only where no
    step runs, and the ``eigh`` kernel wherever one would: at n <= 32,
    whose one-row break-even lies below 0, that is the cheaper kernel
    too."""
    n = X.shape[1]
    nonzero = X.any(axis=1)  # (M, r)
    live = np.flatnonzero(nonzero.any(axis=1))
    plan = _chebyshev_plan(
        ds, eta[live], t, nonzero[live].sum(axis=1), REDUCTION_ROWS * n * live.size
    )
    if plan is None:
        rows, kernel, degree = (live,), "eigh", None
        read = None if readout is None else readout[live]
        out = _evolve_stack(ds, eta[live], X[live], t, read)
    else:
        mode, vec = np.nonzero(nonzero[live])  # mode indexes live
        rows, kernel = (live[mode], slice(None), vec), "chebyshev"
        picked = plan._replace(R=plan.R[mode], D=plan.D[mode])
        read = None if readout is None else readout[live[mode], vec]
        out = _chebyshev_stack(ds, X[rows], eta[live][mode], t, picked, read)
        degree = picked.degree
    if readout is None:  # the identity: each row's vectors where they came from
        Y = np.zeros_like(X)
        Y[rows] = out
        out = Y
    return out, kernel, degree


def _real_split(ds: core.DriftSplit) -> bool:
    """Whether C1h is real and C2h purely imaginary, exactly."""
    return not ds.C1h.imag.any() and not ds.C2h.real.any()


def evolve_path(ds: core.DriftSplit) -> str:
    """The path ``propagate`` takes for split ``ds``, from exact tests with
    no tolerance: "hermitian" when C2h is zero (C == C†; ``evolve`` runs
    it as one of the next two); "real" when C1h.imag and C2h.real are
    zero; "general" otherwise. A C that is Hermitian or real only to
    rounding takes a slower path."""
    if not ds.C2h.any():
        return "hermitian"
    return "real" if _real_split(ds) else "general"


def _phase_blocks(
    mu: np.ndarray, grid: Grid, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The phases e^{-itμ_j·η_k} on ``make_grid``'s ladder η_k = k·π/L,
    k = k_0..N/2 consecutive, as two blocks of powers.

    With the slot written as B·a + b (B about √N), k = k_0 + B·a + b, so the
    phase of slot B·a + b is outer[j, a]·inner[j, b], for the (n, N/B)
    block ``outer`` = e^{iθ_j·k_0}·(e^{iθ_j·B})^a and the (n, B) block
    ``inner`` = (e^{iθ_j})^b, θ_j = -tμ_j·π/L: cumulative products along
    the rows, from 3n complex exponentials. Their about √N roundings add
    little to the error that the size of the argument θ_j·k sets, as in a
    direct exponential of it.
    """
    N = grid.N
    B = 1 << (N.bit_length() - 1) // 2
    theta = (-t * grid.deta) * mu  # phase per unit step in k
    blocks = []
    for first, step, count in (
        (np.exp(1j * (theta * (1 - N // 2))), np.exp(1j * (theta * B)), N // B),
        (1.0, np.exp(1j * theta), B),
    ):
        P = np.empty((theta.size, count), dtype=complex)
        P[:, 0], P[:, 1:] = first, step[:, None]
        blocks.append(np.cumprod(P, axis=1, out=P))
    return tuple(blocks)


def evolve(s: SpectralState, ds: core.DriftSplit, t: float) -> SpectralState:
    """Propagate each mode column of ``s`` by exp(-i·t·H_k), with
    H_k = -(η_k·C1h + C2h) built from the split ``ds`` on the state's own
    grid ``s.grid``. Norm-preserving to rounding, and for the polynomial
    to its CHEBYSHEV_EPS (kernels below). C1h and C2h must be
    Hermitian; ``core.split`` makes them so exactly.

    The path is "real" when ``_real_split`` holds and "general" otherwise;
    a split ``evolve_path`` names "hermitian" runs as one of the two (only
    ``propagate`` reads it out by its phases):

    - "real" (C1h with zero imaginary part, C2h with zero real part; a
      grid's ladder η_k = πk/L has η_{-k} = -η_k bit for bit):
      H_{-k} = -conj(H_k), so only the modes k = 0..N/2 are evolved, each
      applied to v_k and conj(v_{-k}); the k < 0 column is
      conj(exp(-itH_{|k|})·conj(v_{-k})). This holds for complex states
      too. When every column -k is the conjugate of column k bit for bit
      (an exact test, no tolerance), as in the cut start ``initial_state``
      builds from a real x0, the two vectors are one: each pair evolves
      v_k alone and column -k is its conjugate, so the state stays exactly
      conjugate-symmetric. Any other state, such as one from a complex x0,
      evolves both.
    - "general": every mode is evolved.

    Both run one of two kernels (``_evolve_modes`` picks it; the result
    records it as ``kernel``):

    - "eigh" (``_evolve_stack``): per mode, an eigendecomposition of H_k,
      stacked over a chunk of modes, applied to the mode's vectors only, on
      numpy's LAPACK and BLAS; O(n³) per mode for n = d + 1, whatever t.
    - "chebyshev" (``_chebyshev_stack``): centred at the midpoint of C1h's
      interval (``_chebyshev_plan``), X_k = H_k - x_k, exp(-itX_k) is
      cos(t|X_k|) - i·X_k·sin(t|X_k|)/|X_k|, two series in X_k² of degree
      D_k about t/2 times the spread of |X_k| (2·D_k + 1 in H_k), one GEMM
      per degree shared by every mode, on numpy's BLAS, in the eigenbasis
      of C1h (``DriftSplit.eigh``, the split's one decomposition, whose
      eigenvalues the plan reads on either kernel), where
      P = centre·I - C1h is the diagonal p: the blocks
      [p∘Q̃ + Q̃∘p | Q̃² - κ0] (``_folded_plan``) times the stacked vectors,
      plus the diagonal (p² - κ2)·η² times the vectors, minus the term
      before, subtracted in place. On a real split the basis and the blocks
      are real and the GEMM is a real ``matmul`` on the float64 views;
      O(D_k·n²) per vector. An eigenvalue alone across a gap that holds the
      midpoint folds onto the rest, so it widens |X_k| little where it
      would double the interval of H_k.

    ``evolve`` reads each kernel out by the identity, so it returns the
    rows themselves (``_evolve_modes``); ``propagate`` reads them out by
    ``recover``'s weights instead and does not call ``evolve``.

    The polynomial runs when its measured cost (``_evolve_modes``) is at
    most REDUCTION_ROWS·n × the modes the ``eigh`` kernel would decompose,
    which is the case for short times and low modes, with many vectors;
    ``max_degree`` records its largest degree in H_k.

    Memory is O(d² + N·d) besides the ``eigh`` kernel's chunk, about
    2·EIGH_BYTES; no (N, d+1, d+1) stack is built.

    A mode whose vector is exactly zero stays zero, so neither path
    evolves it (on the real path, a pair k, -k is evolved when either
    vector is nonzero); ``initial_state``'s cut makes such modes.
    """
    t = core.require_time(t)
    grid = s.grid
    eta, N, dim = grid.eta, grid.N, ds.C1h.shape[0]
    if s.values.shape != (dim, N):
        raise DimensionError("state and drift split dimensions differ")
    vals = np.ascontiguousarray(s.values, dtype=complex)
    h = N // 2 - 1  # slot of k = 0; slots h+1..N-1 hold k = 1..N/2
    if _real_split(ds):
        # row m is mode k = m (slot h + m); its second vector is conj(v_{-k}),
        # at slot h - m, for k = 1..N/2-1, unless that equals v_k bit for bit
        neg = vals[:, h - 1 :: -1]
        paired = np.array_equal(neg.conj(), vals[:, h + 1 : N - 1])
        X = np.zeros((N - h, dim, 1 if paired else 2), dtype=complex)
        X[:, :, 0] = vals[:, h:].T
        if not paired:
            X[1 : h + 1, :, 1] = neg.T.conj()
        Y, kernel, degree = _evolve_modes(ds, eta[h:], X, t)
        out = np.empty_like(vals)
        out[:, h:] = Y[:, :, 0].T
        out[:, h - 1 :: -1] = Y[1 : h + 1, :, -1].T.conj()
    else:
        Y, kernel, degree = _evolve_modes(ds, eta, vals.T[:, :, None], t)
        out = Y[:, :, 0].T  # a Fortran-ordered view; no second copy
    return SpectralState(
        values=out, grid=grid, time=s.time + t, kernel=kernel, max_degree=degree
    )


def recover(s: SpectralState, p_min: float = 0.0) -> RecoveredState:
    """Read x(t) out of the spectral state on its grid ``s.grid``: the
    least-squares fit of v(t, p_l) ≈ e^{-p_l} x̂ over all p_l > max(0, p_min)
    of the warped state v, the projection onto the positive-p subspace that
    averages out per-point discretisation noise (the recovery of Jin, Liu &
    Yu, arXiv:2212.13969); the only readout. The fit is linear in v, so it
    is read off the spectral values Y: x̂ = Y·r for the weights r of
    ``_readout_weights``, and ‖v‖ = √N·deta·‖Y‖_F by Parseval
    (``_recovered``). Both are einsums, which call no BLAS, so the readout
    adds no threaded call to the op (see the module docstring).
    ``propagate`` applies the same weights inside the kernel
    (``_kernel_readout``), or to the phases on a Hermitian C
    (``_phase_readout``), so it never calls ``recover``, which serves a
    state that ``evolve`` made.

    p_min shifts the readout window right: when the Hermitian drift part
    has positive eigenvalues the profile kink travels right at that speed,
    and the exponential profile only survives beyond the kink's position.
    """
    r = _readout_weights(s.grid, p_min)
    Y = s.values
    xhat = np.einsum("ij,j->i", Y, r)
    ynorm = math.sqrt(
        float(np.einsum("ij,ij->", Y.real, Y.real) + np.einsum("ij,ij->", Y.imag, Y.imag))
    )
    return _recovered(xhat, ynorm, s.grid, s.time)


def _readout_weights(grid: Grid, p_min: float) -> np.ndarray:
    """The weights r of ``recover``'s fit, x̂ = Y·r: with u_l = e^{-p_l} on
    the window p_l > max(0, p_min) and 0 elsewhere,
    r_k = deta·(-1)^k·FFT(u)[k mod N] / ‖u‖². An empty window raises
    DegenerateRecoveryError, weights that all underflow NumericalError."""
    floor = max(0.0, p_min)
    pos = grid.p > floor
    if not np.any(pos):
        raise DegenerateRecoveryError(
            f"no grid points beyond the readout floor p > {floor:.3f}"
        )
    u = np.zeros(grid.N)
    u[pos] = np.exp(-grid.p[pos])
    if not (norm2 := u @ u) > 0.0:  # e^{-p} underflows for every p past about 745
        raise NumericalError(f"readout weights underflow beyond p > {floor:.3f}")
    m, sign = _bins_and_signs(grid)
    return np.fft.fft(u)[m] * (sign * (grid.deta / norm2))


def _recovered(
    xhat: np.ndarray, ynorm: float, grid: Grid, time: float, **record
) -> RecoveredState:
    """The readout x̂ of a spectral state of Frobenius norm ``ynorm`` at
    ``time``, with its success probability ‖x̂‖²·Σ_{p>0} e^{-2p} / ‖v‖²
    (clamped to 1), ‖v‖ = √N·deta·ynorm, and the ``record`` fields of
    ``RecoveredState``. A non-finite x̂ raises NumericalError, a zero one
    DegenerateRecoveryError. The points p > 0 are j·dp for j = 1..N/2-1
    (p_{N/2} = -L + (N/2)·dp is exactly 0 for a power-of-two N), so
    Σ_{p>0} e^{-2p} is a geometric series."""
    if not np.all(np.isfinite(xhat)):
        raise NumericalError("recovered amplitude vector has non-finite entries")
    xnorm = float(np.linalg.norm(xhat))
    if xnorm < 1e-300:
        raise DegenerateRecoveryError("recovered amplitude vector has zero norm")
    wnorm = math.sqrt(grid.N) * grid.deta * ynorm
    q = -2.0 * grid.dp  # Σ_{j=1}^{N/2-1} e^{jq}
    env_norm = math.sqrt(math.exp(q) * math.expm1(q * (grid.N // 2 - 1)) / math.expm1(q))
    prob = min(1.0, (xnorm * env_norm / wnorm) ** 2) if wnorm > 0 else 0.0
    return RecoveredState(
        x=xhat, state=xhat / xnorm, success_probability=prob, time=time, grid=grid, **record
    )


def _phase_readout(x0, psi, r, ds: core.DriftSplit, grid: Grid, t: float) -> np.ndarray:
    """The readout x̂ of ``recover(evolve(initial_state(x0, grid, profile)))``
    for a Hermitian C, whose split ``ds`` has C1h = W·diag(λ)·W†
    (``ds.eigh``), from the cut ψ̂ of the profile and ``recover``'s weights
    r, without the (d+1)×N state.

    -C1h = W·diag(μ)·W† with μ = -λ. In W's coordinates the start is c⊗ψ̂
    with c = W†x0. Evolution multiplies entry (j, k) by e^{-itμ_jη_k}, and
    the readout is x̂ = W·(Y·r), so x̂ = W·(c ∘ Φ) with
    Φ_j = Σ_k r_k·ψ̂_k·e^{-itμ_jη_k} over the live modes: the phase blocks
    of ``_phase_blocks`` turn that sum into one (n, B)·(B, N/B) product and
    a row-wise dot with the (n, N/B) block. Memory is O(N + d·√N); every
    call is numpy's."""
    lam, W = ds.eigh
    outer, inner = _phase_blocks(-lam, grid, t)
    phi = np.einsum("ja,ja->j", outer, inner @ (r * psi).reshape(outer.shape[1], -1).T)
    return W @ ((W.conj().T @ x0) * phi)


def _kernel_readout(
    x0, psi, r, ds: core.DriftSplit, grid: Grid, t: float
) -> tuple[np.ndarray, str, int | None]:
    """The readout x̂ of ``recover(evolve(initial_state(x0, grid, profile)))``
    on the real and general paths, from the cut ψ̂ of the profile and
    ``recover``'s weights r, without the (d+1)×N state, with the kernel that
    ran and its largest degree.

    The start's rows are ψ̂_k·x0 for the modes the cut keeps, and the kernel
    (``_evolve_modes``) reads them out by r as it evolves them:
    x̂ = Σ_k r_k·exp(-itH_k)·ψ̂_k·x0. The general path has one readout
    column. The real path evolves the modes k = 0..N/2 alone (see
    ``evolve``) and reads them out into two columns: r_k, and conj(r_{-k})
    for the partner -k, whose evolved vector is the conjugate of the row's,
    so x̂ is the first column plus the conjugate of the second. For a real
    x0 the row ψ̂_k·x0 serves both, as conj(ψ̂_{-k}·x0) = ψ̂_k·x0; a complex
    x0 adds conj(ψ̂_{-k}·x0) as a second vector. Only the kept rows are
    built, which the kernel evolves."""
    real = _real_split(ds)
    h = grid.N // 2 - 1  # slot of k = 0
    kept = np.flatnonzero(psi)
    if real:
        kept = kept[kept >= h]  # k = 0..N/2
    X = (psi[kept, None] * x0)[:, :, None]
    readout = r[kept, None, None]
    if real:
        partnered = (kept > h) & (kept < grid.N - 1)  # 0 < k < N/2
        # conj(r_{-k}), r_{-k} at slot 2h - (h + k)
        back = np.where(partnered, r[np.where(partnered, 2 * h - kept, 0)].conj(), 0.0)
        if x0.imag.any():  # a second vector conj(ψ̂_{-k}·x0) = ψ̂_k·conj(x0)
            second = np.where(partnered[:, None], psi[kept, None] * x0.conj(), 0.0)
            X = np.concatenate([X, second[:, :, None]], axis=2)
            readout = np.zeros((kept.size, 2, 2), dtype=complex)
            readout[:, 0, 0], readout[:, 1, 1] = r[kept], back
        else:
            readout = np.stack([r[kept], back], axis=1)[:, None, :]
    out, kernel, degree = _evolve_modes(ds, grid.eta[kept], X, t, readout)
    return (out[0] + out[1].conj() if real else out[0]), kernel, degree


def propagate(
    C, x0, t: float, grid: Grid, profile: Profile = SMOOTH
) -> RecoveredState:
    """End-to-end: the transformed start state x0⊗ψ̂ of ``profile``
    (``SMOOTH`` by default, seam-blended by ``sample_profile``) with its
    cut modes zeroed, per-mode unitary evolution and the spectral readout.
    Approximates e^{(C-I)t} x0 with error set by the p-grid resolution
    (time evolution is exact per mode, to rounding and the polynomial's
    CHEBYSHEV_EPS) and by the cut, whose relative warped-state error is
    the returned ``dropped_norm`` <= TRUNCATION_EPS. The cut depends on
    the profile and the grid alone (``_start_spectrum``), so
    ``dropped_norm`` and ``modes_evolved`` do not depend on x0 or C.

    No path builds the (d+1)×N state or calls ``evolve`` or ``recover``.
    The start's cut ψ̂ and ``recover``'s weights are made once, here, and
    each path returns x̂. The split's one ``eigh`` of C1h gives the kink
    speed on every path. On the "hermitian" path the work is done in its
    eigenbasis: the start, the phases and the readout are folded into one
    sum per eigenvector (``_phase_readout``). On the "real" and "general"
    paths the kept modes' rows ψ̂_k·x0 go to ``evolve``'s kernels, which
    read them out by the weights as they evolve them (``_kernel_readout``),
    so the readout is a sum the kernel adds up. On every path the warped
    norm is the start's ‖x0‖·‖ψ̂‖: evolution is a phase in an orthonormal
    basis, or unitary to rounding and to the polynomial's CHEBYSHEV_EPS per
    row, so the norm of the evolved state is not measured. C may also be
    given as its DriftSplit, which is used as it is, with the
    decomposition it has cached."""
    t = core.require_time(t)
    # exactly Hermitian parts, so the kernels need no check
    ds = C if isinstance(C, core.DriftSplit) else core.split(C)
    x0 = _start_vector(x0)
    if ds.C1h.shape[0] != x0.shape[0]:
        raise DimensionError("C and x0 dimensions differ")
    path = evolve_path(ds)
    # the polynomial's intervals, or on a Hermitian C the phase readout, reuse them
    top = float(ds.eigh[0][-1])
    if top > 1e-10:
        join = "kink" if profile.m == 0 else f"C^{profile.m} join"
        warnings.warn(
            f"Hermitian drift part is not negative semidefinite "
            f"(max eigenvalue {top:.3e}); the {join} of the {profile.name} "
            "profile at p = 0 drifts right and the readout window is shifted "
            "past it",
            stacklevel=2,
        )
    # the join at p = 0 travels right at the top Hermitian drift speed;
    # read only beyond it (a few cells of margin for the ringing around it)
    p_min = max(0.0, top) * t + 4.0 * grid.dp if top > 1e-10 else 0.0
    psi, dropped = _start_spectrum(profile, grid)
    r = _readout_weights(grid, p_min)
    if path == "hermitian":
        xhat, kernel, degree = _phase_readout(x0, psi, r, ds, grid, t), "phases", None
    else:
        xhat, kernel, degree = _kernel_readout(x0, psi, r, ds, grid, t)
    ynorm = float(np.linalg.norm(x0) * np.linalg.norm(psi))  # the start's
    return _recovered(
        xhat, ynorm, grid, t, profile=profile, modes_evolved=int(np.count_nonzero(psi)),
        dropped_norm=dropped, path=path, kernel=kernel, max_degree=degree,
    )
