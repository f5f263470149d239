"""Warped-phase spectral engine for linear drift systems.

The drift system dx/dt = (C - I)x is lifted to a transport equation in an
auxiliary coordinate p through the substitution v(t, p) = e^{-p} x(t), then
Fourier-transformed in p. Each Fourier mode η evolves under its own small
Hermitian generator -(η·C1h + C2h), so the whole evolution is a direct sum
of unitaries and preserves the global 2-norm. ``evolve`` applies them with
one of two kernels: per mode a reduction to tridiagonal form (O(d³) per
mode, exactly unitary) or, when its measured cost is lower, a Chebyshev
polynomial in products with C1h and C2h, batched over the modes (unitary
to rounding): the series of cos(t|X|) and sin(t|X|)/|X| in X², X = H_η
centred at the midpoint of C1h's interval, so its degree follows the
spread of |X| rather than that of X. Each polynomial step is one GEMM with the centre
and shift already in the matrix and the previous term subtracted by the
GEMM's beta; for a real C it is a real GEMM on the float64 view of the
complex vectors. The start ψ(p)·x0 is
separable, so its transform x0⊗ψ̂ takes one length-N transform of ψ
(``initial_state``); the readout, a least-squares fit of the p > 0 region,
is linear, so ``recover`` applies it to the spectral state and no transform
back to p runs. For a Hermitian C each mode's generator η·(-C1h) is
diagonal in one eigenbasis W of -C1h (``Eigenbasis``), so evolution is a
phase per entry in W's coordinates. With a separable start, phases and a
linear readout, ``propagate`` there builds no state at all: x̂ is
W·(c ∘ Φ) for c = W†x0 and one sum Φ_j of the readout weights times ψ̂
and the phases per eigenvalue μ_j (``_phase_readout``).

numpy and scipy each link their own OpenBLAS, each with a pool of threads
that keep spinning for about 0.1 s after a threaded call. On a machine
with few cores a threaded call on one pool can stall until the other
pool's threads stop spinning, so no op here wakes both pools: the
Hermitian phase readout runs on numpy's BLAS; the real and general paths
(the eigenvalues of C1h and C2h, every kernel, the polynomial's blocks
and ``default_domain_halfwidth`` without a basis) on scipy's; the
transforms, the truncation and ``recover`` call no BLAS.

The p < 0 half of the initial profile is free: x(t) is read from p > 0
only, where the profile is e^{-p}. ``Profile`` names the extensions in use;
the paper's e^{-|p|} has a kink at p = 0, ``SMOOTH`` is C^6 there and, as
``sample_profile`` puts it on a grid, C^8 across the periodic seam at ±L,
so its Fourier coefficients decay fast and the modes that carry almost no
mass can be left out of the evolution (``truncate``). ``propagate`` starts
from ``SMOOTH`` unless told otherwise.

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
import scipy.linalg
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
# relative 2-norm the polynomial kernel may drop from a vector: its bound
# on the coefficient tail beyond the degree it stops at
CHEBYSHEV_EPS = 1e-16
# the measured costs of the per-mode kernels (``_evolve_modes``) in
# row-degrees, one vector's product in one step of the polynomial: a step
# costs STEP_ROWS row-degrees besides its rows, a mode's reduction
# REDUCTION_ROWS·n
STEP_ROWS = 12
REDUCTION_ROWS = 1.33
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


@dataclass(frozen=True)
class Eigenbasis:
    """-C1h = W·diag(mu)·W† with W unitary, for a Hermitian C (C2h = 0):
    the coordinates in which every mode's generator η_k·(-C1h) is diagonal."""

    mu: np.ndarray
    W: np.ndarray


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
    relative norm it dropped (see ``truncate``), the ``evolve`` path that ran
    (see ``evolve_path``), its kernel ("phases", "reduction" or "chebyshev")
    and the largest polynomial degree in the generator (None off the
    polynomial; 2·D + 1 for its D steps, 0 where it is a phase)."""

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
    L = float(L)
    p = -L + (2.0 * L / N) * np.arange(N)
    k = np.arange(-N // 2 + 1, N // 2 + 1)
    return Grid(N=N, L=L, p=p, eta=np.pi * k / L, mode_index=k)


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


def default_domain_halfwidth(
    C1h: np.ndarray | core.DriftSplit,
    t: float,
    basis: Eigenbasis | None = None,
) -> float:
    """Half-width rule: transport speed is bounded by the largest Hermitian
    drift eigenvalue, so L = 4 + t·ρ keeps the p > 0 region clear of
    wrap-around while holding the boundary truncation e^{-L} small. ρ is
    read from the eigenbasis of -C1h when it is given (C1h is then not
    read), else from the ``c1h_eigenvalues`` of a DriftSplit passed in
    place of C1h, else from C1h's own eigenvalues."""
    if basis is not None:
        eigs = basis.mu
    elif isinstance(C1h, core.DriftSplit):
        eigs = C1h.c1h_eigenvalues
    else:  # scipy's, as on the paths that have no basis
        eigs = scipy.linalg.eigvalsh(core.real_if_exact(C1h), check_finite=False)
    return max(float(np.pi), 4.0 + t * float(np.max(np.abs(eigs), initial=0.0)))


def drift_eigenbasis(ds: core.DriftSplit) -> Eigenbasis:
    """Eigendecompose -C1h, in real arithmetic when C1h is real."""
    try:
        mu, W = np.linalg.eigh(-core.real_if_exact(ds.C1h))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of C1h failed: {exc}") from exc
    return Eigenbasis(mu=mu, W=W)


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


def initial_state(x0, grid: Grid, profile: Profile) -> SpectralState:
    """The transform of v(0, p) = ψ(p)·x0: x0⊗ψ̂, from one length-N transform
    of the profile ψ (``_profile_spectrum``). Mode k holds mass
    |ψ̂_k|²·‖x0‖², so the modes ``truncate`` keeps depend on ψ̂ alone.

    For a real x0 the column of -k is the conjugate of the column of k bit
    for bit, as ψ̂ is, which is the test ``evolve`` runs to evolve one
    vector per mode pair."""
    x0 = _start_vector(x0)
    psi = _profile_spectrum(profile, grid)
    return SpectralState(values=np.outer(x0, psi), grid=grid)


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
    would leave an imaginary part, and would cost the exact symmetry on
    which the real path of ``evolve`` evolves one vector per pair. That
    path evolves a pair when either column is nonzero, so a half pair
    saves no work.
    """
    mass = np.einsum("ij,ij->j", s.values.conj(), s.values).real
    cut, norm = _truncation(mass, s.grid)
    if cut is None:
        return s, 0.0
    values = s.values.copy()
    values[:, cut] = 0.0
    return replace(s, values=values), norm


def _truncation(mass: np.ndarray, grid: Grid) -> tuple[np.ndarray | None, float]:
    """``truncate``'s rule on the column masses ``mass`` (N,) of a state on
    ``grid``: the mask of the columns in the mode pairs (k, -k) of least
    combined mass whose total is at most TRUNCATION_EPS² of the whole, or
    None when there are none, and the relative norm they hold."""
    pair = np.abs(grid.mode_index)  # |k|, 0..N/2
    pair_mass = np.bincount(pair, weights=mass)
    order = np.argsort(pair_mass, kind="stable")
    cumulative = np.cumsum(pair_mass[order])
    total = cumulative[-1]
    dropped = int(np.searchsorted(cumulative, TRUNCATION_EPS**2 * total, "right"))
    if dropped == 0 or total == 0.0:
        return None, 0.0
    return np.isin(pair, order[:dropped]), float(np.sqrt(cumulative[dropped - 1] / total))


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


def _spectral_interval(M: np.ndarray) -> tuple[float, float]:
    """The extreme eigenvalues of a Hermitian M, in real arithmetic when M
    is real or purely imaginary: M = iA with A real antisymmetric has the
    eigenvalues ±σ(A), so its interval is ±sqrt(λmax(AᵀA)). All on scipy's
    LAPACK and BLAS, like the kernels the interval serves."""
    if not M.real.any():
        A = np.ascontiguousarray(M.imag)
        AtA = blas.dgemm(1.0, A.T, A.T, trans_b=1)  # A.T is Fortran-ordered
        top = math.sqrt(max(scipy.linalg.eigvalsh(AtA, check_finite=False)[-1], 0.0))
        return -top, top
    w = scipy.linalg.eigvalsh(core.real_if_exact(M), check_finite=False)
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
        put that part at 1.2-5.2·n, the median per row count). With every D
        at 0 no step runs and no block is built, so only the last product
        is charged, a row-degree per vector (it reads two blocks where a
        step reads three), and nothing when it is skipped too
        (``degree`` 0)."""
        if self.D.any():
            D = self.D + 2.0
            return float(vectors @ D + STEP_ROWS * D.max() + 2 * n)
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
    w1 = ds.c1h_eigenvalues
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
    off the split, and C2h is eigensolved once.

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
    w1 = ds.c1h_eigenvalues
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


def _recurrence(gemm, dtype, G, W, coefs, T0, D) -> list[np.ndarray]:
    """Σ_{j<=D} coef[j]·T_j(y)·v for every coefficient table of ``coefs``
    and every column v of T0 (n, m), columns in descending D, where
    y·v = (G·[W_0·v ; W_1·v ; ...]) / 2 for the blocks [G_0 | G_1 | ...]
    of G (n, nb·n) and the per-column weights W (nb, m).

    The vectors are the columns of C-ordered (n, k) arrays, whose float64
    views are (n, 2k): each vector's real and imaginary parts are two real
    columns, so a real G runs each step as one ``dgemm`` on those views
    and a complex G as one ``zgemm``. Step j of
    T_{j+1} = 2y·T_j - T_{j-1} is that one GEMM with the stacked weighted
    columns, written in place over T_{j-1} by its beta = -1 (T_{-1} = 0,
    alpha = 1/2 gives T_1 = y·T_0). A column past its D keeps being
    stepped, with zero coefficients, until the live columns have fallen
    to 7/8 of the buffers; only then are the buffers copied down to them."""
    n, m = T0.shape
    nb = W.shape[0]
    top = int(D[0]) if m else 0
    cur = np.array(T0, dtype=complex, order="C")  # T_0, a vector per column
    prev = np.zeros_like(cur)  # T_{-1}
    acc = [cur * coef[0] for coef in coefs]
    done = [np.empty((n, m), dtype=complex) for _ in coefs]
    buf = np.empty(nb * n * m, dtype=complex)
    active = np.searchsorted(-D, -np.arange(top + 1), side="right")
    width = m
    for j in range(1, top + 1):
        k = active[j]  # columns with D >= j
        if 8 * k <= 7 * width:  # one copy at a time keeps the peak memory low
            for out, a in zip(done, acc):
                out[:, k:width] = a[:, k:]
            acc = [a[:, :k].copy() for a in acc]
            cur = cur[:, :k].copy()
            prev = prev[:, :k].copy()
            width = k
        stacked = buf[: nb * n * width].reshape(nb * n, width)
        for i in range(nb):
            np.multiply(cur, W[i, :width], out=stacked[i * n : (i + 1) * n])
        # the transposed views are Fortran-ordered, so the GEMM copies
        # nothing: prevᵀ <- alpha·stackedᵀ·Gᵀ - prevᵀ
        prev = gemm(
            0.5 if j == 1 else 1.0,
            stacked.view(dtype).T,
            G.T,
            beta=-1.0,
            c=prev.view(dtype).T,
            overwrite_c=1,
        ).T.view(complex)
        prev, cur = cur, prev
        for coef, a in zip(coefs, acc):
            np.multiply(cur, coef[j, :width], out=stacked[:n])
            a += stacked[:n]
    for out, a in zip(done, acc):
        out[:, :width] = a
    return done


def _chebyshev_stack(
    ds: core.DriftSplit, V: np.ndarray, eta: np.ndarray, t: float, plan: _Polynomial
) -> np.ndarray:
    """exp(-itH)·v for each row v of V (m, n), H = -(η·C1h + C2h) at the
    row's own η, by the polynomial ``plan`` (``_Polynomial``). With x the
    row's centre and X = η·P + Q = H - x, exp(-itX) = f(X²) - i·X·g(X²)
    with f(ζ) = cos(t√ζ) and g(ζ) = sin(t√ζ)/√ζ: two series that share one
    recurrence, each step one GEMM with [P² - κ2·I | PQ + QP | Q² - κ0·I]
    on (η²·T_j ; η·T_j ; T_j), and one last GEMM with [P | Q] for X·g.
    Where no step runs (every D 0) the blocks are not built, and where X·g
    vanishes (``degree`` 0) the last GEMM is not made either.

    The coefficients are FFTs of f and g at c + R cos θ
    (``_coefficients``). On a real split (C1h.imag and C2h.real exactly
    zero, as ``evolve_path`` tests) C2h = i·A with A real antisymmetric,
    whose interval is symmetric, so m2 = 0 and Q = -i·A: each block is
    real once the weight of Q carries its i (weights η², i·η and 1; η and
    i), and each step is one scipy ``dgemm`` on the float64 views, at half
    the flops of a general split's ``zgemm`` and about 0.6× its time. The
    blocks are built by scipy's GEMM too (see the module docstring for
    why). Unitary to rounding, not exactly."""
    centre, m2, R, D, kappa2, kappa0, degree = plan
    m, n = V.shape
    order = np.argsort(-D, kind="stable")
    R, D, eta = R[order], D[order], eta[order]
    phase = np.exp(1j * t * (eta * centre + m2))  # e^{-itx}
    if _real_split(ds):
        P, Q = centre * np.eye(n) - ds.C1h.real, -ds.C2h.imag
        gemm, dtype, unit, unit2 = blas.dgemm, np.float64, 1j, -1.0
    else:
        P, Q = centre * np.eye(n) - ds.C1h, m2 * np.eye(n) - ds.C2h
        gemm, dtype, unit, unit2 = blas.zgemm, complex, 1.0, 1.0
    c = kappa2 * eta * eta + kappa0

    def root(x, rows):
        return np.sqrt(np.maximum(c[rows, None] + R[rows, None] * x, 0.0))

    coefs = [
        _coefficients(lambda x, rows: np.cos(t * root(x, rows)), D, phase),
        _coefficients(
            lambda x, rows: t * np.sinc(t / np.pi * root(x, rows)), D, -1j * phase
        ),
    ]
    G = None
    if D.any():

        def product(A, B):  # A·B of C-ordered A and B, whose .T are Fortran-ordered
            return gemm(1.0, B.T, A.T).T

        PQ = product(P, Q)
        G = np.hstack([
            product(P, P) - kappa2 * np.eye(n),
            PQ + unit2 * PQ.conj().T,  # PQ + QP, for P = Pᴴ and Q = unit2·Qᴴ
            unit2 * product(Q, Q) - kappa0 * np.eye(n),
        ])
    f = np.divide(2.0, R, out=np.zeros_like(R), where=R > 0)
    W = np.array([f * eta * eta, f * unit * eta, f], dtype=complex)
    out, sine = _recurrence(gemm, dtype, G, W, coefs, V[order].T, D)
    if degree:  # f(X²)·v + X·(-i·g(X²)·v), one GEMM with [P | Q]
        stacked = np.vstack([sine * eta, sine * unit])
        out = gemm(
            1.0,
            stacked.view(dtype).T,
            np.hstack([P, Q]).T,
            beta=1.0,
            c=out.view(dtype).T,
            overwrite_c=1,
        ).T.view(complex)
    Y = np.empty((m, n), dtype=complex)
    Y[order] = out.T
    return Y


def _evolve_modes(
    ds: core.DriftSplit, eta: np.ndarray, X: np.ndarray, t: float
) -> tuple[np.ndarray, str, int | None]:
    """Y[m] = exp(-it·H_m)·X[m] for H_m = -(η_m·C1h + C2h) and the (n, r)
    vectors X[m], with the kernel that ran and its largest degree in H. A
    mode whose vectors are all zero is left at zero.

    The kernel is priced from measured costs. The polynomial
    (``_chebyshev_stack``) runs one product per degree over all its rows,
    one nonzero vector per row: a row-degree costs O(n²), and each step a
    fixed part more, since even one row's product reads all three blocks.
    The reduction (``_evolve_stack``) costs O(n³) per live mode, whatever
    its vector count. In row-degrees the polynomial costs
    Σ (D + 2) + STEP_ROWS·(max D + 2) + 2·n over its rows
    (``_Polynomial.cost``), and the reduction REDUCTION_ROWS·n per live
    mode; the cheaper runs, the polynomial on a tie. Timed warm on 2 vCPUs
    (OpenBLAS 0.3, scipy's BLAS), with every row at one degree D, the
    polynomial and the reduction break even at these D/n (the range over
    three runs, each a line through the times at two D), against the
    rule's (REDUCTION_ROWS·rows - 2)/(rows + STEP_ROWS), less 2/n:

        general split (zgemm steps)
        rows n = 32       65           128          256          512          rule
        1    -0.07..-0.06 0.04..0.07   -0.14..-0.03 -0.04..0.23  -0.01..0.00  -0.05
        8    1.32..1.42   1.28..1.32   1.23..2.02   1.13..1.13   0.61..0.64   0.43
        64   3.37..3.58   2.87..3.09   2.34..2.38   1.91..2.00   1.51..1.66   1.09
        256  4.76..5.11   3.29..3.43   2.91..3.56   1.90..2.17   1.45..1.65   1.26

        real split (dgemm steps)
        1    -0.04..0.02  0.29..0.30   0.48..0.52   0.54..1.21   0.16..0.17   -0.05
        8    1.57..1.75   2.17..2.34   2.22..4.16   1.94..1.95   1.21..1.21   0.43
        64   4.71..5.10   3.57..3.73   3.27..3.45   2.72..2.83   1.76..2.11   1.09
        256  5.36..5.75   4.53..4.90   4.18..5.20   3.01..3.56   2.22..2.54   1.26

    A reduction costs 1.5-5.9·n row-degrees of the general polynomial and
    2.1-18·n of the real one (most for one row, where a step's fixed part
    counts). The rule sits below the measured break-even everywhere it is
    positive, so near it the reduction, which is exactly unitary, runs;
    one row takes the polynomial only where no step runs."""
    n = X.shape[1]
    nonzero = X.any(axis=1)  # (M, r)
    live = np.flatnonzero(nonzero.any(axis=1))
    Y = np.zeros_like(X)
    plan = _chebyshev_plan(
        ds, eta[live], t, nonzero[live].sum(axis=1), REDUCTION_ROWS * n * live.size
    )
    if plan is None:
        Y[live] = _evolve_stack(_split_blocks(ds, eta[live]), X[live], t)
        return Y, "reduction", None
    mode, vec = np.nonzero(nonzero[live])  # mode indexes live
    picked = plan._replace(R=plan.R[mode], D=plan.D[mode])
    rows = X[live[mode], :, vec]  # one nonzero vector per row
    Y[live[mode], :, vec] = _chebyshev_stack(ds, rows, eta[live][mode], t, picked)
    return Y, "chebyshev", picked.degree


def _real_split(ds: core.DriftSplit) -> bool:
    """Whether C1h is real and C2h purely imaginary, exactly."""
    return not ds.C1h.imag.any() and not ds.C2h.real.any()


def evolve_path(ds: core.DriftSplit, grid: Grid) -> str:
    """The path ``propagate`` takes for split ``ds`` on ``grid``, from exact
    tests with no tolerance: "hermitian" when C2h is zero (C == C†) and
    the modes are ``make_grid``'s ladder η_k = πk/L (``evolve`` runs it
    as one of the next two); "real" when C1h.imag and C2h.real are zero
    and the ladder is symmetric (η_{-k} == -η_k bit for bit); "general"
    otherwise. A C that is Hermitian or real only to rounding takes a
    slower path."""
    eta, N = grid.eta, grid.N
    h = N // 2 - 1  # slot of k = 0
    ladder = np.pi * np.arange(-N // 2 + 1, N // 2 + 1) / grid.L
    if not ds.C2h.any() and np.array_equal(eta, ladder):
        return "hermitian"
    if _real_split(ds) and np.array_equal(-eta[:h], eta[N - 2 : h : -1]):
        return "real"
    return "general"


def _phase_blocks(
    mu: np.ndarray, grid: Grid, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The phases e^{-itμ_j·η_k} on ``make_grid``'s ladder η_k = k·π/L,
    k = k_0..N/2 consecutive, as two blocks of exponentials.

    With the slot written as B·a + b (B about √N), k = k_0 + B·a + b, so the
    phase of slot B·a + b is outer[j, a]·inner[j, b], for the (n, N/B)
    block ``outer`` and the (n, B) block ``inner``: n·(N/B + B) complex
    exponentials instead of n·N.
    """
    N = grid.N
    B = 1 << (N.bit_length() - 1) // 2
    theta = (-t * grid.deta) * mu  # phase per unit step in k
    outer = np.exp(1j * np.outer(theta, np.arange(-N // 2 + 1, N // 2 + 1, B)))
    inner = np.exp(1j * np.outer(theta, np.arange(B)))
    return outer, inner


def evolve(s: SpectralState, ds: core.DriftSplit, t: float) -> SpectralState:
    """Propagate each mode column of ``s`` by exp(-i·t·H_k), with
    H_k = -(η_k·C1h + C2h) built from the split ``ds`` on the state's own
    grid ``s.grid``. Norm-preserving: exactly for the reduction, to
    rounding for the polynomial (kernels below). C1h and C2h must be
    Hermitian; ``core.split`` makes them so exactly.

    The path is the one ``evolve_path`` names from ``ds`` and ``s.grid``,
    except that a "hermitian" split runs as "real" when it is real and as
    "general" otherwise (only ``propagate`` reads it out by its phases):

    - "real" (C1h with zero imaginary part, C2h with zero real part, on a
      symmetric mode ladder): H_{-k} = -conj(H_k), so only the modes
      k = 0..N/2 are evolved, each applied to v_k and conj(v_{-k}); the
      k < 0 column is conj(exp(-itH_{|k|})·conj(v_{-k})). This holds for
      complex states too. When every column -k is the conjugate of column
      k bit for bit (an exact test, no tolerance), as in the start
      ``initial_state`` builds from a real x0 and in what ``truncate``
      leaves of it, the two vectors are one: each pair evolves v_k alone
      and column -k is its conjugate, so the state stays exactly
      conjugate-symmetric. Any other state, such as one from a complex x0,
      evolves both.
    - "general": every mode is evolved.

    Both run one of two kernels (``_evolve_modes`` picks it; the result
    records it as ``kernel``):

    - "reduction" (``_evolve_stack``): per mode, Householder
      tridiagonalisation and a real tridiagonal eigensolve, applied to the
      mode's vectors only, on scipy's LAPACK and BLAS; O(n³) per mode for
      n = d + 1, whatever t.
    - "chebyshev" (``_chebyshev_stack``): centred at the midpoint of C1h's
      interval (``_chebyshev_plan``), X_k = H_k - x_k, exp(-itX_k) is
      cos(t|X_k|) - i·X_k·sin(t|X_k|)/|X_k|, two series in X_k² of degree
      D_k about t/2 times the spread of |X_k| (2·D_k + 1 in H_k), one GEMM
      per degree shared by every mode, on scipy's BLAS: the blocks
      [P² - κ2 | PQ + QP | Q² - κ0] (``_folded_plan``) times the stacked
      vectors, minus the term before through the GEMM's beta = -1. On a
      real split the blocks are real and the GEMM is a ``dgemm`` on the
      float64 views (about 0.6× the time of the ``zgemm`` a general split
      runs); O(D_k·n²) per vector. An eigenvalue alone across a gap
      that holds the midpoint folds onto the rest, so it widens |X_k|
      little where it would double the interval of H_k.

    The polynomial runs when its measured cost (``_evolve_modes``) is at
    most REDUCTION_ROWS·n × the modes the reduction would decompose, which
    is the case for short times and low modes, with many vectors;
    ``max_degree`` records its largest degree in H_k.

    Memory is O(d² + N·d); no (N, d+1, d+1) stack is built.

    A mode whose vector is exactly zero stays zero, so neither path
    evolves it (on the real path, a pair k, -k is evolved when either
    vector is nonzero); ``truncate`` makes such modes.
    """
    t = core.require_time(t)
    grid = s.grid
    eta, N, dim = grid.eta, grid.N, ds.C1h.shape[0]
    if s.values.shape != (dim, N):
        raise DimensionError("state and drift split dimensions differ")
    vals = np.ascontiguousarray(s.values, dtype=complex)
    h = N // 2 - 1  # slot of k = 0; slots h+1..N-1 hold k = 1..N/2
    path = evolve_path(ds, grid)
    # make_grid's ladder, which the Hermitian path needs, is symmetric
    if path == "real" or (path == "hermitian" and _real_split(ds)):
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
    (``_recovered``). Both are einsums, which call no BLAS, so no thread
    pool wakes (see the module docstring).

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


def _recovered(xhat: np.ndarray, ynorm: float, grid: Grid, time: float) -> RecoveredState:
    """The readout x̂ of a spectral state of Frobenius norm ``ynorm`` at
    ``time``, with its success probability ‖x̂‖²·Σ_{p>0} e^{-2p} / ‖v‖²
    (clamped to 1), ‖v‖ = √N·deta·ynorm. A non-finite x̂ raises
    NumericalError, a zero one DegenerateRecoveryError."""
    if not np.all(np.isfinite(xhat)):
        raise NumericalError("recovered amplitude vector has non-finite entries")
    xnorm = float(np.linalg.norm(xhat))
    if xnorm < 1e-300:
        raise DegenerateRecoveryError("recovered amplitude vector has zero norm")
    wnorm = math.sqrt(grid.N) * grid.deta * ynorm
    env_norm = float(np.sqrt(np.sum(np.exp(-2.0 * grid.p[grid.p > 0]))))
    prob = min(1.0, (xnorm * env_norm / wnorm) ** 2) if wnorm > 0 else 0.0
    return RecoveredState(
        x=xhat, state=xhat / xnorm, success_probability=prob, time=time, grid=grid
    )


def _phase_readout(
    x0, grid: Grid, profile: Profile, basis: Eigenbasis, t: float, p_min: float
) -> tuple[RecoveredState, int, float]:
    """``recover(evolve(truncate(initial_state(x0, grid, profile))))`` for a
    Hermitian C, whose drift eigenbasis is ``basis``, without the (d+1)×N
    state: the readout, the modes it evolves and the norm it drops.

    In W's coordinates the start is c⊗ψ̂ with c = W†x0, so mode k holds
    mass ‖c‖²·|ψ̂_k|², which ``_truncation`` cuts. Evolution multiplies
    entry (j, k) by e^{-itμ_jη_k}, and the readout is x̂ = W·(Y·r), so
    x̂ = W·(c ∘ Φ) with Φ_j = Σ_k r_k·ψ̂_k·e^{-itμ_jη_k} over the live
    modes: the phase blocks of ``_phase_blocks`` turn that sum into one
    (n, B)·(B, N/B) product and a row-wise dot with the (n, N/B) block.
    The phases have modulus 1, so ‖Y‖_F = ‖c‖·‖ψ̂‖ over the live modes.
    Memory is O(N + d·√N); every call is numpy's."""
    x0 = _start_vector(x0)
    psi = _profile_spectrum(profile, grid)
    c = basis.W.conj().T @ x0
    mass = float(np.vdot(c, c).real) * (psi.real**2 + psi.imag**2)
    cut, dropped = _truncation(mass, grid)
    w = _readout_weights(grid, p_min) * psi
    if cut is not None:
        w[cut] = 0.0
        mass[cut] = 0.0
    outer, inner = _phase_blocks(basis.mu, grid, t)
    phi = np.einsum("ja,ja->j", outer, inner @ w.reshape(outer.shape[1], -1).T)
    rec = _recovered(basis.W @ (c * phi), math.sqrt(mass.sum()), grid, t)
    return rec, int(np.count_nonzero(mass)), dropped


def propagate(
    C,
    x0,
    t: float,
    grid: Grid,
    profile: Profile = SMOOTH,
    basis: Eigenbasis | None = None,
) -> RecoveredState:
    """End-to-end: the transformed start state x0⊗ψ̂ of ``profile``
    (``SMOOTH`` by default, seam-blended by ``sample_profile``),
    truncation, per-mode unitary evolution and the spectral readout.
    Approximates e^{(C-I)t} x0 with error set by the p-grid resolution
    (time evolution is exact per mode, to rounding and the polynomial's
    CHEBYSHEV_EPS) and by the truncation, whose
    relative warped-state error is the returned ``dropped_norm`` <=
    TRUNCATION_EPS.

    On the "hermitian" path the work is done in the eigenbasis of -C1h:
    ``basis`` when the caller has it, else one ``eigh`` here, which also
    gives the kink speed. There the start, the phases and the readout are
    folded into one sum per eigenvector (``_phase_readout``), and neither
    the state nor ``evolve`` and ``recover`` run. A basis given on any
    other path is refused. C may also be given as its DriftSplit, which is
    used as it is, with the eigenvalues it has cached."""
    t = core.require_time(t)
    # exactly Hermitian parts, so evolve needs no check
    ds = C if isinstance(C, core.DriftSplit) else core.split(C)
    x0 = core.as_vector(x0)
    if ds.C1h.shape[0] != x0.shape[0]:
        raise DimensionError("C and x0 dimensions differ")
    path = evolve_path(ds, grid)
    if path == "hermitian":
        basis = basis or drift_eigenbasis(ds)
        top = -float(np.min(basis.mu))
    elif basis is not None:
        raise InvalidInputError(
            "a drift eigenbasis applies only to an exactly Hermitian C on "
            "make_grid's mode ladder"
        )
    else:
        top = float(ds.c1h_eigenvalues[-1])  # evolve's intervals reuse them
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
    if path == "hermitian":
        rec, modes, dropped = _phase_readout(x0, grid, profile, basis, t, p_min)
        kernel, degree = "phases", None
    else:
        v0, dropped = truncate(initial_state(x0, grid, profile))
        vt = evolve(v0, ds, t)
        rec = recover(vt, p_min=p_min)
        modes = int(np.count_nonzero(v0.values.any(axis=0)))
        kernel, degree = vt.kernel, vt.max_degree
    return replace(
        rec,
        profile=profile,
        modes_evolved=modes,
        dropped_norm=dropped,
        path=path,
        kernel=kernel,
        max_degree=degree,
    )
