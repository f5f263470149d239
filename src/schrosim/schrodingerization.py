"""Warped-phase spectral engine for linear drift systems.

The drift system dx/dt = (C - I)x is lifted to a transport equation in an
auxiliary coordinate p through the substitution v(t, p) = e^{-p} x(t), then
Fourier-transformed in p. Each Fourier mode η evolves under its own small
Hermitian generator -(η·C1h + C2h), so the whole evolution is a direct sum
of unitaries and preserves the global 2-norm. ``evolve`` applies them with
one of three kernels: phases in one eigenbasis for a Hermitian C, and
otherwise per mode either a reduction to tridiagonal form (O(d³) per mode,
exactly unitary) or, when its degrees are lower than the dimension, the
Chebyshev (Jacobi–Anger) polynomial of degree about t·‖H_η‖ in products
with C1h and C2h (unitary to rounding). The start ψ(p)·x0 is
separable, so its transform x0⊗ψ̂ takes one length-N transform of ψ
(``initial_state``); the readout, a least-squares fit of the p > 0 region,
is linear, so ``recover`` applies it to the spectral state and no transform
back to p runs. For a Hermitian C each mode's generator η·(-C1h) is
diagonal in one eigenbasis W of -C1h, and the state is kept in W's
coordinates (``Eigenbasis``): evolution is then a phase per entry.

numpy and scipy each link their own OpenBLAS, each with a pool of threads
that keep spinning for about 0.1 s after a threaded call. On a machine
with few cores a threaded call on one pool can stall until the other
pool's threads stop spinning, so no op here wakes both pools: the
Hermitian path, and the readout of a state in its eigenbasis, run on
numpy's BLAS; the real and general paths (the eigenvalues of C1h and C2h,
both kernels and ``default_domain_halfwidth`` without a basis) on
scipy's; the transforms, the truncation and the readout of any other
state call no BLAS.

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
from typing import Literal

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
# relative 2-norm the polynomial kernel may drop from a vector: its bound on
# the Bessel tail beyond the degree it stops at
CHEBYSHEV_EPS = 1e-16


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
    """ṽ(t, η) sampled on the grid; shape (d+1, N), column j ↔ η_{k_j}. With
    a ``basis`` the values are coordinates in its columns W: the state is W·values."""

    values: np.ndarray
    grid: Grid
    time: float = 0.0
    basis: Eigenbasis | None = None
    # how ``evolve`` last moved it: its kernel and largest polynomial degree
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
    """x(t) read out of a warped state. ``propagate`` also records the
    initial profile, the number of Fourier modes it evolved, the relative
    norm it dropped (see ``truncate``), the ``evolve`` path that ran (see
    ``evolve_path``), its kernel ("phases", "reduction" or "chebyshev") and
    the largest polynomial degree (None off the polynomial)."""

    x: np.ndarray
    state: np.ndarray
    success_probability: float
    time: float
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
    if not (L > 0):
        raise InvalidInputError(f"L must be positive, got {L}")
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
    C1h: np.ndarray | None, t: float, basis: Eigenbasis | None = None
) -> float:
    """Half-width rule: transport speed is bounded by the largest Hermitian
    drift eigenvalue, so L = 4 + t·ρ keeps the p > 0 region clear of
    wrap-around while holding the boundary truncation e^{-L} small. Given
    the eigenbasis of -C1h, ρ is read from it and C1h is not used."""
    if basis is None:  # scipy's, as on the paths that have no basis
        eigs = scipy.linalg.eigvalsh(core.real_if_exact(C1h), check_finite=False)
    else:
        eigs = basis.mu
    return max(float(np.pi), 4.0 + t * float(np.max(np.abs(eigs), initial=0.0)))


def _drift_eigenbasis(ds: core.DriftSplit) -> Eigenbasis:
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
    inverse applies the state's basis, if any, scatters the modes back to
    their bins with deta·(-1)^k folded into the scatter, then runs the
    unscaled forward FFT.
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
        vals = state.values if state.basis is None else state.basis.W @ state.values
        X = np.empty_like(vals)
        X[:, m] = vals * (grid.deta * sign)
        return WarpedState(values=np.fft.fft(X, axis=1), grid=grid, time=state.time)
    raise InvalidInputError(f"unknown direction {direction!r}")


def initial_state(
    x0, grid: Grid, profile: Profile, basis: Eigenbasis | None = None
) -> SpectralState:
    """The transform of v(0, p) = ψ(p)·x0: x0⊗ψ̂, from one length-N transform
    of the profile ψ as ``sample_profile`` puts it on the grid, seam blend included; with a basis W it is
    (W†x0)⊗ψ̂ in W's coordinates. Mode k holds mass |ψ̂_k|²·‖x0‖², so the
    modes ``truncate`` keeps depend on ψ̂ alone."""
    x0 = core.as_vector(x0)
    if np.linalg.norm(x0) == 0.0:
        raise InvalidInputError("x0 must be nonzero")
    psi = sample_profile(profile, grid)[None, :]
    psi = transform(WarpedState(values=psi, grid=grid))
    coeffs = x0 if basis is None else basis.W.conj().T @ x0
    return SpectralState(values=np.outer(coeffs, psi.values[0]), grid=grid, basis=basis)


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
    return replace(s, values=values), norm


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


def _chebyshev_degree(z: np.ndarray) -> np.ndarray:
    """The degree D at which the Jacobi–Anger series of e^{-iz·x} on
    [-1, 1] may stop, per z >= 0: the smallest D >= z - 1 whose tail bound
    4·(z/2)^{D+1}/(D+1)! is at most CHEBYSHEV_EPS. With |J_j(z)| <=
    (z/2)^j/j! and consecutive terms falling by z/(2(j+1)) <= 1/2 past
    j = z, the dropped terms Σ_{j>D} 2|J_j(z)| are within that bound, and
    |T_j| <= 1 on the interval. log j! is bounded below by Stirling's
    j·log j - j + log(2πj)/2, so the bound only errs high. Bisection on D
    between z - 1 and e·z + 60, where (ez/(2j))^j <= 2^{-j} meets it."""
    z = np.asarray(z, dtype=float)
    half = np.log(np.where(z > 0, z, 1.0)) - math.log(2.0)  # z/2 may underflow

    def meets(D):
        j = D + 1.0
        log_term = j * half - (j * np.log(j) - j + 0.5 * np.log(2.0 * np.pi * j))
        return (z == 0) | (log_term <= math.log(CHEBYSHEV_EPS / 4.0))

    lo = np.maximum(np.ceil(z) - 2.0, -1.0)  # below every admissible D
    hi = np.ceil(math.e * z) + 60.0
    while np.any(open_ := hi - lo > 1):
        mid = np.where(open_, np.floor((lo + hi) / 2.0), hi)  # >= 0
        ok = meets(mid)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi.astype(int)


def _chebyshev_plan(
    ds: core.DriftSplit, eta: np.ndarray, t: float, vectors: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The interval centre c, radius R and degree D of each mode η's
    polynomial (``_chebyshev_stack``), or None when Σ vectors·D exceeds
    ``budget``. By Weyl's bound the spectrum of H = -(η·C1h + C2h) lies in
    c ± R with c = -(η·m1 + m2), R = |η|·r1 + r2, for C1h's and C2h's
    interval midpoints m and half-widths r. C1h's are read off the split;
    when they alone already exceed the budget, C2h is not eigensolved.
    Since D >= tR - 1, a tR too large for the budget is refused before any
    degree is found."""

    def degrees(R):
        z = t * R
        if vectors @ np.ceil(z) > budget + vectors.sum():
            return None
        D = _chebyshev_degree(z)
        return D if vectors @ D <= budget else None

    w1 = ds.c1h_eigenvalues
    R = 0.5 * (w1[-1] - w1[0]) * np.abs(eta)
    if degrees(R) is None:
        return None
    lo2, hi2 = _spectral_interval(ds.C2h)
    R = R + 0.5 * (hi2 - lo2)
    D = degrees(R)
    if D is None:
        return None
    return -(0.5 * (w1[-1] + w1[0]) * eta + 0.5 * (hi2 + lo2)), R, D


def _chebyshev_stack(
    ds: core.DriftSplit,
    V: np.ndarray,
    eta: np.ndarray,
    t: float,
    plan: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """exp(-itH)·v for each row v of V (m, n), H = -(η·C1h + C2h) at the
    row's own η, by the Chebyshev (Jacobi–Anger) expansion on the row's
    interval c ± R (``_chebyshev_plan``), to degree D:

        exp(-itH) = e^{-itc}·Σ_{j<=D} (2 - δ_j0)(-i)^j J_j(tR)·T_j((H - c)/R).

    (-i)^j J_j(tR) is the j-th Fourier coefficient of e^{-itR·cos θ}, read
    off one batched FFT on M >= 2D + 2 points, so aliasing adds only the
    tail beyond D. Rows are sorted by D, and step j of the recurrence
    T_{j+1} = 2·(H - c)/R·T_j - T_{j-1} is one product of the rows
    (η·T_j, T_j) whose D is at least j with [-C1h | -C2h]ᵀ, one scipy
    ``zgemm`` written into a spare buffer (on scipy's BLAS; see the module
    docstring). Unitary to rounding, not exactly."""
    c, R, D = plan
    m, n = V.shape
    order = np.argsort(-D, kind="stable")
    c, R, D, eta = c[order], R[order], D[order], eta[order]
    top = int(D[0]) if m else 0
    M = 1 << (2 * top + 2).bit_length()
    z = (t * R)[:, None]
    coef = np.fft.fft(np.exp(-1j * z * np.cos(2.0 * np.pi / M * np.arange(M))), axis=1)
    coef = coef[:, : top + 1] * (np.exp(-1j * t * c) / M)[:, None]
    coef[:, 1:] *= 2.0
    cur = V[order]  # T_0
    out = cur * coef[:, :1]
    prev, spare = np.empty_like(cur), np.empty_like(cur)
    G = np.asfortranarray(np.hstack([-ds.C1h, -ds.C2h]))  # (n, 2n)
    scale = np.divide(1.0, R, out=np.zeros_like(R), where=R > 0)
    stacked = np.empty((m, 2 * n), dtype=complex)
    active = np.searchsorted(-D, -np.arange(top + 1), side="right")
    for j in range(1, top + 1):
        k = active[j]  # rows with D >= j; rows past k are never read again
        # T_j = f·(H - c)·T_{j-1} - T_{j-2}, f = 1/R for j = 1 (no T_{-1})
        # and 2/R after
        f = (scale[:k] * (1.0 if j == 1 else 2.0))[:, None]
        stacked[:k, :n] = cur[:k] * (f * eta[:k, None])
        stacked[:k, n:] = cur[:k] * f
        # the transposed views are Fortran-ordered, so zgemm copies nothing:
        # spare[:k]ᵀ = G·stacked[:k]ᵀ
        nxt = blas.zgemm(1.0, G, stacked[:k].T, c=spare[:k].T, overwrite_c=1).T
        nxt -= cur[:k] * (f * c[:k, None])
        if j > 1:
            nxt -= prev[:k]
        prev, cur, spare = cur, spare, prev
        out[:k] += cur[:k] * coef[:k, j, None]
    Y = np.empty_like(out)
    Y[order] = out
    return Y


def _evolve_modes(
    ds: core.DriftSplit, eta: np.ndarray, X: np.ndarray, t: float
) -> tuple[np.ndarray, str, int | None]:
    """Y[m] = exp(-it·H_m)·X[m] for H_m = -(η_m·C1h + C2h) and the (n, r)
    vectors X[m], with the kernel that ran and its largest degree. A mode
    whose vectors are all zero is left at zero. The polynomial
    (``_chebyshev_stack``) costs O(D·n²) per nonzero vector and the
    reduction (``_evolve_stack``) O(n³) per mode, so the polynomial runs
    when Σ over the nonzero vectors of D is at most n × the live modes."""
    n = X.shape[1]
    nonzero = X.any(axis=1)  # (M, r)
    live = np.flatnonzero(nonzero.any(axis=1))
    Y = np.zeros_like(X)
    plan = _chebyshev_plan(ds, eta[live], t, nonzero[live].sum(axis=1), n * live.size)
    if plan is None:
        Y[live] = _evolve_stack(_split_blocks(ds, eta[live]), X[live], t)
        return Y, "reduction", None
    mode, vec = np.nonzero(nonzero[live])  # mode indexes live
    picked = tuple(a[mode] for a in plan)
    rows = X[live[mode], :, vec]  # one nonzero vector per row
    Y[live[mode], :, vec] = _chebyshev_stack(ds, rows, eta[live][mode], t, picked)
    return Y, "chebyshev", int(picked[2].max(initial=0))


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
    grid ``s.grid``. Norm-preserving: exactly for the phases and the
    reduction, to rounding for the polynomial (kernels below). C1h and C2h
    must be Hermitian; ``core.split`` makes them so exactly.

    The path is the one ``evolve_path`` names from ``ds`` and ``s.grid``:

    - "hermitian" (C2h exactly zero, on ``make_grid``'s mode ladder):
      H_k = η_k·(-C1h), so one eigendecomposition -C1h = W·diag(μ)·W†
      serves every mode. A state in that basis (``s.basis``, which must be
      the eigenbasis of -C1h) evolves by the phases e^{-itη_kμ_j} alone and
      stays in it; one without is decomposed here (in real arithmetic when
      C1h is real) and evolves as W·(e^{-itη_kμ_j} ∘ (W†·V)). The phases
      come from the mode ladder in two short blocks (``_apply_phases``).
      Every call is numpy's, so the path runs on one BLAS thread pool.
    - "real" (C1h with zero imaginary part, C2h with zero real part, on a
      symmetric mode ladder): H_{-k} = -conj(H_k), so only the modes
      k = 0..N/2 are evolved, each applied to v_k and conj(v_{-k}); the
      k < 0 column is conj(exp(-itH_{|k|})·conj(v_k)). This holds for
      complex states too.
    - "general": every mode is evolved.

    The last two run one of two kernels (``_evolve_modes`` picks it; the
    result records it as ``kernel``):

    - "reduction" (``_evolve_stack``): per mode, Householder
      tridiagonalisation and a real tridiagonal eigensolve, applied to the
      mode's vectors only, on scipy's LAPACK and BLAS; O(n³) per mode for
      n = d + 1, whatever t.
    - "chebyshev" (``_chebyshev_stack``): the Jacobi–Anger polynomial of
      degree D_k ≈ t·‖H_k‖ + O(log 1/ε) in H_k, one product with
      [-C1h | -C2h] per degree shared by every mode, on scipy's BLAS;
      O(D_k·n²) per vector.
      It runs when Σ over the evolved vectors of D_k is at most n × the
      modes the reduction would decompose, which is the case for short
      times and low modes; ``max_degree`` records the largest D_k.

    Memory is O(d² + N·d); no (N, d+1, d+1) stack is built. The Hermitian
    test runs first, so real symmetric C takes the one-matrix path.

    A mode whose vector is exactly zero stays zero, so those two paths do
    not evolve it (on the real path, a pair k, -k is evolved when either
    vector is nonzero); ``truncate`` makes such modes. The Hermitian path
    maps a zero column to an exact zero.
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
    degree = None
    if path == "hermitian":
        basis = s.basis or _drift_eigenbasis(ds)
        out = vals.copy() if s.basis else basis.W.conj().T @ vals
        _apply_phases(out, basis.mu, grid, t)
        out = out if s.basis else basis.W @ out
        kernel = "phases"
    elif s.basis is not None:
        raise InvalidInputError("a state in a drift eigenbasis needs a Hermitian C")
    elif path == "real":
        # row m is mode k = m (slot h + m); its second vector is conj(v_{-k}),
        # at slot h - m, for k = 1..N/2-1
        X = np.zeros((N - h, dim, 2), dtype=complex)
        X[:, :, 0] = vals[:, h:].T
        X[1 : h + 1, :, 1] = vals[:, h - 1 :: -1].T.conj()
        Y, kernel, degree = _evolve_modes(ds, eta[h:], X, t)
        out = np.empty_like(vals)
        out[:, h:] = Y[:, :, 0].T
        out[:, h - 1 :: -1] = Y[1 : h + 1, :, 1].T.conj()
    else:
        Y, kernel, degree = _evolve_modes(ds, eta, vals.T[:, :, None], t)
        out = Y[:, :, 0].T  # a Fortran-ordered view; no second copy
    return SpectralState(
        values=out,
        grid=grid,
        time=s.time + t,
        basis=s.basis,
        kernel=kernel,
        max_degree=degree,
    )


def recover(s: SpectralState, p_min: float = 0.0) -> RecoveredState:
    """Read x(t) out of the spectral state on its grid ``s.grid``: the
    least-squares fit of v(t, p_l) ≈ e^{-p_l} x̂ over all p_l > max(0, p_min)
    of the warped state v, the projection onto the positive-p subspace that
    averages out per-point discretisation noise (the recovery of Jin, Liu &
    Yu, arXiv:2212.13969); the only readout. The fit is linear in v, so it
    is read off the spectral values Y: with u_l = e^{-p_l} on the window and
    0 elsewhere, x̂ = Y·r, r_k = deta·(-1)^k·FFT(u)[k mod N] / ‖u‖² (then
    W·x̂ in a basis W), and ‖v‖ = √N·deta·‖Y‖_F by Parseval. Weights that
    all underflow or a non-finite x̂ raise NumericalError.

    p_min shifts the readout window right: when the Hermitian drift part
    has positive eigenvalues the profile kink travels right at that speed,
    and the exponential profile only survives beyond the kink's position.
    """
    grid = s.grid
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
    r = np.fft.fft(u)[m] * (sign * (grid.deta / norm2))
    Y = s.values
    if s.basis is not None:  # the Hermitian path's state: numpy's BLAS
        xhat = s.basis.W @ (Y @ r)
        ynorm = float(np.linalg.norm(Y))
    else:  # no BLAS call, so no thread pool wakes (see the module docstring)
        xhat = np.einsum("ij,j->i", Y, r)
        ynorm = math.sqrt(
            float(np.einsum("ij,ij->", Y.real, Y.real) + np.einsum("ij,ij->", Y.imag, Y.imag))
        )
    if not np.all(np.isfinite(xhat)):
        raise NumericalError("recovered amplitude vector has non-finite entries")
    xnorm = float(np.linalg.norm(xhat))
    if xnorm < 1e-300:
        raise DegenerateRecoveryError("recovered amplitude vector has zero norm")
    wnorm = math.sqrt(grid.N) * grid.deta * ynorm
    env_norm = float(np.sqrt(np.sum(np.exp(-2.0 * grid.p[grid.p > 0]))))
    prob = min(1.0, (xnorm * env_norm / wnorm) ** 2) if wnorm > 0 else 0.0
    return RecoveredState(
        x=xhat, state=xhat / xnorm, success_probability=prob, time=s.time
    )


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

    On the "hermitian" path the state is kept in the eigenbasis of -C1h:
    ``basis`` when the caller has it, else one ``eigh`` here, which also
    gives the kink speed."""
    ds = core.split(C)  # exactly Hermitian parts, so evolve needs no check
    x0 = core.as_vector(x0)
    if ds.C1h.shape[0] != x0.shape[0]:
        raise DimensionError("C and x0 dimensions differ")
    path = evolve_path(ds, grid)
    if path == "hermitian":
        basis = basis or _drift_eigenbasis(ds)
        top = -float(np.min(basis.mu))
    else:  # evolve refuses a basis here
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
    v0, dropped = truncate(initial_state(x0, grid, profile, basis))
    vt = evolve(v0, ds, t)
    # the join at p = 0 travels right at the top Hermitian drift speed;
    # read only beyond it (a few cells of margin for the ringing around it)
    p_min = max(0.0, top) * t + 4.0 * grid.dp if top > 1e-10 else 0.0
    rec = recover(vt, p_min=p_min)
    modes = int(np.count_nonzero(v0.values.any(axis=0)))
    return replace(
        rec,
        profile=profile,
        modes_evolved=modes,
        dropped_norm=dropped,
        path=path,
        kernel=vt.kernel,
        max_degree=vt.max_degree,
    )
