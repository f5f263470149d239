"""Iterative linear-algebra solvers realised through the spectral engine:
a Jacobi-type linear-system solver and a power method for the dominant
eigenpair, both driven by continuous-time evolution of the drift system,
with stopping-time estimators and query-cost reports."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import baselines, core, schrodingerization as engine
from .errors import (
    ConvergenceUnsafeError,
    InvalidInputError,
    JacobiInapplicableError,
    NoGapError,
    NumericalError,
    UnreachableStateError,
)

GAP_TIE_TOL = 1e-10
DEFAULT_N = 512
# below this reciprocal condition number of the eigenbasis, the overlaps
# of x0 are rounding noise and the stopping time built on them is unsafe
EIGENBASIS_MIN_RCOND = 1e-10

# The stopping-time estimate is a one-sided bound: it is the earliest time at
# which the steady-mode fidelity can reach its target. The linear solver
# evolves a fixed multiple of it so the residual (a harsher metric than
# fidelity, since it sees the full transient amplitude) also settles.
TIME_SAFETY_FACTOR = 4.0
# ``_affine_scale`` doubles sigma, at most AFFINE_MAX_DOUBLINGS times, until
# the top Hermitian drift eigenvalue is at most AFFINE_TARGET
AFFINE_TARGET = 0.05
AFFINE_MAX_DOUBLINGS = 10


@dataclass(frozen=True)
class Splitting:
    """A = B + M with an easily inverted diagonal B, giving y ↦ Gy + g.

    jacobi:        B = Λ (diagonal of A),  G = -Λ⁻¹M,      g = Λ⁻¹b
    richardson:    B = I/a,                G = I - aA,      g = a·b
    damped_jacobi: B = Λ/a,                G = I - aΛ⁻¹A,   g = aΛ⁻¹b
    """

    G: np.ndarray
    g: np.ndarray
    A: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class CostReport:
    sparsity: int
    max_norm: float
    epsilon: float
    overlap: float
    predicted_query_scale: float
    retrieval_factor: float


@dataclass(frozen=True)
class LinearSolveReport:
    """``propagation`` is the engine's record of the evolution of the
    σ-scaled augmented system, to t_f; ``state`` is the unit state of the
    unscaled one, σ mapped back out."""

    state: np.ndarray
    y_classical: np.ndarray
    residual: float
    fidelity: float
    cost: CostReport
    overlaps: np.ndarray  # of the start with the eigenvectors, steady first
    propagation: engine.RecoveredState


@dataclass(frozen=True)
class PowerReport:
    """``propagation`` is the engine's record of the evolution, to t_max;
    its state is the estimated eigenvector."""

    eigenvalue_estimate: complex
    eigenvalue_error_bound: float
    cost: CostReport
    fidelity: float
    overlaps: np.ndarray  # of x0 with the eigenvectors, dominant first
    propagation: engine.RecoveredState


def build_splitting(A, b, method: str = "jacobi", a: float | None = None) -> Splitting:
    A = core.require_square(core.as_matrix(A), "A")
    b = core.as_vector(b)
    d = A.shape[0]
    if b.shape[0] != d:
        raise InvalidInputError(f"b has length {b.shape[0]}, expected {d}")
    I = np.eye(d)
    diag = np.diag(A)
    if method == "jacobi":
        if np.any(np.abs(diag) < 1e-300):
            raise JacobiInapplicableError(
                "A has a zero diagonal entry; the diagonal split is not invertible"
            )
        G = -(A - np.diag(diag)) / diag[:, None]
        return Splitting(G, b / diag, A, b)
    if method == "richardson":
        if a is None or a == 0:
            raise InvalidInputError("richardson requires a nonzero relaxation a")
        return Splitting(I - a * A, a * b, A, b)
    if method == "damped_jacobi":
        if a is None or a in (0, 1):
            raise InvalidInputError("damped_jacobi requires a not in {0, 1}")
        if np.any(np.abs(diag) < 1e-300):
            raise JacobiInapplicableError(
                "A has a zero diagonal entry; the diagonal split is not invertible"
            )
        G = I - a * (A / diag[:, None])
        return Splitting(G, a * b / diag, A, b)
    raise InvalidInputError(f"unknown splitting method {method!r}")


def eigen_overlaps(M, x0, steady_hint: complex | None = None):
    """Eigendecompose M and expand x0 in its (unit-normalised) eigenbasis.

    For non-normal M the expansion uses the dual (left-eigenvector) basis,
    which makes the mode amplitudes exact. Returns eigenvalues sorted with
    the steady mode first (largest real part, or nearest the hint),
    normalised squared overlaps, unit right eigenvectors as columns, and
    the real-part gap from the steady eigenvalue to the nearest other one.
    Both solvers call this before any evolution, so an oversize power
    method is rejected here; the Jacobi solve rejects one earlier, before
    its σ search.

    M may also be the DriftSplit of a C, standing for M = C - I as in
    ``propagate``. On a split with C2h == 0 (a Hermitian C) the split's
    cached ``eigh`` of C1h serves, the one decomposition ``propagate`` and
    ``default_domain_halfwidth`` read too; any other split runs ``eig`` of
    C1h + i·C2h. An array M that is exactly Hermitian (M == M† entrywise)
    runs numpy's ``eigh``, any other numpy's ``eig``, in real arithmetic
    when M is real. A Hermitian M's overlaps are V†x0 in its orthonormal
    basis; any other M's are V⁻¹x0, and an eigenbasis whose 1-norm
    reciprocal condition number is below EIGENBASIS_MIN_RCOND raises
    NumericalError, because the overlaps would be rounding noise.
    """
    ds = M if isinstance(M, core.DriftSplit) else None
    if ds is not None:  # C1h alone is C - I when C2h == 0, and Hermitian
        hermitian = not ds.C2h.any()
        M = ds.C1h if hermitian else ds.C1h + 1j * ds.C2h
    M = core.require_square(core.as_matrix(M), "M")
    core.require_dense_size(M.shape[0])
    x0 = core.as_vector(x0)
    if ds is None:
        hermitian = np.array_equal(M, M.conj().T)
    try:
        if hermitian and ds is not None:
            eigvals, V = ds.eigh
        elif hermitian:
            eigvals, V = np.linalg.eigh(core.real_if_exact(M))
        else:
            eigvals, V = np.linalg.eig(core.real_if_exact(M))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc
    eigvals = eigvals.astype(complex, copy=False)
    V = V.astype(complex, copy=False)
    if not hermitian:
        V = V / np.linalg.norm(V, axis=0)
    lead, gap = core.steady_mode(eigvals, steady_hint)
    # the rest by descending real part, ties in index order
    order = np.argsort(-eigvals.real, kind="stable")
    order = np.concatenate([[lead], order[order != lead]])
    eigvals = eigvals[order]
    V = V[:, order]
    coeffs = V.conj().T @ x0 if hermitian else _solve_eigenbasis(V, x0)
    weights = np.abs(coeffs) ** 2
    total = float(weights.sum())
    if total == 0.0:
        raise InvalidInputError("x0 is zero")
    overlaps = weights / total
    return eigvals, overlaps, V, gap


def _solve_eigenbasis(V: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """V⁻¹x0, rejecting a V that is singular or whose 1-norm reciprocal
    condition number 1/(‖V‖₁‖V⁻¹‖₁) is below EIGENBASIS_MIN_RCOND. It is
    exact to rounding, and LAPACK's gecon estimate of it is never lower, so
    this refuses every V that estimate would."""
    try:
        Vinv = np.linalg.inv(V)
        rcond = 1.0 / (np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1))
    except np.linalg.LinAlgError:
        rcond = 0.0
    if not rcond >= EIGENBASIS_MIN_RCOND:  # a NaN V⁻¹ gives a NaN rcond
        raise NumericalError(
            f"eigenbasis is numerically defective (reciprocal condition"
            f" number {rcond:.2e} < {EIGENBASIS_MIN_RCOND:.0e})"
        )
    return Vinv @ x0


def estimate_tf(alpha0_sq: float, gap: float, delta: float) -> float:
    """Evolution time after which the steady-mode fidelity reaches 1 - δ,
    from the squared steady-mode overlap |α₀|² of the start: all the rest,
    1 - |α₀|², is put in the slowest-decaying competitor, which makes the
    bound conservative, and an already-converged start gets 0.

    The one stopping-time bound of both solvers: the Jacobi solve passes
    its δ in (0, 1); the power method passes δ = ε²/(2 Tr(C†C)), the
    trace-inequality fidelity target for a Rayleigh readout within ε, which
    exceeds 1 for a loose ε, so any δ > 0 is taken here.
    """
    if not delta > 0.0:
        raise InvalidInputError(f"delta must be positive, got {delta}")
    if gap <= GAP_TIE_TOL:
        raise NoGapError(f"spectral gap {gap:.3e} is (near-)degenerate")
    if alpha0_sq <= 1e-15:
        raise UnreachableStateError("zero overlap with the steady state")
    arg = (1.0 - alpha0_sq) / (delta * alpha0_sq)
    if arg <= 1.0:
        return 0.0
    return float(np.log(arg) / (2.0 * gap))


def _jacobi_time(alpha0_sq: float, gap: float, delta: float) -> float:
    """The time the Jacobi solve evolves to: TIME_SAFETY_FACTOR times the
    bound of ``estimate_tf``, which refuses a tied gap with NoGapError."""
    return TIME_SAFETY_FACTOR * estimate_tf(alpha0_sq, gap, delta)


def quantum_cost_estimate(
    C,
    t: float,
    epsilon: float,
    overlap: float,
    include_measurement: bool = False,
) -> CostReport:
    """Query-count scaling s·‖C‖_max·t/ε with the 1/overlap retrieval
    factor; include_measurement adds the 1/ε sampling overhead of
    eigenvalue readout. The report leaves t out: the caller's report holds
    it (``t_used``, or ``diagnose``'s ``t_f_predicted``)."""
    sparsity, max_norm = core.sparsity_and_max_norm(
        core.require_square(core.as_matrix(C), "C")
    )
    if overlap <= 0.0:
        raise InvalidInputError("overlap must be positive")
    if epsilon <= 0.0 or t < 0.0:
        raise InvalidInputError("epsilon must be positive and t nonnegative")
    scale = sparsity * max_norm * t / epsilon
    if include_measurement:
        scale /= epsilon
    return CostReport(
        sparsity=sparsity,
        max_norm=max_norm,
        epsilon=epsilon,
        overlap=float(overlap),
        predicted_query_scale=float(scale),
        retrieval_factor=1.0 / float(overlap),
    )


def _affine_scale(G, g) -> tuple[float, np.ndarray, core.DriftSplit]:
    """Pick sigma so the drift of the augmented system [[G, g/sigma],[0,1]]
    has a nearly negative semidefinite Hermitian part.

    The rescaling is the similarity diag(I, 1/sigma), so the spectrum and
    gap are unchanged, but a large affine column otherwise contributes a
    sizeable positive Hermitian eigenvalue (the readout kink speed). The
    smallest power-of-two sigma meeting AFFINE_TARGET is used; recovery
    amplifies state error by sigma, so it is kept minimal. Returns sigma
    with its augmented C and the drift split of that C.

    When no sigma up to 2**AFFINE_MAX_DOUBLINGS meets the target, the
    Hermitian part of G - I, which sigma does not change, keeps the kink
    too fast for the readout: ConvergenceUnsafeError names the cap and
    what is left.
    """
    sigma = 1.0
    for _ in range(AFFINE_MAX_DOUBLINGS + 1):
        C = core.augment(G, np.asarray(g) / sigma)
        ds = core.split(C)
        top = float(ds.eigh[0][-1])  # cached on the split it returns
        if top <= AFFINE_TARGET:
            return sigma, C, ds
        sigma *= 2.0
    raise ConvergenceUnsafeError(
        f"the affine scale up to sigma = {sigma / 2:g} leaves the top Hermitian"
        f" drift eigenvalue at {top:.3e}, above {AFFINE_TARGET:g}"
    )


def quantum_jacobi_solve(
    A,
    b,
    y0=None,
    delta: float = 1e-3,
    method: str = "jacobi",
    a: float | None = None,
    t: float | None = None,
    N: int = DEFAULT_N,
    L: float | None = None,
    override_convergence: bool = False,
) -> LinearSolveReport:
    """Prepare the unit state ∝ (A⁻¹b, 1)ᵀ by evolving the augmented drift
    system to the estimated stopping time and recovering the steady state.

    Without override_convergence, A must be diagonally dominant (the
    sufficient condition for the diagonal split to contract); with it, the
    spectral radius of the iteration matrix is checked directly instead.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidInputError(f"delta must be in (0, 1), got {delta}")
    t = None if t is None else core.require_time(t)
    s = build_splitting(A, b, method=method, a=a)
    d = s.G.shape[0]
    # the augmented system is (d+1)×(d+1); reject it before any eigensolve
    core.require_dense_size(d + 1)
    if override_convergence:
        rG = float(np.max(np.abs(np.linalg.eigvals(s.G)))) if s.G.size else 0.0
        if rG >= 1.0:
            raise ConvergenceUnsafeError(
                f"iteration matrix spectral radius {rG:.4f} >= 1"
            )
    elif not core.is_diagonally_dominant(s.A):
        raise ConvergenceUnsafeError(
            "A is not diagonally dominant; pass override_convergence to rely"
            " on the spectral-radius check instead"
        )
    y0 = np.zeros(d) if y0 is None else core.as_vector(y0)
    if y0.shape[0] != d:
        raise InvalidInputError(f"y0 has length {y0.shape[0]}, expected {d}")

    # Rescale the affine column by a similarity S = diag(I, sigma): this
    # leaves the spectrum and gap untouched but shrinks the positive part of
    # the drift's Hermitian spectrum, which otherwise pushes the readout
    # window into the discretisation noise floor at long stopping times.
    sigma, C, ds = _affine_scale(s.G, s.g)
    x0 = np.concatenate([y0 / sigma, [1.0]])

    _, overlaps, _, gap = eigen_overlaps(C - np.eye(d + 1), x0, steady_hint=0j)
    t_safe = _jacobi_time(overlaps[0], gap, delta)  # also refuses a tied gap
    t_f = t_safe if t is None else t
    # the σ search's split, with its eigh of C1h, serves L and the engine
    if L is None:
        L = engine.default_domain_halfwidth(ds, t_f)
    grid = engine.make_grid(N, L)

    # only p > 0 is read out, so the smooth profile changes the success
    # probability and the error, not the answer; its Fourier coefficients
    # decay fast, so truncation leaves many modes out of the evolution
    rec = engine.propagate(ds, x0, t_f, grid, profile=engine.SMOOTH)
    y = sigma * core.deaugment(rec.x)
    # map the recovered unit state back to the unscaled augmented system
    state = np.concatenate([sigma * rec.state[:d], rec.state[d:]])
    state = state / np.linalg.norm(state)
    y_star = baselines.direct_solve(s.A, s.b)
    x_star = np.concatenate([y_star, [1.0]])
    x_star_unit = x_star / np.linalg.norm(x_star)
    fidelity = float(np.abs(np.vdot(x_star_unit, state)) ** 2)
    residual = float(np.linalg.norm(s.A @ y - s.b) / max(np.linalg.norm(s.b), 1e-300))
    cost = quantum_cost_estimate(
        C, t_f, epsilon=1.0 / grid.N, overlap=float(np.sqrt(overlaps[0]))
    )
    return LinearSolveReport(
        state=state,
        y_classical=y,
        residual=residual,
        fidelity=fidelity,
        cost=cost,
        overlaps=overlaps,
        propagation=rec,
    )


def eigenvalue_from_state(state, C) -> complex:
    """Rayleigh readout ⟨s|C|s⟩ assembled from the two Hermitian
    observables (C+C†)/2 = C1h + I and (C−C†)/(2i) = C2h, each measured
    separately: ⟨s|C1h|s⟩ + ⟨s|s⟩ and ⟨s|C2h|s⟩. C may also be given as
    its DriftSplit, as in ``propagate``; an array C is split once."""
    state = core.as_vector(state)
    ds = C if isinstance(C, core.DriftSplit) else core.split(C)
    re = float(np.vdot(state, ds.C1h @ state).real + np.vdot(state, state).real)
    im = float(np.vdot(state, ds.C2h @ state).real)
    return complex(re, im)


def eigenvalue_error_bound(norm_C: float, fidelity: float) -> float:
    """Bound on |⟨s|C|s⟩ - λ| for a unit state s whose squared overlap with
    a unit right eigenvector v of C (Cv = λv) is F = ``fidelity``, given
    ``norm_C`` >= ‖C‖₂ (the power method passes ‖C‖_F).

    Write s = αv + βw with w ⊥ v unit and |α|² = F. Since ⟨w|C|v⟩ = 0,
    ⟨s|C|s⟩ - λ = (F - 1)λ + ᾱβ⟨v|C|w⟩ + (1 - F)⟨w|C|w⟩, where |λ|,
    |⟨v|C|w⟩| and |⟨w|C|w⟩| are at most ‖C‖₂ and |ᾱβ| = sqrt(F(1 - F)).
    So |⟨s|C|s⟩ - λ| <= ‖C‖₂·(2(1 - F) + sqrt(F(1 - F))), which is 0 at F = 1.
    A computed F is off by up to about 4n·eps (n <= core.MAX_DENSE_DIM), which
    the square root magnifies near F = 1, so that is added to 1 - F.
    """
    F = min(1.0, max(0.0, fidelity))
    g = 1.0 - F + 4 * core.MAX_DENSE_DIM * np.finfo(float).eps
    return norm_C * (2.0 * g + math.sqrt(F * g))


def quantum_power_method(
    C,
    x0=None,
    epsilon: float = 0.1,
    t: float | None = None,
    N: int = DEFAULT_N,
    L: float | None = None,
) -> PowerReport:
    """Approximate the dominant eigenpair of C by evolving the drift system
    to the estimated stopping time; designed for diagonalisable C with
    real positive spectrum below one (other C is best-effort)."""
    C = core.require_square(core.as_matrix(C), "C")
    if not epsilon > 0.0:
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    t = None if t is None else core.require_time(t)
    d = C.shape[0]
    x0 = np.ones(d) / np.sqrt(d) if x0 is None else core.as_vector(x0)
    if x0.shape[0] != d:
        raise InvalidInputError(f"x0 has length {x0.shape[0]}, expected {d}")
    # one split, with its one eigh of C1h, serves L and the engine, and on a
    # Hermitian C the overlaps too
    ds = core.split(C)
    eigvals, overlaps, V, gap = eigen_overlaps(ds, x0)
    re = eigvals.real + 1.0  # eigvals are of C - I
    if np.max(np.abs(eigvals.imag)) > 1e-8 or re.min() <= 0 or re.max() >= 1.0:
        warnings.warn(
            "spectrum of C is outside the real positive (0, 1) class; the"
            " stopping-time bound is best-effort here",
            stacklevel=2,
        )
    trace = float(np.vdot(C, C).real)  # Tr(C†C) = Σ|c_ij|²
    # Tr(C†C) is 0 only on a C with no gap, which the bound refuses
    delta = epsilon * epsilon / (2.0 * trace) if trace else math.inf
    t_bound = estimate_tf(overlaps[0], gap, delta)  # refuses a tied gap or x0 ⊥ top
    t_max = t_bound if t is None else t
    if L is None:
        L = engine.default_domain_halfwidth(ds, t_max)
    grid = engine.make_grid(N, L)

    # exp-abs: 4× the success probability; on a Hermitian C truncation saves no work
    rec = engine.propagate(ds, x0, t_max, grid, profile=engine.EXP_ABS)
    lam_hat = eigenvalue_from_state(rec.state, ds)
    c1 = V[:, 0]
    fidelity = float(np.abs(np.vdot(c1, rec.state)) ** 2)
    bound = eigenvalue_error_bound(float(np.sqrt(trace)), fidelity)
    cost = quantum_cost_estimate(
        C, t_max, epsilon=epsilon, overlap=float(np.sqrt(overlaps[0])),
        include_measurement=True,
    )
    return PowerReport(
        eigenvalue_estimate=lam_hat,
        eigenvalue_error_bound=bound,
        cost=cost,
        fidelity=fidelity,
        overlaps=overlaps,
        propagation=rec,
    )
