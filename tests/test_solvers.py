import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from schrosim import baselines, core, schrodingerization, solvers
from schrosim.errors import (
    ConvergenceUnsafeError,
    InvalidInputError,
    JacobiInapplicableError,
    NoGapError,
    NumericalError,
    UnreachableStateError,
)

from conftest import random_dominant, random_power_instance, refuse_scipy_linalg

A22 = np.array([[2.0, 1.0], [1.0, 3.0]])
B22 = np.array([1.0, 2.0])


def assert_same_multiset(a, b, tol):
    """a and b hold the same values up to tol, matched one to one."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert a.size == b.size and cost[rows, cols].max() <= tol


class TestRealArithmetic:
    """A real matrix stored as complex is eigensolved in real arithmetic;
    a genuinely complex one stays complex."""

    @pytest.mark.parametrize(
        "imag, driver_dtype", [(0.0, np.float64), (0.3, np.complex128)]
    )
    def test_eigensolver_input_dtype(self, monkeypatch, rng, imag, driver_dtype):
        # core.spectrum runs numpy's eigvals; the non-Hermitian branch of
        # eigen_overlaps runs numpy's eig
        M = rng.normal(size=(7, 7)) + 1j * imag * rng.normal(size=(7, 7))
        x0 = rng.normal(size=7)
        eig, eigvals = np.linalg.eig, np.linalg.eigvals
        seen = []

        def recording(f):
            def wrapper(a, **kwargs):
                seen.append((f.__name__, a.dtype))
                return f(a, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eig", recording(eig))
        monkeypatch.setattr(np.linalg, "eigvals", recording(eigvals))
        lam, _, _ = core.spectrum(M)
        lam_o, overlaps, V, _ = solvers.eigen_overlaps(M, x0)
        assert seen == [("eigvals", driver_dtype), ("eig", driver_dtype)]
        # the complex computation, as before the real-arithmetic rule
        reference = eigvals(M)
        scale = np.max(np.abs(reference))
        for got in (lam, lam_o):
            assert got.dtype == np.complex128
            assert_same_multiset(got, reference, 1e-12 * scale)
        assert V.dtype == np.complex128
        assert np.allclose(M @ V, V * lam_o, atol=1e-12 * scale)
        assert overlaps.sum() == pytest.approx(1.0)


    @pytest.mark.parametrize(
        "imag, driver_dtype", [(0.0, np.float64), (0.3, np.complex128)]
    )
    def test_hermitian_drift_eigvalsh_dtype(self, monkeypatch, rng, imag, driver_dtype):
        # σ search, domain half-width and propagate's kink speed each take
        # the top eigenvalue of C1h, the split's eigh or the array form's
        # eigvalsh; a real C1h goes to the real driver of either
        G = 0.2 * (rng.normal(size=(5, 5)) + 1j * imag * rng.normal(size=(5, 5)))
        g = rng.normal(size=5)
        eigvalsh = np.linalg.eigvalsh
        seen = []

        def recording(f):
            def wrapper(a, **kwargs):
                if a.ndim == 2:  # not the per-mode kernel's stacked eigh
                    seen.append((f.__name__, a.dtype))
                return f(a, **kwargs)
            return wrapper

        for owner in (np.linalg, scipy.linalg):
            for name in ("eigh", "eigvalsh"):
                monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
        sigma, C, ds = solvers._affine_scale(G, g)
        L = schrodingerization.default_domain_halfwidth(ds.C1h, 2.0)
        schrodingerization.propagate(C, np.ones(6), 2.0, schrodingerization.make_grid(16, L))
        assert {name for name, _ in seen} == {"eigh", "eigvalsh"}
        assert len(seen) >= 3 and {dtype for _, dtype in seen} == {np.dtype(driver_dtype)}
        # the complex computation, as before the real-arithmetic rule
        rho = np.max(np.abs(eigvalsh(ds.C1h)))
        assert L == pytest.approx(max(np.pi, 4.0 + 2.0 * rho), rel=1e-12)


def _exact_hermitian(rng, d, complex_entries):
    # (P + P†)/2 is Hermitian entry for entry; a GEMM product is not
    P = rng.normal(size=(d, d)) + 1j * complex_entries * rng.normal(size=(d, d))
    return (P + P.conj().T) / 2


def _counting(monkeypatch, owner, name):
    """Replace owner.<name> by a wrapper that records each call; returns
    the list of calls. A stacked (3-D) eigh is the per-mode kernel's
    decomposition of the mode generators, not of the drift, and is not
    recorded."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        if not (args and np.ndim(args[0]) == 3):
            calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestEigenOverlaps:
    @pytest.mark.parametrize("complex_entries", [0.0, 1.0], ids=["real", "complex"])
    @pytest.mark.parametrize("hint", [None, 0.3 + 0j])
    def test_hermitian_branch_matches_eig_and_solve(
        self, monkeypatch, rng, complex_entries, hint
    ):
        M = _exact_hermitian(rng, 9, complex_entries)
        x0 = rng.normal(size=9) + 1j * rng.normal(size=9)
        # the reference: nonsymmetric eig, unit columns, solve, same order
        lam, V = np.linalg.eig(M)
        V = V / np.linalg.norm(V, axis=0)
        weights = np.abs(np.linalg.solve(V, x0)) ** 2
        lead, gap_ref = core.steady_mode(lam, hint)
        order = [lead] + sorted(
            (j for j in range(9) if j != lead), key=lambda j: -lam[j].real
        )
        eig_calls = _counting(monkeypatch, np.linalg, "eig")
        eigh_calls = _counting(monkeypatch, np.linalg, "eigh")
        eigvals, overlaps, W, gap = solvers.eigen_overlaps(M, x0, hint)
        assert (eig_calls, eigh_calls) == ([], ["eigh"])
        scale = np.max(np.abs(lam))
        assert np.max(np.abs(eigvals - lam[order])) <= 1e-12 * scale
        assert np.max(np.abs(overlaps - weights[order] / weights.sum())) <= 1e-12
        assert abs(gap - gap_ref) <= 1e-12 * scale
        assert W.dtype == np.complex128
        assert np.allclose(M @ W, W * eigvals, atol=1e-12 * scale)

    def test_hermitian_only_to_rounding_takes_general_branch(self, monkeypatch, rng):
        B = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        M = B @ B.conj().T / 9
        assert not np.array_equal(M, M.conj().T)
        assert core.hermiticity_defect(M) <= 1e-13
        eig_calls = _counting(monkeypatch, np.linalg, "eig")
        eigh_calls = _counting(monkeypatch, np.linalg, "eigh")
        solvers.eigen_overlaps(M, rng.normal(size=9))
        assert (eig_calls, eigh_calls) == (["eig"], [])

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-normal"])
    def test_split_matches_the_array_form(self, rng, hermitian):
        # a DriftSplit stands for M = C - I: on a Hermitian C the split's
        # eigh of C1h runs, on any other C eig of C1h + i·C2h, each C - I
        # to rounding
        if hermitian:
            C = _exact_hermitian(rng, 7, 1.0)
        else:
            P = rng.normal(size=(7, 7)) + 2.0 * np.eye(7)
            C = P @ np.diag(np.linspace(0.1, 0.9, 7)) @ np.linalg.inv(P)
        x0 = rng.normal(size=7) + 1j * rng.normal(size=7)
        eigvals, overlaps, V, gap = solvers.eigen_overlaps(core.split(C), x0)
        ref_vals, ref_overlaps, ref_V, ref_gap = solvers.eigen_overlaps(C - np.eye(7), x0)
        scale = np.max(np.abs(ref_vals))
        assert np.max(np.abs(eigvals - ref_vals)) <= 1e-12 * scale
        assert np.max(np.abs(overlaps - ref_overlaps)) <= 1e-10
        assert abs(gap - ref_gap) <= 1e-12 * scale
        # unit eigenvectors, equal up to a phase
        assert np.allclose(np.abs(np.sum(V.conj() * ref_V, axis=0)), 1.0, atol=1e-10)

    def test_defective_eigenbasis_rejected(self):
        # the Jacobi drift of [[2, 1], [0, 3]] has a nilpotent G: its two
        # unit eigenvectors are parallel to rounding
        s = solvers.build_splitting([[2.0, 1.0], [0.0, 3.0]], [1.0, 2.0])
        C = core.augment(s.G, s.g)
        with pytest.raises(NumericalError, match="numerically defective"):
            solvers.eigen_overlaps(C - np.eye(3), [0.0, 0.0, 1.0], 0j)
        with pytest.raises(NumericalError, match="numerically defective"):
            solvers.eigen_overlaps([[0.0, 1.0], [0.0, 0.0]], [1.0, 1.0])

    def test_well_conditioned_nonnormal_basis_accepted(self, rng):
        P = rng.normal(size=(6, 6))
        M = P @ np.diag(np.linspace(0.1, 0.9, 6)) @ np.linalg.inv(P)
        x0 = rng.normal(size=6)
        eigvals, overlaps, V, _ = solvers.eigen_overlaps(M, x0)
        coeffs = np.linalg.solve(V, x0)
        assert np.allclose(overlaps, np.abs(coeffs) ** 2 / np.sum(np.abs(coeffs) ** 2))
        assert eigvals[0] == pytest.approx(0.9)

    @pytest.mark.parametrize("eps, accepted", [(1e-5, True), (1e-12, False)])
    def test_condition_threshold(self, eps, accepted):
        # eigenvectors e1 and (1, eps)/|.|: condition number about 2/eps,
        # so the threshold 1e-10 lies between the two cases
        M = np.array([[0.5, 1.0], [0.0, 0.5 + eps]])
        if accepted:
            _, overlaps, V, _ = solvers.eigen_overlaps(M, [0.3, 1.0])
            coeffs = np.linalg.solve(V, [0.3, 1.0])
            assert np.allclose(overlaps, np.abs(coeffs) ** 2 / np.sum(np.abs(coeffs) ** 2))
        else:
            with pytest.raises(NumericalError, match="numerically defective"):
                solvers.eigen_overlaps(M, [0.3, 1.0])

    @pytest.mark.parametrize("side", [1.001, 0.999], ids=["above", "below"])
    def test_exact_condition_number_at_the_threshold(self, side):
        # V = [[1, 1], [0, e]] has ‖V‖₁ = 1 + e and ‖V⁻¹‖₁ = 2/e, so its
        # reciprocal condition number is e/(2(1 + e)); e puts it a tenth of
        # a percent to either side of EIGENBASIS_MIN_RCOND
        r = side * solvers.EIGENBASIS_MIN_RCOND
        e = 2.0 * r / (1.0 - 2.0 * r)
        V = np.array([[1.0, 1.0], [0.0, e]], dtype=complex)
        x0 = np.array([0.3, 1.0], dtype=complex)
        if side > 1.0:
            coeffs = solvers._solve_eigenbasis(V, x0)
            assert np.allclose(coeffs, [0.3 - 1.0 / e, 1.0 / e], rtol=1e-12, atol=0.0)
        else:
            with pytest.raises(NumericalError, match="reciprocal condition number 9.99e-11"):
                solvers._solve_eigenbasis(V, x0)


_ORDER_KINDS = ("hermitian-diagonal", "hermitian-rotated", "triangular-blocks", "real-random")


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(_ORDER_KINDS),
    values=st.lists(st.sampled_from([-0.9, -0.5, 0.0, 0.3]), min_size=1, max_size=6),
    complex_entries=st.booleans(),
    as_split=st.booleans(),
    hint=st.sampled_from([None, 0j, -0.5 + 0j]),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    kind="hermitian-diagonal", values=[0.3, -0.5, 0.3, -0.5, 0.0],
    complex_entries=False, as_split=False, hint=None, seed=0,
)
@example(
    kind="triangular-blocks", values=[-0.5, 0.0, -0.5],
    complex_entries=True, as_split=False, hint=-0.5 + 0j, seed=1,
)
@example(
    kind="real-random", values=[0.0] * 6,
    complex_entries=False, as_split=True, hint=None, seed=2,
)
def test_eigen_overlaps_order_is_the_stable_sort_property(
    kind, values, complex_entries, as_split, hint, seed
):
    """eigen_overlaps puts the steady eigenvalue first and the rest by
    descending real part, ties in the order the eigensolver returned them:
    the order of the stable sort [lead] + sorted(rest, key=-Re λ), on
    arrays and on splits. The exact ties come from a diagonal with repeated
    entries, from 2×2 triangular blocks with a repeated diagonal entry
    across blocks, and from the conjugate pairs of a real eig."""
    rng = np.random.default_rng(seed)
    d = len(values)
    lam = np.array(values)
    if kind == "hermitian-diagonal":
        M = np.diag(lam)
    elif kind == "hermitian-rotated":
        Z = rng.normal(size=(d, d)) + 1j * complex_entries * rng.normal(size=(d, d))
        Q, _ = np.linalg.qr(Z)
        M = (Q * lam) @ Q.conj().T
        M = (M + M.conj().T) / 2
    elif kind == "triangular-blocks":  # blocks [[a, u], [0, a + 0.25]]
        M = np.diag(lam).astype(complex)
        for j in range(0, d - 1, 2):
            M[j + 1, j + 1] = lam[j] + 0.25
            M[j, j + 1] = rng.normal() + 1j * complex_entries * rng.normal()
        perm = rng.permutation(d)
        M = M[perm][:, perm]
    else:
        M = rng.normal(size=(d, d))
    x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    arg = core.split(M + np.eye(d)) if as_split else M
    seen = []

    def recording(f):
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            seen.append((f.__name__, out))
            return out
        return wrapper

    with (
        mock.patch.object(np.linalg, "eig", recording(np.linalg.eig)),
        mock.patch.object(np.linalg, "eigh", recording(np.linalg.eigh)),
    ):
        try:
            eigvals, _, V, gap = solvers.eigen_overlaps(arg, x0, hint)
        except NumericalError:  # an eigenbasis too ill-conditioned to expand in
            return
    [(name, (raw, W))] = seen
    raw = raw.astype(complex)
    W = W.astype(complex)
    if name == "eig":
        W = W / np.linalg.norm(W, axis=0)
    lead, gap_ref = core.steady_mode(raw, hint)
    order = [lead] + sorted(
        (j for j in range(d) if j != lead), key=lambda j: -raw[j].real
    )
    assert np.array_equal(eigvals, raw[order])
    assert np.array_equal(V, W[:, order])
    assert gap == gap_ref


class TestBuildSplitting:
    def test_jacobi_worked(self):
        s = solvers.build_splitting(A22, B22, "jacobi")
        assert np.allclose(s.G, [[0.0, -0.5], [-1.0 / 3.0, 0.0]])
        assert np.allclose(s.g, [0.5, 2.0 / 3.0])

    def test_diagonal_A_solves_in_one_step(self):
        s = solvers.build_splitting(np.diag([2.0, 4.0]), [2.0, 4.0], "jacobi")
        assert np.allclose(s.G, 0.0)
        assert np.allclose(s.g, [1.0, 1.0])

    def test_richardson(self):
        s = solvers.build_splitting(A22, B22, "richardson", a=0.25)
        assert np.allclose(s.G, [[0.5, -0.25], [-0.25, 0.25]])
        assert np.allclose(s.g, [0.25, 0.5])

    def test_zero_diagonal_rejected(self):
        with pytest.raises(JacobiInapplicableError):
            solvers.build_splitting([[0.0, 1.0], [1.0, 2.0]], [1.0, 1.0], "jacobi")

    def test_damped_jacobi_parameter_guard(self):
        with pytest.raises(InvalidInputError):
            solvers.build_splitting(A22, B22, "damped_jacobi", a=1.0)
        s = solvers.build_splitting(A22, B22, "damped_jacobi", a=0.5)
        assert np.allclose(s.G, np.eye(2) - 0.5 * (A22 / np.diag(A22)[:, None]))

    @pytest.mark.parametrize(
        "method,a", [("jacobi", None), ("richardson", 0.2), ("damped_jacobi", 0.7)]
    )
    def test_fixed_point_is_the_solution(self, rng, method, a):
        for _ in range(10):
            d = int(rng.integers(2, 17))
            A, b = random_dominant(rng, d)
            s = solvers.build_splitting(A, b, method, a=a)
            y_star = baselines.direct_solve(A, b)
            assert np.max(np.abs(s.G @ y_star + s.g - y_star)) <= 1e-10


class TestIterationMatrix:
    def test_block_form(self):
        s = solvers.build_splitting(A22, B22, "jacobi")
        C = core.augment(s.G, s.g)
        assert C.shape == (3, 3)
        assert np.array_equal(C[2], [0.0, 0.0, 1.0])
        assert np.allclose(C[:2, 2], [0.5, 2.0 / 3.0])

    def test_homogeneous(self):
        s = solvers.build_splitting(A22, np.zeros(2), "jacobi")
        C = core.augment(s.G, s.g)
        assert np.allclose(C[:2, 2], 0.0)

    def test_eigenvalue_one_with_solution_eigenvector(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 17))
            A, b = random_dominant(rng, d)
            s = solvers.build_splitting(A, b)
            C = core.augment(s.G, s.g)
            x_star = np.concatenate([baselines.direct_solve(A, b), [1.0]])
            assert np.max(np.abs(C @ x_star - x_star)) <= 1e-8
            assert np.min(np.abs(np.linalg.eigvals(C) - 1.0)) <= 1e-8


class TestEstimateTf:
    def test_two_level_formula(self):
        assert solvers.estimate_tf(0.5, 1.0, 0.01) == pytest.approx(
            0.5 * np.log(100.0), abs=1e-12
        )

    def test_jacobi_gap_instance(self):
        t_f = solvers.estimate_tf(0.5, 0.5917517095361369, 1e-3)
        assert t_f == pytest.approx(5.8367, abs=1e-3)

    def test_already_converged(self):
        assert solvers.estimate_tf(1.0, 0.5, 0.01) == 0.0

    def test_guards(self):
        with pytest.raises(NoGapError):
            solvers.estimate_tf(0.5, 0.0, 0.01)
        with pytest.raises(UnreachableStateError):
            solvers.estimate_tf(0.0, 0.5, 0.01)
        with pytest.raises(UnreachableStateError):
            solvers.estimate_tf(1e-16, 0.5, 0.01)
        with pytest.raises(InvalidInputError):
            solvers.estimate_tf(0.5, 0.5, 0.0)


class TestEstimateTfPowerTarget:
    """The power method's stopping time: the bound at the trace-inequality
    fidelity target δ = ε²/(2 Tr(C†C))."""

    @staticmethod
    def _t_max(gamma1_sq, gap, epsilon, trace):
        return solvers.estimate_tf(gamma1_sq, gap, epsilon**2 / (2.0 * trace))

    def test_formula(self):
        t = self._t_max(0.5, 0.4, 0.1, 1.06)
        assert t == pytest.approx(1.25 * np.log(212.0), abs=1e-12)

    def test_already_aligned(self):
        assert self._t_max(1.0, 0.4, 0.1, 1.06) == 0.0

    def test_epsilon_halving_adds_log4(self):
        t1 = self._t_max(0.5, 0.4, 0.1, 1.06)
        t2 = self._t_max(0.5, 0.4, 0.05, 1.06)
        assert t2 - t1 == pytest.approx(np.log(4.0) / (2 * 0.4), abs=1e-12)

    def test_no_gap(self):
        with pytest.raises(NoGapError):
            self._t_max(0.5, 0.0, 0.1, 1.0)


class TestQuantumJacobiSolve:
    def test_worked_instance(self):
        rep = solvers.quantum_jacobi_solve(A22, B22, delta=1e-3)
        assert np.max(np.abs(rep.y_classical - [0.2, 0.6])) <= 1e-2
        assert rep.residual <= 1e-2
        assert rep.fidelity >= 0.999
        assert np.allclose(
            np.abs(rep.state), [0.16903085, 0.50709255, 0.84515425], atol=1e-2
        )

    def test_diagonal_A(self):
        rep = solvers.quantum_jacobi_solve(np.diag([2.0, 4.0]), [2.0, 4.0], delta=1e-3)
        assert rep.fidelity >= 1 - 1e-3
        assert np.max(np.abs(rep.y_classical - [1.0, 1.0])) <= 1e-2

    def test_non_dominant_rejected(self):
        with pytest.raises(ConvergenceUnsafeError):
            solvers.quantum_jacobi_solve([[1.0, 2.0], [0.0, 1.0]], [1.0, 1.0])

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -1e-3, math.nan])
    def test_delta_outside_unit_interval_rejected_before_any_work(
        self, monkeypatch, delta
    ):
        monkeypatch.setattr(solvers, "build_splitting", None)
        with pytest.raises(InvalidInputError, match="delta must be in"):
            solvers.quantum_jacobi_solve(A22, B22, delta=delta)

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    @pytest.mark.parametrize("complex_A", [False, True], ids=["real", "complex"])
    def test_residual_on_numpy_blas_matches_numpy(self, monkeypatch, rng, complex_A):
        # the residual's A·y is numpy's product, on the BLAS pool the engine
        # ran on, never scipy's GEMV
        A, b = random_dominant(rng, 12)
        A = A + (0.5j * np.diag(rng.uniform(1.0, 2.0, 12)) if complex_A else 0.0)
        monkeypatch.setattr(scipy.linalg.blas, "zgemv", None)
        rep = solvers.quantum_jacobi_solve(A, b)
        reference = np.linalg.norm(A @ rep.y_classical - b) / np.linalg.norm(b)
        assert rep.residual == pytest.approx(reference, rel=1e-10)
        assert rep.residual <= 1e-4

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    def test_one_split_and_one_c1h_eigensolve(self, monkeypatch, rng):
        # the σ search splits C and eigensolves its C1h, by the split's
        # eigh, once per candidate σ; the split it keeps, with that cached
        # eigh, then serves the half-width, the kink speed, the polynomial's
        # fold and its basis, so the only other eigensolve of the drift is
        # C2h's interval
        A, b = random_dominant(rng, 12)
        splits = _counting(monkeypatch, core, "split")
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
        solvers.quantum_jacobi_solve(A, b)
        assert (len(splits), len(eigh), len(eigvalsh)) == (1, 1, 1)

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    def test_polynomial_solve_runs_on_numpy_alone(self, monkeypatch):
        # the jacobi-d127 benchmark shape, whose solve takes the polynomial
        # on the real path: no call into scipy.linalg, so one BLAS pool
        # serves the whole solve, its oracle and residual included
        A, b = random_dominant(np.random.default_rng(1201), 127)
        refuse_scipy_linalg(monkeypatch)
        rep = solvers.quantum_jacobi_solve(A, b, N=512)
        rec = rep.propagation
        assert (rec.path, rec.kernel) == ("real", "chebyshev")
        assert rep.fidelity >= 1 - 1e-9 and rep.residual <= 1e-4

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    def test_eigh_kernel_runs_on_numpy_alone(self, monkeypatch):
        # small inputs take the per-mode eigh kernel: a d = 8 Jacobi solve
        # and an eig op on a non-normal d = 5 C = P·diag(0.9, λ₂..λ₅)·P⁻¹
        # with λ₂..λ₅ in [0.1, 0.6]; neither calls into scipy.linalg
        A, b = random_dominant(np.random.default_rng(8), 8)
        rng = np.random.default_rng(0)
        P = rng.normal(size=(5, 5))
        C = P @ np.diag(np.concatenate([[0.9], rng.uniform(0.1, 0.6, 4)])) @ np.linalg.inv(P)
        refuse_scipy_linalg(monkeypatch)
        solve = solvers.quantum_jacobi_solve(A, b)
        eig = solvers.quantum_power_method(C, np.ones(5) / np.sqrt(5), epsilon=0.1, N=256)
        for rep in (solve, eig):
            assert (rep.propagation.path, rep.propagation.kernel) == ("real", "eigh")
        assert solve.fidelity >= 1 - 1e-9 and solve.residual <= 1e-4
        assert abs(eig.eigenvalue_estimate - 0.9) <= 0.1

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected_before_any_work(self, monkeypatch, rng, t):
        A, b = random_dominant(rng, 6)
        monkeypatch.setattr(solvers, "eigen_overlaps", None)
        with pytest.raises(InvalidInputError, match="t must be finite"):
            solvers.quantum_jacobi_solve(A, b, t=t)

    @pytest.mark.parametrize("L", [math.nan, math.inf])
    def test_non_finite_half_width_rejected(self, rng, L):
        A, b = random_dominant(rng, 6)
        with pytest.raises(InvalidInputError, match="L must be finite"):
            solvers.quantum_jacobi_solve(A, b, L=L)

    def test_smooth_profile_and_truncation_reported(self, rng):
        A, b = random_dominant(rng, 12)
        rep = solvers.quantum_jacobi_solve(A, b)
        rec = rep.propagation
        assert rec.profile is schrodingerization.SMOOTH
        assert rec.modes_evolved < rec.grid.N
        assert 0.0 < rec.dropped_norm <= schrodingerization.TRUNCATION_EPS
        assert rep.fidelity >= 1 - 1e-9 and rep.residual <= 1e-4
        # ψ leaves 0.128 of the mass on p > 0 against 0.5 for e^{-|p|}; the
        # success probability falls by about that ratio
        share = 0.5 / (0.5 + schrodingerization.SMOOTH.negative_mass)
        assert 0.05 <= rec.success_probability <= 1.1 * share

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_real_input_gives_a_real_state(self, seed):
        # real A and b make the spectral columns of k and -k conjugate;
        # truncation zeroes them in pairs, so no imaginary part is left
        # (cutting one of a pair left about 1e-8 on these inputs)
        A, b = random_dominant(np.random.default_rng(seed), 30)
        rep = solvers.quantum_jacobi_solve(A, b)
        rec = rep.propagation
        assert rec.modes_evolved < rec.grid.N and rec.dropped_norm > 0.0
        assert np.max(np.abs(rep.state.imag)) <= 1e-12
        assert np.max(np.abs(rep.y_classical.imag)) <= 1e-12

    def test_sigma_search_at_its_cap_is_refused(self, monkeypatch):
        # a non-dominant A whose σ search ends at its cap with C1h's top
        # eigenvalue at 4.5: the readout floor would land past p = 951,
        # where every weight e^{-p} underflows, so it is refused before any
        # evolution (the engine's own underflow check is
        # test_underflowing_readout_window_is_a_numerical_failure)
        rng = np.random.default_rng(34)
        A = 2 * np.eye(12) + 0.5 * rng.normal(size=(12, 12))
        b = rng.normal(size=12)
        monkeypatch.setattr(schrodingerization, "propagate", None)
        with pytest.raises(ConvergenceUnsafeError, match=r"sigma = 1024 .* 4\.5"):
            solvers.quantum_jacobi_solve(A, b, override_convergence=True)

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    def test_override_sample_exits_with_no_wrong_answer(self, monkeypatch):
        # A = 2I + 0.5·Z, d = 12: the 8 inputs that reach a σ <= 16 are
        # right and the other 32 are refused, so none exits with a wrong
        # answer (a capped σ search left residuals of 0.07 to 1.0)
        sigmas = []
        scale = solvers._affine_scale

        def recording(G, g):
            found = scale(G, g)
            sigmas.append(found[0])
            return found

        monkeypatch.setattr(solvers, "_affine_scale", recording)
        refused = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            A = 2 * np.eye(12) + 0.5 * rng.normal(size=(12, 12))
            b = rng.normal(size=12)
            try:
                rep = solvers.quantum_jacobi_solve(A, b, override_convergence=True)
            except ConvergenceUnsafeError:
                refused += 1
                continue
            assert rep.residual <= 1e-2 and rep.fidelity >= 0.999, seed
        assert (len(sigmas), refused) == (8, 32)
        assert max(sigmas) <= 16

    def test_override_uses_spectral_radius(self):
        # not diagonally dominant but r(G) = sqrt(0.24) < 1; the indefinite
        # drift pushes the readout window far out, so a finer grid is needed
        A = np.array([[1.0, 1.2], [0.2, 1.0]])
        rep = solvers.quantum_jacobi_solve(
            A, [1.0, 1.0], delta=1e-3, override_convergence=True, N=2048
        )
        assert rep.fidelity >= 0.999
        # and the override still refuses a non-contractive iteration
        with pytest.raises(ConvergenceUnsafeError):
            solvers.quantum_jacobi_solve(
                [[1.0, 2.0], [3.0, 1.0]], [1.0, 1.0], override_convergence=True
            )


class TestDenseSizeCap:
    """Oversize systems fail before any evolution runs."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def no_propagate(self, monkeypatch):
        def sentinel(*args, **kwargs):
            raise self.Reached

        monkeypatch.setattr(schrodingerization, "propagate", sentinel)

    @pytest.fixture
    def no_eigensolve(self, monkeypatch):
        def sentinel(*args, **kwargs):
            raise self.Reached

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, sentinel)
            monkeypatch.setattr(scipy.linalg, name, sentinel)

    @staticmethod
    def _jacobi_over_cap(**kwargs):
        d = core.MAX_DENSE_DIM  # augmented dimension d + 1 is over the cap
        A = 4.0 * np.eye(d) + np.diag(np.ones(d - 1), 1)
        with pytest.raises(InvalidInputError, match="dense eigensolve limit"):
            solvers.quantum_jacobi_solve(A, np.ones(d), N=16, **kwargs)

    def test_jacobi_over_cap_rejected_before_evolution(self, no_propagate, no_eigensolve):
        # not even the sigma search's eigvalsh may run first
        self._jacobi_over_cap()

    def test_jacobi_override_over_cap_rejected_before_eigensolve(
        self, no_propagate, no_eigensolve
    ):
        # nor the override's spectral-radius check
        self._jacobi_over_cap(override_convergence=True)

    def test_power_over_cap_rejected_before_evolution(self, no_propagate):
        C = np.diag(np.linspace(0.9, 0.1, core.MAX_DENSE_DIM + 1))
        with pytest.raises(InvalidInputError, match="dense eigensolve limit"):
            solvers.quantum_power_method(C, N=16)

    def test_power_at_cap_reaches_evolution(self, no_propagate):
        C = np.diag(np.linspace(0.9, 0.1, core.MAX_DENSE_DIM))
        with pytest.raises(self.Reached):
            solvers.quantum_power_method(C, N=16)


class TestEigenvalueFromState:
    def test_top_eigenvector(self):
        lam = solvers.eigenvalue_from_state([1.0, 0.0], np.diag([0.9, 0.5]))
        assert lam == pytest.approx(0.9)

    def test_uniform_state_averages_diagonal(self):
        s = np.array([1.0, 1.0]) / np.sqrt(2)
        assert solvers.eigenvalue_from_state(s, np.diag([0.9, 0.5])) == pytest.approx(
            0.7
        )

    def test_hermitian_gives_real(self, rng):
        C = rng.normal(size=(4, 4))
        C = (C + C.T) / 2
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        s /= np.linalg.norm(s)
        assert abs(solvers.eigenvalue_from_state(s, C).imag) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 32))
    def test_observables_reassemble_rayleigh_quotient(self, seed, d):
        # re + i·im from (C+C†)/2 and (C−C†)/(2i) is ⟨s|C|s⟩ for any C
        rng = np.random.default_rng(seed)
        C = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        s = rng.normal(size=d) + 1j * rng.normal(size=d)
        s /= np.linalg.norm(s)
        lam = solvers.eigenvalue_from_state(s, C)
        assert abs(lam - np.vdot(s, C @ s)) <= 1e-12 * d


@settings(max_examples=60, deadline=None)
@given(
    structure=st.sampled_from(["hermitian", "real non-normal", "complex non-normal"]),
    d=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_readout_matches_the_observable_formula_property(structure, d, seed):
    """On a split, ⟨s|C1h|s⟩ + ⟨s|s⟩ + i·⟨s|C2h|s⟩ is the readout from
    the observables (C+C†)/2 and (C−C†)/(2i) built from C, to 1e-13 of
    max(1, |λ|); an array C gives the split's value bit for bit."""
    rng = np.random.default_rng(seed)
    if structure == "hermitian":
        C = _exact_hermitian(rng, d, 1.0)
    else:
        C = rng.uniform(-1, 1, (d, d))
        if structure == "complex non-normal":
            C = C + 1j * rng.uniform(-1, 1, (d, d))
    s = rng.normal(size=d) + 1j * rng.normal(size=d)
    s /= np.linalg.norm(s)
    Ch = C.conj().T
    ref = complex(
        np.vdot(s, ((C + Ch) / 2) @ s).real, np.vdot(s, ((C - Ch) / 2j) @ s).real
    )
    lam = solvers.eigenvalue_from_state(s, core.split(C))
    assert abs(lam - ref) <= 1e-13 * max(1.0, abs(ref))
    assert lam == solvers.eigenvalue_from_state(s, C)
    if structure == "hermitian":
        assert lam.imag == 0.0


class TestQuantumPowerMethod:
    def test_diagonal_instance(self):
        C = np.diag([0.9, 0.5])
        rep = solvers.quantum_power_method(
            C, np.array([1.0, 1.0]) / np.sqrt(2), epsilon=0.1
        )
        assert rep.propagation.time == pytest.approx(6.6957, abs=1e-3)
        assert abs(rep.eigenvalue_estimate - 0.9) <= 0.1
        delta = 0.1**2 / (2 * 1.06)
        assert rep.fidelity >= 1 - delta

    def test_start_at_top_eigenvector(self):
        rep = solvers.quantum_power_method(
            np.diag([0.9, 0.5]), np.array([1.0, 0.0]), epsilon=0.1
        )
        assert abs(rep.eigenvalue_estimate - 0.9) <= 1e-8

    def test_nonsymmetric_converges(self):
        C = np.array([[0.9, 0.1], [0.0, 0.5]])
        rep = solvers.quantum_power_method(
            C, np.array([1.0, 1.0]) / np.sqrt(2), epsilon=0.1
        )
        assert abs(rep.eigenvalue_estimate - 0.9) <= 0.1

    def test_degenerate_top_rejected(self):
        with pytest.raises(NoGapError):
            solvers.quantum_power_method(np.diag([0.9, 0.9, 0.5]), epsilon=0.1)

    @pytest.mark.filterwarnings("ignore:spectrum of C is outside")
    def test_zero_matrix_rejected(self):
        # Tr(C†C) = 0 too, where δ = ε²/(2 Tr(C†C)) has no value
        with pytest.raises(NoGapError):
            solvers.quantum_power_method(np.zeros((2, 2)), epsilon=0.1)

    def test_zero_overlap_rejected(self):
        with pytest.raises(UnreachableStateError):
            solvers.quantum_power_method(
                np.diag([0.9, 0.5]), np.array([0.0, 1.0]), epsilon=0.1
            )

    def test_loose_epsilon_is_answered_at_time_zero(self):
        # ε² > 2‖C‖_F² = 2.12 puts the fidelity target δ ≈ 1.89 above 1,
        # which the default start already meets
        rep = solvers.quantum_power_method(np.diag([0.9, 0.5]), epsilon=2.0)
        assert rep.propagation.time == 0.0
        assert abs(rep.eigenvalue_estimate - 0.9) <= 2.0

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
    def test_non_positive_epsilon_rejected_before_any_work(self, monkeypatch, epsilon):
        monkeypatch.setattr(solvers, "eigen_overlaps", None)
        with pytest.raises(InvalidInputError, match="epsilon must be positive"):
            solvers.quantum_power_method(np.diag([0.9, 0.5]), epsilon=epsilon)

    def test_error_bound_holds(self):
        C = np.diag([0.9, 0.5])
        rep = solvers.quantum_power_method(
            C, np.array([1.0, 1.0]) / np.sqrt(2), epsilon=0.1
        )
        assert abs(rep.eigenvalue_estimate - 0.9) <= rep.eigenvalue_error_bound
        # and bounds something: ‖C‖_F·sqrt(2 - F) was never below ‖C‖_F
        assert rep.eigenvalue_error_bound < 0.1 * np.linalg.norm(C)

    @pytest.mark.parametrize("t, L", [(math.nan, None), (math.inf, None), (None, math.inf)])
    def test_non_finite_time_or_half_width_rejected(self, rng, t, L):
        C = random_power_instance(rng, 5)
        with pytest.raises(InvalidInputError, match="must be finite"):
            solvers.quantum_power_method(C, t=t, L=L)

    def test_random_power_instance_names_d_when_no_draw_qualifies(self):
        # at d = 32 nearly every draw has a complex pair; the helper gives
        # up after a fixed number of draws instead of recursing
        with pytest.raises(ValueError, match="d = 32"):
            random_power_instance(np.random.default_rng(0), 32)

    def test_non_hermitian_op_splits_once(self, monkeypatch):
        # one split, with its cached eigh of C1h, serves L, the kink speed
        # and the polynomial; the other eigensolve of the drift is C2h's
        # interval. L is the one the array path gives, so the estimate is
        # unchanged
        C = np.array([[0.9, 0.2, 0.0], [0.0, 0.5, 0.1], [0.05, 0.0, 0.3]])
        splits = _counting(monkeypatch, core, "split")
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
        rep = solvers.quantum_power_method(C)
        rec = rep.propagation
        assert (len(splits), len(eigh), len(eigvalsh)) == (1, 1, 1)
        assert rec.path == "real"
        monkeypatch.undo()
        L = schrodingerization.default_domain_halfwidth(core.split(C).C1h, rec.time)
        ref = solvers.quantum_power_method(C, L=L)
        assert rec.grid.L == L
        assert rep.eigenvalue_estimate == ref.eigenvalue_estimate
        assert np.array_equal(rec.state, ref.propagation.state)

    @pytest.mark.parametrize("complex_entries", [0.0, 1.0], ids=["real", "complex"])
    def test_hermitian_op_decomposes_once(self, monkeypatch, rng, complex_entries):
        # eigen_overlaps' eigh(C) also serves L, the kink speed and the
        # evolution: one eigh, no eigvalsh, one split per op
        d = 10
        _, Q = np.linalg.eigh(_exact_hermitian(rng, d, complex_entries))
        lam = np.concatenate([[0.9], np.linspace(0.1, 0.6, d - 1)])
        C = (Q * lam) @ Q.conj().T
        C = (C + C.conj().T) / 2
        x0 = Q[:, 0] + 0.5 * Q[:, 1:].sum(axis=1)
        eigh_calls = _counting(monkeypatch, np.linalg, "eigh")
        eigvalsh_calls = _counting(monkeypatch, np.linalg, "eigvalsh")
        scipy_eigvalsh_calls = _counting(monkeypatch, scipy.linalg, "eigvalsh")
        split_calls = _counting(monkeypatch, core, "split")
        rep = solvers.quantum_power_method(C, x0, epsilon=0.05, N=128)
        rec = rep.propagation
        assert (len(eigh_calls), len(split_calls)) == (1, 1)
        assert eigvalsh_calls == scipy_eigvalsh_calls == []
        assert rec.path == "hermitian"
        assert abs(rep.eigenvalue_estimate - 0.9) <= 0.05
        # L from the same decomposition as before
        rho = np.max(np.abs(lam - 1.0))
        assert rec.grid.L == pytest.approx(4.0 + rec.time * rho, rel=1e-12)

    @pytest.mark.parametrize("complex_entries", [0.0, 1.0], ids=["real", "complex"])
    def test_hermitian_op_starts_from_exp_abs(self, rng, complex_entries):
        # propagate defaults to the smooth profile, but the Hermitian path
        # has no per-mode work for it to save: the power method keeps e^{-|p|}
        d = 10
        _, Q = np.linalg.eigh(_exact_hermitian(rng, d, complex_entries))
        lam = np.concatenate([[0.9], np.linspace(0.1, 0.6, d - 1)])
        C = (Q * lam) @ Q.conj().T
        C = (C + C.conj().T) / 2
        x0 = Q[:, 0] + 0.5 * Q[:, 1:].sum(axis=1)
        rep = solvers.quantum_power_method(C, x0, epsilon=0.05, N=128)
        # propagate on C's split reads the eigh the power method's overlaps read
        rec = schrodingerization.propagate(
            core.split(C), x0, rep.propagation.time, rep.propagation.grid,
            profile=schrodingerization.EXP_ABS,
        )
        assert rep.propagation.success_probability == rec.success_probability
        assert np.array_equal(rep.propagation.state, rec.state)

    @pytest.mark.parametrize("complex_entries", [0.0, 1.0], ids=["real", "complex"])
    def test_hermitian_op_runs_on_numpy_alone(self, monkeypatch, rng, complex_entries):
        # numpy and scipy each bring an OpenBLAS with its own thread pool;
        # the Hermitian power op must use one of them, numpy's
        d = 12
        H = _exact_hermitian(rng, d, complex_entries)
        _, Q = np.linalg.eigh(H)
        lam = np.concatenate([[0.9], np.linspace(0.1, 0.6, d - 1)])
        C = (Q * lam) @ Q.conj().T
        C = (C + C.conj().T) / 2
        x0 = Q[:, 0] + 0.5 * Q[:, 1:].sum(axis=1)

        refuse_scipy_linalg(monkeypatch)
        eigh_calls = _counting(monkeypatch, np.linalg, "eigh")
        monkeypatch.setattr(np.linalg, "eig", None)  # an eig call fails
        rep = solvers.quantum_power_method(C, x0, epsilon=0.05, N=128)
        assert len(eigh_calls) <= 2
        assert rep.propagation.path == "hermitian"
        assert abs(rep.eigenvalue_estimate - 0.9) <= 0.05


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 8),
    fidelity=st.floats(0.0, 1.0),
    complex_entries=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigenvalue_error_bound_property(d, fidelity, complex_entries, seed):
    """|⟨s|C|s⟩ - λ| <= ‖C‖_F·(2(1 - F) + sqrt(F(1 - F))) for a random
    diagonalisable C, a unit right eigenvector v with eigenvalue λ and a
    unit state s = αv + βw (w ⊥ v) with |α|² = F."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.normal(size=shape)
        return z + 1j * rng.normal(size=shape) if complex_entries else z.astype(complex)

    P = draw(d, d) + 2.0 * np.eye(d)  # a well-conditioned eigenbasis
    lam = draw(d)
    C = (P * lam) @ np.linalg.inv(P)
    j = int(rng.integers(d))
    v = P[:, j] / np.linalg.norm(P[:, j])
    w = draw(d)
    w -= np.vdot(v, w) * v
    if d == 1 or np.linalg.norm(w) < 1e-8:
        w, fidelity = np.zeros(d), 1.0
    else:
        w /= np.linalg.norm(w)
    phase = np.exp(2j * np.pi * rng.random())
    s = np.sqrt(fidelity) * v + phase * np.sqrt(1.0 - fidelity) * w
    s /= np.linalg.norm(s)
    F = float(np.abs(np.vdot(v, s)) ** 2)
    err = abs(solvers.eigenvalue_from_state(s, C) - lam[j])
    norm_F = float(np.linalg.norm(C))
    bound = solvers.eigenvalue_error_bound(norm_F, F)
    assert err <= bound + 1e-10 * norm_F
    if F > 1.0 - 1e-12:
        assert bound <= 1e-5 * norm_F


class TestQuantumCostEstimate:
    def test_product_of_inputs(self):
        # a row with 3 nonzeros and max entry 1 gives s=3, max_norm=1
        C = np.array([[0.1, 0.2, 0.5], [0.0, 0.1, 0.2], [0.0, 0.0, 1.0]])
        cost = solvers.quantum_cost_estimate(C, 5.84, 0.01, 0.707)
        assert cost.sparsity == 3
        assert cost.max_norm == 1.0
        assert cost.predicted_query_scale == pytest.approx(1752.0)
        assert cost.retrieval_factor == pytest.approx(1.414, abs=1e-3)

    def test_full_overlap(self):
        cost = solvers.quantum_cost_estimate(np.eye(2), 1.0, 0.1, 1.0)
        assert cost.retrieval_factor == 1.0

    def test_epsilon_halving_doubles_scale(self):
        c1 = solvers.quantum_cost_estimate(np.eye(2), 1.0, 0.1, 0.5)
        c2 = solvers.quantum_cost_estimate(np.eye(2), 1.0, 0.05, 0.5)
        assert c2.predicted_query_scale == pytest.approx(2 * c1.predicted_query_scale)

    def test_measurement_variant(self):
        c = solvers.quantum_cost_estimate(np.eye(2), 1.0, 0.1, 0.5)
        cm = solvers.quantum_cost_estimate(
            np.eye(2), 1.0, 0.1, 0.5, include_measurement=True
        )
        assert cm.predicted_query_scale == pytest.approx(
            c.predicted_query_scale / 0.1
        )

    def test_zero_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            solvers.quantum_cost_estimate(np.eye(2), 1.0, 0.1, 0.0)
