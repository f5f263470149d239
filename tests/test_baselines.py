import numpy as np
import pytest

from schrosim import baselines
from schrosim.errors import InvalidInputError, SingularMatrixError

from conftest import random_contractive, random_dominant


def contraction_check(trace: baselines.IterationTrace, C) -> bool | None:
    """Asymptotic decay-rate check against the iteration spectral radius
    (a test-only diagnostic of the classical iteration traces).

    Estimates limsup (delta_k / delta_m)^(1/(k-m)) over the last half of the
    trace and compares against r(G) + 0.05, where G is the non-trivial block
    of an augmented C (or all of C otherwise). Per-step 2-norm contraction
    is deliberately not asserted: it fails for non-normal G even though the
    asymptotic rate holds. Returns None when the trace is too short to
    estimate a rate (< 8 steps).
    """
    C = np.asarray(C, dtype=complex)
    deltas = np.asarray(trace.step_deltas, dtype=float)
    if deltas.size < 8:
        return None
    d1 = C.shape[0]
    last_row = np.zeros(d1)
    last_row[-1] = 1.0
    if np.allclose(C[-1], last_row, atol=1e-14):
        G = C[:-1, :-1]
    else:
        G = C
    r = float(np.max(np.abs(np.linalg.eigvals(G)))) if G.size else 0.0
    # traces that bottom out at zero or roundoff noise are contraction at
    # rate 0; the ratio estimate below would see a spurious plateau there
    if deltas[-1] <= 1e-13 * max(1.0, deltas[0]):
        return True
    m = deltas.size // 2
    span = deltas.size - 1 - m
    if span < 1 or deltas[m] == 0.0:
        return True
    rate = (deltas[-1] / deltas[m]) ** (1.0 / span)
    return bool(rate <= r + 0.05)


class TestClassicalIterate:
    def test_jacobi_first_iterate(self):
        # A=[[2,1],[1,3]], b=[1,2]: from x0=(0,0,1) one sweep gives (0.5, 2/3)
        C = np.array(
            [[0.0, -0.5, 0.5], [-1.0 / 3.0, 0.0, 2.0 / 3.0], [0.0, 0.0, 1.0]]
        )
        trace = baselines.classical_iterate(C, [0.0, 0.0, 1.0], K=1)
        assert np.allclose(trace.iterates[1], [0.5, 2.0 / 3.0, 1.0])
        assert len(trace.step_deltas) == 1

    def test_converged_at_detection(self):
        C = np.diag([0.1, 0.1])
        trace = baselines.classical_iterate(C, [1.0, 1.0], K=10, tol=1e-3)
        assert trace.converged_at is not None
        assert trace.step_deltas[trace.converged_at - 1] < 1e-3

    def test_limit_is_fixed_point(self):
        C = np.array(
            [[0.0, -0.5, 0.5], [-1.0 / 3.0, 0.0, 2.0 / 3.0], [0.0, 0.0, 1.0]]
        )
        trace = baselines.classical_iterate(C, [0.0, 0.0, 1.0], K=80)
        assert np.allclose(trace.iterates[-1], [0.2, 0.6, 1.0], atol=1e-10)

    def test_bad_K(self):
        with pytest.raises(InvalidInputError):
            baselines.classical_iterate(np.eye(2), [1.0, 0.0], K=0)


class TestClassicalPower:
    def test_diagonal_converges_to_top(self):
        est, vec = baselines.classical_power(np.diag([0.9, 0.5]), [1.0, 1.0], K=60)
        assert est.real == pytest.approx(0.9, abs=1e-10)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-10)

    def test_three_step_rayleigh_instance(self):
        # C=diag(0.9, 0.5), x0=(1,1)/sqrt(2), K=3: frozen Rayleigh value
        est, _ = baselines.classical_power(
            np.diag([0.9, 0.5]), np.array([1.0, 1.0]) / np.sqrt(2), K=3
        )
        assert est.real == pytest.approx(0.888575418688056, abs=1e-12)
        assert est.imag == pytest.approx(0.0, abs=1e-15)

    def test_scaling_invariance(self):
        C = np.diag([0.9, 0.5])
        e1, _ = baselines.classical_power(C, [1.0, 1.0], K=5)
        e2, _ = baselines.classical_power(C, [7.0, 7.0], K=5)
        assert e1 == pytest.approx(e2)

    def test_zero_start_rejected(self):
        with pytest.raises(InvalidInputError):
            baselines.classical_power(np.eye(2), [0.0, 0.0], K=3)


class TestDirectSolve:
    def test_worked_instance(self):
        y = baselines.direct_solve([[2.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
        assert np.allclose(y, [0.2, 0.6], atol=1e-14)

    def test_random_residuals(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 33))
            A, b = random_dominant(rng, d)
            y = baselines.direct_solve(A, b)
            assert np.linalg.norm(A @ y - b) <= 1e-10 * max(1.0, np.linalg.norm(b))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            baselines.direct_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])


class TestExactPropagator:
    def test_scalar_decay(self):
        x = baselines.exact_propagator([[0.5]], [1.0], 1.0)
        assert x[0] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_zero_time_is_identity(self, rng):
        x0 = rng.normal(size=3)
        assert np.allclose(baselines.exact_propagator(np.eye(3) * 0.4, x0, 0.0), x0)

    def test_semigroup_property(self, rng):
        for _ in range(5):
            C = random_contractive(rng, 4)
            x0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            one = baselines.exact_propagator(C, x0, 1.7)
            two = baselines.exact_propagator(C, baselines.exact_propagator(C, x0, 0.9), 0.8)
            assert np.max(np.abs(one - two)) <= 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            baselines.exact_propagator(np.eye(2), [1.0, 0.0], -1.0)


class TestContractionCheck:
    def _jacobi_C(self):
        return np.array(
            [[0.0, -0.5, 0.5], [-1.0 / 3.0, 0.0, 2.0 / 3.0], [0.0, 0.0, 1.0]]
        )

    def test_contractive_iteration_passes(self):
        C = self._jacobi_C()
        trace = baselines.classical_iterate(C, [0.0, 0.0, 1.0], K=40)
        assert contraction_check(trace, C) is True

    def test_short_trace_is_indeterminate(self):
        C = self._jacobi_C()
        trace = baselines.classical_iterate(C, [0.0, 0.0, 1.0], K=4)
        assert contraction_check(trace, C) is None

    def test_rate_mismatch_detected(self):
        # a trace decaying at 0.95 per step is inconsistent with r = 0.5
        slow = baselines.classical_iterate(np.diag([0.95, 0.5]), [1.0, 1.0], K=40)
        assert contraction_check(slow, np.diag([0.5, 0.5])) is False

    def test_expanding_iteration_matches_its_own_radius(self):
        # the check asserts rate consistency, not decay: an expanding
        # iteration growing at exactly r(C) still passes
        C = np.diag([1.5, 0.5])
        trace = baselines.classical_iterate(C, [1.0, 1.0], K=30)
        assert contraction_check(trace, C) is True

    def test_nilpotent_hits_zero(self):
        C = np.array([[0.0, 1.0], [0.0, 0.0]])
        trace = baselines.classical_iterate(C, [0.0, 1.0], K=10)
        assert contraction_check(trace, C) is True

    def test_random_contractive_iterations(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 9))
            A, b = random_dominant(rng, d)
            G = -(A - np.diag(np.diag(A))) / np.diag(A)[:, None]
            g = b / np.diag(A)
            C = np.zeros((d + 1, d + 1))
            C[:d, :d] = G
            C[:d, d] = g
            C[d, d] = 1.0
            x0 = np.concatenate([rng.normal(size=d), [1.0]])
            trace = baselines.classical_iterate(C, x0, K=60)
            assert contraction_check(trace, C) in (True, None)
