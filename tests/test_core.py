import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrosim import core
from schrosim.errors import DegenerateStateError, DimensionError

from conftest import random_dominant


class TestAugment:
    def test_scalar_block_layout(self):
        C = core.augment([[0.5]], [0.25])
        assert np.allclose(C, [[0.5, 0.25], [0.0, 1.0]])

    def test_jacobi_block(self):
        G = [[0.0, -0.5], [-1.0 / 3.0, 0.0]]
        g = [0.5, 2.0 / 3.0]
        C = core.augment(G, g)
        assert C.shape == (3, 3)
        assert np.array_equal(C[2], [0.0, 0.0, 1.0])
        assert np.allclose(C[:2, :2], G)
        assert np.allclose(C[:2, 2], g)

    def test_homogeneous_case(self):
        C = core.augment(np.eye(2) * 0.3, np.zeros(2))
        assert np.allclose(C[:2, 2], 0.0)
        assert C[2, 2] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            core.augment(np.eye(2), [1.0])
        with pytest.raises(DimensionError):
            core.augment(np.ones((2, 3)), [1.0, 2.0])


class TestDeaugment:
    def test_divides_by_last(self):
        assert np.allclose(core.deaugment([0.4, 1.2, 2.0]), [0.2, 0.6])

    def test_unit_last_entry(self):
        assert np.allclose(core.deaugment([0.2, 0.6, 1.0]), [0.2, 0.6])

    def test_zero_last_entry_rejected(self):
        with pytest.raises(DegenerateStateError):
            core.deaugment([1.0, 0.0])
        assert np.allclose(core.deaugment([1.0, 1.0]), [1.0])

    @given(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip(self, y):
        y = np.asarray(y)
        aug_vec = np.concatenate([y, [1.0]])
        assert np.array_equal(core.deaugment(aug_vec), y)


class TestSplit:
    def test_worked_entries(self):
        ds = core.split([[0.5, 0.25], [0.0, 1.0]])
        assert np.allclose(ds.C1h, [[-0.5, 0.125], [0.125, 0.0]])
        expected_C2h = np.array([[0.0, -0.125j], [0.125j, 0.0]])
        assert np.allclose(ds.C2h, expected_C2h)

    def test_real_symmetric_has_zero_skew(self):
        ds = core.split([[1.0, 0.3], [0.3, 2.0]])
        assert np.allclose(ds.C2h, 0.0)

    def test_identity(self):
        ds = core.split(np.eye(3))
        assert np.allclose(ds.C1h, 0.0)
        assert np.allclose(ds.C2h, 0.0)

    def test_c1h_eigenvalues_read_a_finished_eigh(self, monkeypatch):
        # C2h != 0: eigvalsh unless the split's eigh has already run, whose
        # eigenvalues are then read and no second eigensolve runs
        C = [[0.5, 0.25], [0.0, 1.0]]
        first, second = core.split(C), core.split(C)
        lam, _ = second.eigh
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert second.c1h_eigenvalues is lam
        assert not calls
        assert np.allclose(first.c1h_eigenvalues, lam, rtol=0.0, atol=1e-15)
        assert len(calls) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 32), st.integers(-5, 5))
    def test_reconstruction_and_hermiticity(self, seed, d, exponent):
        # propagate runs no Hermiticity check on the split, so it must be
        # exact at every scale, not only to a tolerance
        rng = np.random.default_rng(seed)
        scale = 10.0 ** (exponent + rng.uniform(-1, 1, (d, d)))
        C = scale * (rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d)))
        ds = core.split(C)
        assert core.hermiticity_defect(ds.C1h) == 0.0
        assert core.hermiticity_defect(ds.C2h) == 0.0
        recon = ds.C1h + 1j * ds.C2h
        assert np.max(np.abs(recon - (C - np.eye(d)))) <= 1e-12 * max(
            1.0, np.max(np.abs(C))
        )


class TestSpectrum:
    def test_triangular(self):
        eigvals, steady, gap = core.spectrum([[0.5, 0.25], [0.0, 1.0]])
        assert sorted(np.round(eigvals.real, 12)) == [0.5, 1.0]
        assert eigvals[steady] == pytest.approx(1.0)
        assert gap == pytest.approx(0.5)

    def test_jacobi_worked_instance(self):
        # C for A=[[2,1],[1,3]], b=[1,2]; G has char poly t^2 - 1/6 by hand,
        # so the eigenvalues are {1, +-1/sqrt(6)} and the gap is 1 - 1/sqrt(6)
        C = np.array(
            [[0.0, -0.5, 0.5], [-1.0 / 3.0, 0.0, 2.0 / 3.0], [0.0, 0.0, 1.0]]
        )
        eigvals, steady, gap = core.spectrum(C)
        lam = np.sort(eigvals.real)
        assert np.allclose(lam, [-1 / np.sqrt(6), 1 / np.sqrt(6), 1.0], atol=1e-12)
        assert gap == pytest.approx(0.5917517095361369, abs=1e-10)
        # the hint picks the steady eigenvalue, not the largest real part
        eigvals, steady, gap = core.spectrum(C, steady_eigenvalue_hint=-0.4)
        assert eigvals[steady].real == pytest.approx(-1 / np.sqrt(6), abs=1e-12)
        assert gap == pytest.approx(2 / np.sqrt(6), abs=1e-10)

    def test_identity(self):
        eigvals, steady, gap = core.spectrum(np.eye(4))
        assert np.allclose(eigvals, 1.0)
        assert gap == 0.0
        assert eigvals[steady] == pytest.approx(1.0)

    def test_trace_and_radius_consistency(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 24))
            M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            eigvals, steady, gap = core.spectrum(M)
            assert abs(eigvals.sum() - np.trace(M)) <= 1e-8 * max(
                1.0, abs(np.trace(M))
            )
            assert (steady, gap) == core.steady_mode(eigvals)
            assert eigvals[steady].real == np.max(eigvals.real)

    def test_sparsity_and_max_norm(self):
        M = np.array([[2.0, 0.0], [1.0, 3.0]])
        assert core.sparsity_and_max_norm(M) == (2, 3.0)
        assert core.sparsity_and_max_norm(np.zeros((0, 0))) == (0, 0.0)
        assert core.is_diagonally_dominant(M)


class TestDiagonalDominance:
    def test_dominant(self):
        assert core.is_diagonally_dominant([[2.0, 1.0], [1.0, 3.0]])

    def test_not_dominant(self):
        assert not core.is_diagonally_dominant([[1.0, 2.0], [0.0, 1.0]])

    def test_diagonal(self):
        assert core.is_diagonally_dominant(np.diag([1.0, -2.0, 3.0]))

    def test_dominance_implies_contractive_iteration(self, rng):
        # diagonal dominance of A forces r(G) < 1 for G = -Lambda^{-1} M
        for _ in range(20):
            d = int(rng.integers(2, 33))
            A, _ = random_dominant(rng, d)
            G = -(A - np.diag(np.diag(A))) / np.diag(A)[:, None]
            assert np.max(np.abs(np.linalg.eigvals(G))) < 1.0
