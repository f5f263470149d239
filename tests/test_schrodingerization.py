import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from schrosim import baselines, core, schrodingerization as eng, solvers
from schrosim.errors import (
    DegenerateRecoveryError,
    DimensionError,
    InvalidInputError,
    NumericalError,
    SchrosimError,
)

from conftest import random_contractive, random_dominant, refuse_scipy_linalg
from htot_reference import assemble_Htot
from pspace_reference import (
    expectation_without_recovery,
    initial_warped_state,
    recover as pspace_recover,
)


class TestMakeGrid:
    def test_unit_spaced_modes_at_L_pi(self):
        grid = eng.make_grid(4, np.pi)
        assert np.allclose(grid.p, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])
        assert np.allclose(grid.eta, [-1.0, 0.0, 1.0, 2.0])

    def test_spacings(self):
        grid = eng.make_grid(8, 10.0)
        assert grid.dp == pytest.approx(2.5)
        assert grid.deta == pytest.approx(np.pi / 10)
        assert grid.p.size == grid.eta.size == 8

    @pytest.mark.parametrize("N", [2, 3, 12, 2**17])
    def test_bad_N_rejected(self, N):
        with pytest.raises(InvalidInputError):
            eng.make_grid(N, 1.0)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_bad_L_rejected(self, L):
        # an infinite L would put every grid point at NaN
        with pytest.raises(InvalidInputError, match="L must be finite and positive"):
            eng.make_grid(8, L)


class TestInitialWarpedState:
    def test_peak_value(self):
        grid = eng.make_grid(4, np.pi)
        w = initial_warped_state([1.0], grid)
        assert w.values[0, np.argmin(np.abs(grid.p))] == pytest.approx(1.0)

    def test_decay_value(self):
        grid = eng.make_grid(64, 8.0)
        w = initial_warped_state([1.0], grid)
        idx = np.argmin(np.abs(grid.p - 1.0))
        assert abs(w.values[0, idx]) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_separable_columns(self):
        grid = eng.make_grid(16, 4.0)
        x0 = np.array([0.2, 0.6, 1.0])
        x0 = x0 / np.linalg.norm(x0)
        w = initial_warped_state(x0, grid)
        assert np.allclose(w.values, np.exp(-np.abs(grid.p))[None, :] * x0[:, None])

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            initial_warped_state([0.0, 0.0], eng.make_grid(8, 2.0))


class TestProfile:
    PROFILES = [eng.EXP_ABS, eng.SMOOTH, eng.Profile("a3-m2", 3.0, 2)]

    def test_exp_abs_is_the_paper_profile(self):
        grid = eng.make_grid(512, 7.3)
        assert np.array_equal(eng.EXP_ABS(grid.p), np.exp(-np.abs(grid.p)))
        assert eng.EXP_ABS.negative_mass == 0.5

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda q: q.name)
    def test_exp_decay_on_the_positive_half(self, profile):
        p = np.linspace(0.0, 30.0, 301)
        assert np.array_equal(profile(p), np.exp(-p))

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda q: q.name)
    def test_join_at_zero_is_C_m(self, profile):
        # ψ(-h) - e^{h} = -e^{-ah}·Σ_{j>m} ((1+a)h)^j/j! shrinks as h^{m+1}
        def gap(h):
            return abs(profile(np.array([-h]))[0] - np.exp(h))

        assert gap(0.02) / gap(0.01) == pytest.approx(2.0 ** (profile.m + 1), rel=0.05)

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda q: q.name)
    def test_negative_mass_closed_form(self, profile):
        quad, _ = scipy.integrate.quad(
            lambda u: profile(np.array([-u]))[0] ** 2, 0.0, np.inf
        )
        assert profile.negative_mass == pytest.approx(quad, rel=1e-10)

    def test_exp_abs_is_sampled_as_is(self):
        grid = eng.make_grid(512, 7.3)
        sampled = eng.sample_profile(eng.EXP_ABS, grid)
        assert np.array_equal(sampled, np.exp(-np.abs(grid.p)))

    @pytest.mark.parametrize("profile", PROFILES[1:], ids=lambda q: q.name)
    def test_seam_blend_touches_only_the_seam(self, profile):
        grid = eng.make_grid(256, 6.0)
        sampled = eng.sample_profile(profile, grid)
        away = grid.p >= -grid.L / 2
        assert np.array_equal(sampled[away], profile(grid.p[away]))
        # at p = -L the sample is the wrapped tail e^{-(p+2L)} = e^{-L}
        assert sampled[0] == np.exp(-grid.L)

    def test_seam_blend_smooths_the_periodic_tail(self):
        # relative norm of the Fourier coefficients an N = 256 grid cannot
        # hold, from a 2^15-point reference at L = 6; without the blend the
        # jump of about e^{-L} at ±L leaves 9e-5 there
        ref = eng.make_grid(2**15, 6.0)
        coeffs = np.abs(np.fft.fft(eng.sample_profile(eng.SMOOTH, ref)))
        k = np.abs(np.fft.fftfreq(ref.N, 1.0 / ref.N))
        tail = np.linalg.norm(coeffs[k > 128]) / np.linalg.norm(coeffs)
        assert tail <= 1e-9

    def test_smooth_keeps_an_eighth_of_the_mass_on_p_positive(self):
        share = 0.5 / (0.5 + eng.SMOOTH.negative_mass)
        assert 0.125 <= share < 0.13

    def test_smooth_initial_state(self):
        grid = eng.make_grid(64, 6.0)
        x0 = np.array([0.6, -0.8j])
        w = initial_warped_state(x0, grid, eng.SMOOTH)
        psi = eng.sample_profile(eng.SMOOTH, grid)
        assert np.array_equal(w.values, psi[None, :] * x0[:, None])


class TestTransform:
    def test_lorentzian_normalisation(self):
        # quadrature oracle: (1/2pi) * integral of e^{-|p|} dp = 1/pi
        grid = eng.make_grid(256, 10.0)
        v = eng.transform(initial_warped_state([1.0], grid), "forward")
        j0 = int(np.where(grid.mode_index == 0)[0][0])
        assert v.values[0, j0].real == pytest.approx(1.0 / np.pi, abs=1e-3)
        # and the full profile approaches 1/(pi (1 + eta^2))
        assert np.allclose(
            v.values[0].real, 1.0 / (np.pi * (1.0 + grid.eta**2)), atol=2e-3
        )

    def test_round_trip_identity(self, rng):
        grid = eng.make_grid(64, 5.0)
        for _ in range(10):
            vals = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
            w = eng.WarpedState(values=vals, grid=grid)
            back = eng.transform(eng.transform(w, "forward"), "inverse")
            assert np.max(np.abs(back.values - vals)) <= 1e-12

    def test_constant_concentrates_at_zero_mode(self):
        grid = eng.make_grid(32, 4.0)
        w = eng.WarpedState(values=np.ones((1, 32), dtype=complex), grid=grid)
        v = eng.transform(w, "forward")
        j0 = int(np.where(grid.mode_index == 0)[0][0])
        mass = np.abs(v.values[0]) ** 2
        assert mass[j0] / mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_direction_type_mismatch(self):
        grid = eng.make_grid(8, 2.0)
        w = eng.WarpedState(values=np.ones((1, 8), dtype=complex), grid=grid)
        with pytest.raises(DimensionError):
            eng.transform(w, "inverse")


class TestGeneratorBlocks:
    def test_scalar_arithmetic(self):
        grid = eng.make_grid(4, np.pi)  # eta = -1, 0, 1, 2
        ds = core.DriftSplit(C1h=np.array([[-0.5]]), C2h=np.array([[0.0]]))
        gen = eng.generator_blocks(ds, grid)
        j2 = int(np.where(grid.mode_index == 2)[0][0])
        assert gen.blocks[j2, 0, 0] == pytest.approx(1.0)
        j0 = int(np.where(grid.mode_index == 0)[0][0])
        assert gen.blocks[j0, 0, 0] == pytest.approx(0.0)  # -C2h at eta = 0

    def test_hermitian_reduction_blocks(self):
        C = np.array([[0.9, 0.1], [0.1, 0.5]])
        ds = core.split(C)
        grid = eng.make_grid(8, 4.0)
        gen = eng.generator_blocks(ds, grid)
        H = -(C - np.eye(2))
        for j, eta in enumerate(grid.eta):
            assert np.allclose(gen.blocks[j], eta * H, atol=1e-14)

    def test_rejects_non_hermitian(self):
        grid = eng.make_grid(8, 2.0)
        bad = core.DriftSplit(
            C1h=np.array([[0.0, 1.0], [0.0, 0.0]]), C2h=np.zeros((2, 2))
        )
        with pytest.raises(InvalidInputError):
            eng.generator_blocks(bad, grid)

    def test_blocks_hermitian_random(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 9))
            C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            gen = eng.generator_blocks(core.split(C), eng.make_grid(16, 3.0))
            defect = np.max(np.abs(gen.blocks - gen.blocks.conj().transpose(0, 2, 1)))
            assert defect <= 1e-12


def _mode_major_permutation(d1, N):
    return np.array([i * N + k for k in range(N) for i in range(d1)])


class TestAssembleHtot:
    def test_scalar_real_collapse(self):
        # real scalar C collapses to (1 - c) * D
        grid = eng.make_grid(4, np.pi)
        H = assemble_Htot(np.array([[0.5]]), grid)
        assert np.allclose(H, 0.5 * np.diag(grid.eta))

    def test_hermitian_by_construction(self, rng):
        C = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = assemble_Htot(C, eng.make_grid(16, 2.0))
        assert core.hermiticity_defect(H) <= 1e-12

    def test_block_equivalence(self, rng):
        for _ in range(5):
            d = int(rng.integers(1, 9))
            C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            grid = eng.make_grid(16, 3.0)
            H = assemble_Htot(C, grid)
            perm = _mode_major_permutation(d, grid.N)
            Hp = H[np.ix_(perm, perm)]
            gen = eng.generator_blocks(core.split(C), grid)
            import scipy.linalg

            assert np.max(np.abs(Hp - scipy.linalg.block_diag(*gen.blocks))) <= 1e-12

    def test_size_overflow_rejected(self):
        with pytest.raises(InvalidInputError):
            assemble_Htot(np.eye(64), eng.make_grid(128, 2.0))


class TestEvolve:
    def _random_state(self, rng, d1, grid):
        vals = rng.normal(size=(d1, grid.N)) + 1j * rng.normal(size=(d1, grid.N))
        return eng.SpectralState(values=vals, grid=grid)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_time_rejected(self, monkeypatch, rng, t):
        # refused before any work: no plan, no kernel, no split
        C = random_contractive(rng, 6)
        ds = core.split(C)
        grid = eng.make_grid(64, 5.0)
        monkeypatch.setattr(core, "split", None)
        monkeypatch.setattr(eng, "_evolve_modes", None)
        with pytest.raises(InvalidInputError, match="t must be finite and nonnegative"):
            eng.evolve(self._random_state(rng, 6, grid), ds, t)
        with pytest.raises(InvalidInputError, match="t must be finite and nonnegative"):
            eng.propagate(C, np.ones(6), t, grid)

    def test_zero_time_identity(self, rng):
        grid = eng.make_grid(16, 3.0)
        C = rng.normal(size=(3, 3))
        s = self._random_state(rng, 3, grid)
        out = eng.evolve(s, core.split(C), 0.0)
        assert np.allclose(out.values, s.values, atol=1e-13)

    def test_norm_preserved(self, rng):
        grid = eng.make_grid(32, 4.0)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            s = self._random_state(rng, d, grid)
            t = float(rng.uniform(0, 50))
            out = eng.evolve(s, core.split(C), t)
            assert abs(
                np.linalg.norm(out.values) - np.linalg.norm(s.values)
            ) <= 1e-10 * np.linalg.norm(s.values)

    def test_state_and_split_dimensions_must_agree(self):
        grid = eng.make_grid(8, 2.0)
        s = eng.SpectralState(values=np.ones((2, 8), dtype=complex), grid=grid)
        with pytest.raises(DimensionError):
            eng.evolve(s, core.split(np.eye(3)), 1.0)

    def test_scalar_mode_amplitude_constant(self):
        grid = eng.make_grid(8, 2.0)
        s = eng.SpectralState(values=np.ones((1, 8), dtype=complex), grid=grid)
        out = eng.evolve(s, core.split(np.array([[0.5]])), 7.3)
        assert np.allclose(np.abs(out.values), 1.0, atol=1e-12)


def _real_nonnormal(rng, d):
    """Real C = I - P + K: P symmetric positive semidefinite, K antisymmetric."""
    B = rng.normal(size=(d, d))
    K = rng.normal(size=(d, d))
    return np.eye(d) - 0.3 * (B @ B.T) / d + 0.5 * (K - K.T)


def _complex_hermitian(rng, d):
    # a GEMM product B·B† is Hermitian only to rounding; (P + P†)/2 is exact
    B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    P = B @ B.conj().T
    return np.eye(d) - 0.15 * (P + P.conj().T) / d


def _real_symmetric(rng, d):
    B = rng.normal(size=(d, d))
    P = B @ B.T
    return np.eye(d) - 0.15 * (P + P.T) / d


def _gapped(rng, d, real):
    """C whose C1h has one eigenvalue near 0 across a gap from the rest, in
    [-1.2, -0.8], as the Jacobi solve's augmented drift has; C2h is small."""
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    ev = rng.uniform(-1.2, -0.8, d)
    ev[0] = rng.uniform(-0.05, -0.01)
    S = (Q * ev) @ Q.T
    K = rng.normal(size=(d, d))
    if real:
        return np.eye(d) + (S + S.T) / 2 + 0.1 * (K - K.T) / np.sqrt(d)
    K = K + 1j * rng.normal(size=(d, d))
    return np.eye(d) + (S + S.T) / 2 + 0.05j * (K + K.conj().T) / np.sqrt(d)


def _complex_d64(rng, d=64):
    """C and x0 of the evolve-complex-d64 benchmark's shape: a complex
    non-normal contraction whose C2h's spread swamps C1h's gaps."""
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    P = (Q * rng.uniform(0.1, 1.0, d)) @ Q.conj().T
    B = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(d)
    C = np.eye(d) - (P + P.conj().T) / 2.0 + 1j * (B + B.conj().T) / 2.0
    return C, rng.normal(size=d) + 1j * rng.normal(size=d)


# structure name -> (C builder, the evolve path it takes)
_STRUCTURES = {
    "real-nonnormal": (_real_nonnormal, "real"),
    "complex-hermitian": (_complex_hermitian, "hermitian"),
    "real-symmetric": (_real_symmetric, "hermitian"),
    "general": (random_contractive, "general"),
}
# the same for C with a gap in C1h's spectrum, where the folded kernel runs
_GAPPED = {
    "real-gapped": (lambda rng, d: _gapped(rng, d, True), "real"),
    "general-gapped": (lambda rng, d: _gapped(rng, d, False), "general"),
}

# the path evolve runs a Hermitian structure on; only propagate reads a
# Hermitian C out by its phases
_EVOLVED_AS = {"complex-hermitian": "general", "real-symmetric": "real"}

# path -> what it decomposes on an N-mode grid: (matrices per eigh call on
# one matrix, mode generators in stacked eigh calls). Every path takes the
# split's one eigh of C1h, whose eigenvalues the kink speed and the
# polynomial plan read
_PATH_WORK = {
    "hermitian": lambda N: ([1], 0),
    "real": lambda N: ([1], N // 2 + 1),
    "general": lambda N: ([1], N),
}


def _evolved_work(structure, N):
    """What evolve decomposes for ``structure`` on an N-mode grid: the
    split's one eigh of C1h and the mode generators the per-mode kernel
    decomposes on the path it runs on."""
    return _PATH_WORK[_EVOLVED_AS.get(structure, _STRUCTURES[structure][1])](N)


def _per_mode_reference(values, blocks, t):
    """exp(-itH_k)·v_k one mode at a time, each block decomposed on its own."""
    out = np.empty_like(values)
    for j, H in enumerate(blocks):
        lam, V = np.linalg.eigh(H)
        out[:, j] = V @ (np.exp(-1j * t * lam) * (V.conj().T @ values[:, j]))
    return out


@pytest.fixture
def decompositions(monkeypatch):
    """Records the numpy.linalg.eigh calls on one matrix and the matrices
    of every stacked (3-D) call, which only the per-mode kernel makes;
    ``work()`` reads both, ``clear()`` resets."""
    eigh_calls, mode_matrices = [], []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        a = np.asarray(a)
        if a.ndim == 3:
            mode_matrices.append(a.shape[0])
        else:
            eigh_calls.append(1)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)

    class Record:
        @staticmethod
        def work():
            return eigh_calls[:], sum(mode_matrices)

        @staticmethod
        def clear():
            eigh_calls.clear()
            mode_matrices.clear()

    return Record


class TestEvolvePaths:
    """Each structure-aware path of evolve against the per-mode eigh
    reference, with the path pinned by the eigh calls and the mode
    generators its stacked eigh calls decompose."""

    def _evolve_against_reference(
        self, rng, decompositions, structure, d, N, L, t, tol=1e-12, works=None
    ):
        build, path = _STRUCTURES[structure]
        C = build(rng, d)
        grid = eng.make_grid(N, L)
        gen = eng.generator_blocks(core.split(C), grid)
        assert eng.evolve_path(gen.split) == path
        vals = rng.normal(size=(d, N)) + 1j * rng.normal(size=(d, N))
        ref = _per_mode_reference(vals, gen.blocks, t)
        decompositions.clear()
        out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen.split, t)
        assert decompositions.work() in (works or [_evolved_work(structure, N)])
        scale = np.linalg.norm(vals)
        assert np.max(np.abs(out.values - ref)) <= tol * scale
        assert abs(np.linalg.norm(out.values) - scale) <= 1e-10 * scale
        return gen

    @pytest.mark.parametrize("structure", list(_STRUCTURES))
    def test_matches_per_mode_reference(self, rng, decompositions, structure):
        for d in (2, 5, 8):
            self._evolve_against_reference(
                rng, decompositions, structure, d, N=64, L=5.0, t=2.0
            )

    @pytest.mark.parametrize("structure", list(_STRUCTURES))
    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_smallest_grid(self, rng, decompositions, structure, t):
        # at t = 0 every polynomial degree is 0, so every path takes the
        # polynomial and reduces nothing. A 2×2 Hermitian C1h has its two
        # eigenvalues either side of its midpoint, so X² is a multiple of I
        # and the degree is 0 up to rounding: at t > 0 either kernel may run
        works = None
        unreduced = ([1], 0)
        if t == 0.0:
            works = [unreduced]
        elif structure in _EVOLVED_AS:
            works = [unreduced, _evolved_work(structure, 4)]
        self._evolve_against_reference(
            rng, decompositions, structure, d=2, N=4, L=np.pi, t=t, works=works
        )

    @pytest.mark.parametrize("c", [0.5, 0.5 + 0.25j], ids=["real", "complex"])
    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_scalar_system(self, rng, decompositions, c, t):
        # d + 1 = 1 on every path it can take: a real scalar is symmetric
        # and a complex one is not, but on both the generator is a phase per
        # mode, a polynomial of degree 0 that costs nothing, so no mode is
        # reduced at any t; the split takes its one eigh of C1h, whose
        # eigenvalue the plan reads
        grid = eng.make_grid(4, np.pi)
        gen = eng.generator_blocks(core.split(np.array([[c]])), grid)
        vals = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        exact = np.exp(-1j * t * gen.blocks[:, 0, 0].real) * vals
        decompositions.clear()
        out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen.split, t)
        assert decompositions.work() == ([1], 0)
        assert (out.kernel, out.max_degree) == ("chebyshev", 0)
        assert np.max(np.abs(out.values - exact)) <= 1e-12 * np.linalg.norm(vals)

    @pytest.mark.parametrize("structure", ["real-symmetric", "complex-hermitian"])
    def test_hermitian_path_at_large_phase(self, rng, decompositions, structure):
        # phases t·μ·η up to about 10³ rad: propagate's factorised ladder
        # e^{-itμ(k0 + B·a + b)π/L} must keep up with the per-mode eigh
        # reference chain read out by the p-space fit
        d, t = 8, 20.0
        C = _STRUCTURES[structure][0](rng, d)
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        grid = eng.make_grid(512, 20.0)
        gen = eng.generator_blocks(core.split(C), grid)
        v0, _ = eng.initial_state(x0, grid, eng.SMOOTH)
        vt = eng.SpectralState(_per_mode_reference(v0.values, gen.blocks, t), grid, t)
        ref = pspace_recover(eng.transform(vt, "inverse"), _propagate_floor(gen.split, grid, t))
        decompositions.clear()
        rec = eng.propagate(C, x0, t, grid)
        assert decompositions.work() == _PATH_WORK["hermitian"](grid.N)
        assert (rec.path, rec.kernel) == ("hermitian", "phases")
        assert np.linalg.norm(rec.x - ref.x) <= 1e-11 * np.linalg.norm(ref.x)
        assert rec.success_probability == pytest.approx(ref.success_probability, rel=1e-11)

    def test_complex_hermitian_path_has_complex_C1h(self, rng, decompositions):
        gen = self._evolve_against_reference(
            rng, decompositions, "complex-hermitian", d=4, N=16, L=3.0, t=2.0
        )
        assert np.any(gen.split.C1h.imag != 0)
        assert not np.any(gen.split.C2h)

    @pytest.mark.parametrize(
        "d, t, kernel", [(64, 0.5, "chebyshev"), (8, 2.0, "eigh")]
    )
    def test_real_symmetric_C_evolves_on_the_real_path(self, rng, d, t, kernel):
        # evolve runs a real Hermitian split as "real": the start of a real
        # x0 evolves one vector per pair on a state kernel and stays
        # conjugate-symmetric bit for bit, as on a real non-normal C
        grid = eng.make_grid(32, 5.0)
        gen = eng.generator_blocks(core.split(_real_symmetric(rng, d)), grid)
        assert eng.evolve_path(gen.split) == "hermitian"
        v0, _ = eng.initial_state(rng.normal(size=d), grid, eng.SMOOTH)
        vectors = []
        modes = eng._evolve_modes

        def recording(ds, eta, X, t):
            vectors.append(X.shape[2])
            return modes(ds, eta, X, t)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eng, "_evolve_modes", recording)
            out = eng.evolve(v0, gen.split, t)
        assert (out.kernel, vectors) == (kernel, [1])
        h = grid.N // 2 - 1
        assert np.array_equal(out.values[:, h - 1 :: -1].conj(), out.values[:, h + 1 : -1])
        ref = _per_mode_reference(v0.values, gen.blocks, t)
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.linalg.norm(v0.values)

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    @pytest.mark.parametrize("N", [4, 16, 64])
    def test_zero_modes_are_not_reduced(self, rng, decompositions, structure, N):
        # one stacked-eigh matrix per nonzero mode (general path) or per
        # k = 0..N/2 whose column or whose -k partner is nonzero (real path)
        build, path = _STRUCTURES[structure]
        grid = eng.make_grid(N, 4.0)
        gen = eng.generator_blocks(core.split(build(rng, 3)), grid)
        vals = rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N))
        vals[:, rng.random(N) < 0.5] = 0.0
        vals[:, 0] = 0.0  # k = -N/2 + 1
        live = vals.any(axis=0)
        if path == "general":
            expected = int(live.sum())
        else:
            h = N // 2 - 1  # slot of k = 0
            expected = sum(
                live[h + k] or (0 < k < N // 2 and live[h - k])
                for k in range(N // 2 + 1)
            )
        decompositions.clear()
        out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen.split, 1.7)
        assert decompositions.work() == ([1], expected)
        assert not out.values[:, ~live].any()
        ref = _per_mode_reference(vals, gen.blocks, 1.7)
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.linalg.norm(vals)

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    def test_lapack_failure_raises_numerical_error(self, rng, monkeypatch, structure):
        # the stacked eigh of the mode generators fails; the split's own
        # eigh of C1h, on one matrix, runs
        real_eigh = np.linalg.eigh

        def failing_stacked_eigh(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing_stacked_eigh)
        build, _ = _STRUCTURES[structure]
        grid = eng.make_grid(8, 3.0)
        s = eng.SpectralState(values=np.ones((3, 8), dtype=complex), grid=grid)
        with pytest.raises(NumericalError, match="did not converge"):
            eng.evolve(s, core.split(build(rng, 3)), 1.0)

    @pytest.mark.parametrize("structure", list(_STRUCTURES))
    def test_propagate_matches_expm(self, rng, decompositions, structure):
        build, path = _STRUCTURES[structure]
        d, t = 6, 3.0
        C = build(rng, d)
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        grid = eng.make_grid(512, eng.default_domain_halfwidth(core.split(C).C1h, t))
        decompositions.clear()
        rec = eng.propagate(C, x0, t, grid, profile=eng.EXP_ABS)
        assert decompositions.work() == _PATH_WORK[path](grid.N)
        assert rec.path == path
        exact = scipy.linalg.expm((C - np.eye(d)) * t) @ x0
        fid = np.abs(np.vdot(exact / np.linalg.norm(exact), rec.state)) ** 2
        assert fid >= 1 - 1e-3

    @pytest.mark.parametrize("structure", list(_STRUCTURES))
    def test_propagate_builds_no_block_stack(self, rng, monkeypatch, structure):
        def no_blocks(*args, **kwargs):
            raise AssertionError("propagate built the dense block stack")

        monkeypatch.setattr(eng, "generator_blocks", no_blocks)
        build, _ = _STRUCTURES[structure]
        d, t = 31, 1.0
        C = build(rng, d)
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        grid = eng.make_grid(512, eng.default_domain_halfwidth(core.split(C).C1h, t))
        stack_bytes = grid.N * d * d * 16
        tracemalloc.start()
        try:
            rec = eng.propagate(C, x0, t, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes / 4
        exact = scipy.linalg.expm((C - np.eye(d)) * t) @ x0
        fid = np.abs(np.vdot(exact / np.linalg.norm(exact), rec.state)) ** 2
        assert fid >= 1 - 1e-3

    @pytest.mark.parametrize("structure", ["real-symmetric", "complex-hermitian"])
    def test_hermitian_propagate_builds_no_state(self, rng, monkeypatch, structure):
        # the start, the phases and the readout fold into one sum per
        # eigenvector: neither evolve nor recover runs, and the peak stays
        # far below the (d+1)×N state at d = 63
        def refused(name):
            def f(*args, **kwargs):
                raise AssertionError(f"propagate called {name} on the Hermitian path")

            return f

        monkeypatch.setattr(eng, "evolve", refused("evolve"))
        monkeypatch.setattr(eng, "recover", refused("recover"))
        build, _ = _STRUCTURES[structure]
        n, t = 64, 1.0
        C = build(rng, n)
        x0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        ds = core.split(C)
        grid = eng.make_grid(65536, eng.default_domain_halfwidth(ds.C1h, t))
        state_bytes = n * grid.N * 16
        tracemalloc.start()
        try:
            rec = eng.propagate(ds, x0, t, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state_bytes / 4
        assert (rec.path, rec.kernel, rec.max_degree) == ("hermitian", "phases", None)
        exact = scipy.linalg.expm((C - np.eye(n)) * t) @ x0
        fid = np.abs(np.vdot(exact / np.linalg.norm(exact), rec.state)) ** 2
        assert fid >= 1 - 1e-6


@settings(max_examples=60, deadline=None)
@given(
    structure=st.sampled_from(list(_STRUCTURES)),
    d=st.integers(1, 9),
    N=st.sampled_from([4, 8, 16, 32, 64]),
    t=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_matches_reference_property(structure, d, N, t, seed):
    """Every path agrees with the per-mode eigh reference and keeps the
    norm of every mode."""
    rng = np.random.default_rng(seed)
    grid = eng.make_grid(N, float(rng.uniform(np.pi, 8.0)))
    C = _STRUCTURES[structure][0](rng, d)
    gen = eng.generator_blocks(core.split(C), grid)
    vals = rng.normal(size=(d, N)) + 1j * rng.normal(size=(d, N))
    out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen.split, t).values
    ref = _per_mode_reference(vals, gen.blocks, t)
    scale = np.linalg.norm(vals)
    assert np.max(np.abs(out - ref)) <= 1e-12 * scale
    mode_norms = np.linalg.norm(vals, axis=0)
    drift = np.abs(np.linalg.norm(out, axis=0) - mode_norms)
    assert np.max(drift) <= 1e-10 * mode_norms.max()


def _chebyshev(ds, vals, eta, t, centre=None):
    """The polynomial kernel on every column of vals, planned as ``evolve``
    plans it, or folded about ``centre``: "gap" (the midpoint of the widest
    gap in C1h's spectrum) or "mid" (the midpoint of its interval)."""
    if centre is None:
        plan = eng._chebyshev_plan(ds, eta, t, np.ones(eta.size), np.inf)
    else:
        w = ds.eigh[0]
        i = int(np.argmax(np.diff(w)))
        at = {"gap": (w[i] + w[i + 1]) / 2, "mid": (w[0] + w[-1]) / 2}[centre]
        plan = eng._folded_plan(ds, eta, t, eng._spectral_interval(ds.C2h), at)
    return eng._chebyshev_stack(ds, vals.T, eta, t, plan).T, plan


def _assert_matches(out, ref, vals, tol=1e-12):
    scale = np.linalg.norm(vals)
    assert np.max(np.abs(out - ref)) <= tol * scale
    mode_norms = np.linalg.norm(vals, axis=0)
    drift = np.abs(np.linalg.norm(out, axis=0) - mode_norms)
    assert np.max(drift) <= 1e-10 * mode_norms.max()


class TestChebyshevKernel:
    """The polynomial kernel against the per-mode eigh reference and exact
    phases, the plan that centres it, and the rule that picks it."""

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    @pytest.mark.parametrize("d", [16, 32, 64])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_matches_per_mode_reference(self, rng, decompositions, structure, d, t):
        C = _STRUCTURES[structure][0](rng, d)
        grid = eng.make_grid(32, 5.0)
        gen = eng.generator_blocks(core.split(C), grid)
        vals = rng.normal(size=(d, 32)) + 1j * rng.normal(size=(d, 32))
        ref = _per_mode_reference(vals, gen.blocks, t)
        decompositions.clear()
        out, _ = _chebyshev(gen.split, vals, grid.eta, t)
        assert decompositions.work() == ([1], 0)  # C1h's eigenbasis, no mode
        _assert_matches(out, ref, vals)

    @pytest.mark.parametrize(
        "structure, d, t",
        [("real-nonnormal", 64, 0.25), ("real-nonnormal", 64, 0.5),
         ("general", 32, 0.5), ("general", 64, 1.0)],
    )
    def test_evolve_takes_it_on_both_paths(self, rng, decompositions, structure, d, t):
        # the real path hands the polynomial v_k and conj(v_{-k}) per mode
        build, path = _STRUCTURES[structure]
        grid = eng.make_grid(32, 5.0)
        gen = eng.generator_blocks(core.split(build(rng, d)), grid)
        vals = rng.normal(size=(d, 32)) + 1j * rng.normal(size=(d, 32))
        vals[:, rng.random(32) < 0.3] = 0.0
        decompositions.clear()
        out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen.split, t)
        assert decompositions.work() == ([1], 0)
        assert (eng.evolve_path(gen.split), out.kernel) == (path, "chebyshev")
        assert 0 < out.max_degree <= d + 1  # 2·D + 1 in H: at most d/2 steps
        assert not out.values[:, ~vals.any(axis=0)].any()
        _assert_matches(out.values, _per_mode_reference(vals, gen.blocks, t), vals)

    def test_real_input_stays_conjugate_symmetric(self, rng):
        # a real warped state has conjugate columns k and -k; the real path
        # evolves both under H_k, so they stay conjugate. k = N/2 has no
        # partner on the grid, so it is zeroed, as initial_state's cut does
        d, t = 64, 0.5
        grid = eng.make_grid(32, 5.0)
        x0 = rng.normal(size=d)
        ds = core.split(_real_nonnormal(rng, d))
        v0, _ = eng.initial_state(x0, grid, eng.SMOOTH)
        v0.values[:, -1] = 0.0
        out = eng.evolve(v0, ds, t)
        assert out.kernel == "chebyshev"
        back = eng.transform(out, "inverse").values
        assert np.max(np.abs(back.imag)) <= 1e-14 * np.max(np.abs(back))

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 25.0])
    def test_diagonal_generator_gets_exact_phases(self, rng, t, centre="mid"):
        # H = -(η·diag(a) + diag(b)) is diagonal, so exp(-itH) is the phase
        # e^{it(ηa + b)}; at t = 25 the largest t·‖X‖ is about 500
        n = 6
        a = -rng.uniform(0.0, 1.0, n)
        b = rng.uniform(-2.0, 2.0, n)
        ds = core.DriftSplit(C1h=np.diag(a).astype(complex), C2h=np.diag(b).astype(complex))
        eta = np.array([0.0, 1.0, -3.0, 7.5, -40.0])
        vals = rng.normal(size=(n, eta.size)) + 1j * rng.normal(size=(n, eta.size))
        out, plan = _chebyshev(ds, vals, eta, t, centre)
        exact = np.exp(1j * t * (np.outer(a, eta) + b[:, None])) * vals
        assert (plan.D.max() == 0) == (plan.degree == 0) == (t == 0.0)
        if t == 25.0:
            assert plan.D.max() > 200
        _assert_matches(out, exact, vals)

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 25.0])
    def test_folded_diagonal_generator_gets_exact_phases(self, rng, t):
        # the same, folded about the widest gap in a's spread
        self.test_diagonal_generator_gets_exact_phases(rng, t, centre="gap")

    @pytest.mark.parametrize("eps", [1e-8, 1e-10])
    def test_folded_degree_bounds_the_exact_tail(self, monkeypatch, eps):
        # the exact degree, the smallest D with Σ_{j>D} |f_j| + b·|g_j| <= ε
        # for the Chebyshev coefficients of f(ζ) = cos(t√ζ) and
        # g(ζ) = sin(t√ζ)/√ζ on [lo, hi] (b = √hi), from FFTs on many more
        # points than the degree; at these ε the FFT's rounding is far below
        # the tail. Where lo = 0, f's coefficients are the half-angle
        # Jacobi–Anger series 2(-1)^m J_{2m}(t√hi), checked at the kernel's ε
        import scipy.special

        def exact(t, lo, hi, bound):
            M = 1 << (8 * bound + 64).bit_length()
            c, r = (hi + lo) / 2, (hi - lo) / 2
            root = np.sqrt(np.maximum(c + r * np.cos(2 * np.pi * np.arange(M) / M), 0.0))
            f = np.abs(np.fft.rfft(np.cos(t * root)).real) / M
            g = np.abs(np.fft.rfft(t * np.sinc(t * root / np.pi)).real) / M
            terms = (2.0 * f + 2.0 * math.sqrt(hi) * g)[: M // 4]
            tail = np.cumsum(terms[::-1])[::-1]
            return int(np.argmax(tail[1:] <= eps))

        cases = np.array([
            (15.0, 0.0, 1.0), (15.0, 0.5, 1.0), (15.0, 2.0, 3.0), (15.0, 10.0, 30.0),
            (1.0, 0.0, 1.0), (3.0, 0.2, 1.0), (50.0, 0.1, 0.3), (100.0, 10.0, 30.0),
            (14.0, 0.05, 75.0), (14.0, 30.0, 80.0), (0.3, 0.0, 0.01),
        ])
        monkeypatch.setattr(eng, "CHEBYSHEV_EPS", eps)
        for (t, lo, hi) in cases:
            D = int(eng._folded_degree(t, np.array([lo]), np.array([hi]))[0])
            E = exact(t, lo, hi, D)
            assert E <= D <= 1.2 * E + 3, (t, lo, hi, D, E)
        monkeypatch.undo()
        for z in (1.0, 25.0, 240.0):  # lo = 0, hi = 1, f alone, at ε = 1e-16
            m = np.arange(int(z) + 80)
            tail = 2.0 * np.cumsum(np.abs(scipy.special.jv(2 * m, z))[::-1])[::-1]
            E = int(np.argmax(tail[1:] <= eng.CHEBYSHEV_EPS))
            D = int(eng._folded_degree(z, np.zeros(1), np.ones(1))[0])
            assert E <= D <= 1.2 * E + 3, (z, D, E)
        # no width, or nothing to step: degree 0
        assert eng._folded_degree(2.0, np.array([0.5]), np.array([0.5]))[0] == 0
        assert eng._folded_degree(0.0, np.array([0.5]), np.array([2.0]))[0] == 0

    def test_complex_non_normal_d64_takes_the_polynomial(self, rng, decompositions):
        # the shape of the evolve-complex-d64 benchmark input: d = 64, t = 2,
        # N = 512 at the default half-width, the default profile
        d, t = 64, 2.0
        C, x0 = _complex_d64(rng)
        grid = eng.make_grid(512, eng.default_domain_halfwidth(core.split(C).C1h, t))
        decompositions.clear()
        rec = eng.propagate(C, x0, t, grid)
        assert decompositions.work() == ([1], 0)
        assert (rec.path, rec.kernel) == ("general", "chebyshev")
        assert rec.max_degree < d + 1 and rec.modes_evolved < 128
        exact = scipy.linalg.expm((C - np.eye(d)) * t) @ x0
        fid = np.abs(np.vdot(exact / np.linalg.norm(exact), rec.state)) ** 2
        assert fid >= 1 - 1e-9

    @pytest.mark.parametrize("structure", list(_GAPPED))
    def test_midpoint_folds_a_lone_eigenvalue_as_the_gap_centre_does(
        self, rng, structure
    ):
        # one eigenvalue of C1h apart from the rest, and the interval's
        # midpoint in the gap: the fold about it has the same spread as the
        # fold about the gap's own midpoint, lower down, and costs less
        ds = core.split(_GAPPED[structure][0](rng, 32))
        eta = eng.make_grid(64, 5.0).eta
        plan = eng._chebyshev_plan(ds, eta, 2.0, np.ones(eta.size), np.inf)
        w = ds.eigh[0]
        i = int(np.argmax(np.diff(w)))
        assert plan.centre == 0.5 * float(w[0] + w[-1])
        assert w[i] < plan.centre < w[i + 1] == w[-1]
        gap = eng._folded_plan(
            ds, eta, 2.0, eng._spectral_interval(ds.C2h), 0.5 * float(w[i] + w[i + 1])
        )

        def spread(p):  # F - h of the fold about p's centre
            return np.abs(w - p.centre).max() - np.abs(w - p.centre).min()

        assert spread(plan) == pytest.approx(spread(gap), rel=1e-12)
        assert plan.cost(np.ones(eta.size), 32) < gap.cost(np.ones(eta.size), 32)
        assert plan.D.max() < gap.D.max()

    def test_plan_folds_about_the_midpoint_without_a_gap(self, rng):
        # the evolve-complex-d64 shape: C2h's spread swamps every gap of
        # C1h, and folded about the interval's midpoint the polynomial's
        # degree in H is a little above d, near the unfolded series' 59
        t = 2.0
        C, x0 = _complex_d64(rng)
        ds = core.split(C)
        grid = eng.make_grid(512, eng.default_domain_halfwidth(ds, t))
        v0, _ = eng.initial_state(x0, grid, eng.SMOOTH)
        eta = grid.eta[v0.values.any(axis=0)]
        plan = eng._chebyshev_plan(ds, eta, t, np.ones(eta.size), np.inf)
        w = ds.eigh[0]
        assert plan.centre == 0.5 * float(w[0] + w[-1])
        assert 50 <= plan.degree <= 75

    @pytest.mark.parametrize(
        "structure, d, t",
        [("real-nonnormal", 64, 0.5), ("general", 32, 0.5),
         ("real-gapped", 64, 2.0), ("general-gapped", 32, 2.0)],
    )
    def test_polynomial_op_runs_on_numpy_alone(
        self, monkeypatch, rng, structure, d, t
    ):
        # numpy and scipy each bring an OpenBLAS with its own thread pool;
        # off the Hermitian path the half-width, the eigenvalues, the folded
        # kernel's blocks and the products run on numpy's, so nothing in
        # scipy.linalg is called. A gap in C1h's spectrum, on a grid whose
        # modes reach past C2h's spread, folds the kernel about the gap
        build, path = {**_STRUCTURES, **_GAPPED}[structure]
        N = 64 if structure in _GAPPED else 32
        C = build(rng, d)
        x0 = rng.normal(size=d)
        refuse_scipy_linalg(monkeypatch)
        eng.default_domain_halfwidth(core.split(C).C1h, t)
        rec = eng.propagate(C, x0, t, eng.make_grid(N, 5.0))
        assert (rec.path, rec.kernel) == (path, "chebyshev")

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    def test_jacobi_d127_takes_the_polynomial(self, decompositions):
        # the shape of the jacobi-d127 benchmark input: real dominant
        # A, d = 127, N = 512, t_f about 14, tR up to about 200. Its start
        # is real, so each live pair (k, -k) is one polynomial row. C1h has
        # one eigenvalue near 0 and the rest in about [-1.16, -0.85], so the
        # kernel, folded about the gap, has a degree that follows the bulk:
        # about 100 steps, against about 250 for an unfolded series
        A, b = random_dominant(np.random.default_rng(1201), 127)
        rows = []
        stack = eng._chebyshev_stack

        def recording(ds, V, *args):
            rows.append(V.shape[0])
            return stack(ds, V, *args)

        decompositions.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eng, "_chebyshev_stack", recording)
            rep = solvers.quantum_jacobi_solve(A, b, N=512)
        rec = rep.propagation
        assert (rec.path, rec.kernel) == ("real", "chebyshev")
        assert 150 < rec.max_degree < 250  # 2·D + 1 in H
        # the cut keeps whole pairs (k, -k) and k = 0, drops k = N/2
        assert rec.modes_evolved % 2 == 1
        assert rows == [(rec.modes_evolved + 1) // 2]
        assert decompositions.work() == ([1], 0)
        assert rep.fidelity >= 1 - 1e-9

    @pytest.mark.parametrize(
        "n, rows, ratio, kernel",
        [(32, 1, 0.05, "eigh"), (128, 1, 0.05, "eigh"),
         (32, 8, 0.2, "chebyshev"), (32, 8, 2.5, "eigh"),
         (128, 8, 0.2, "chebyshev"), (128, 8, 2.5, "eigh"),
         (32, 64, 0.8, "chebyshev"), (32, 64, 4.0, "eigh"),
         (128, 64, 0.8, "chebyshev"), (128, 64, 4.0, "eigh")],
    )
    def test_rule_on_the_calibration_shapes(
        self, rng, decompositions, n, rows, ratio, kernel
    ):
        # every row at one degree D = ratio·n in X², on either side of the
        # measured break-even (1.23–2.02·n for 8 rows, 2.34–3.58·n for 64,
        # at these n; one row never pays for a step): H = -C2h with the
        # spectrum [-1, 1], so C1h = 0 folds about 0 onto ζ in [0, 1] and D
        # is the degree at t
        b = np.linspace(-1.0, 1.0, n)
        ds = core.DriftSplit(C1h=np.zeros((n, n), complex), C2h=np.diag(b).astype(complex))
        lo, t = 0.0, 8.0 * n  # bisect for the first t at that degree
        for _ in range(60):
            mid = 0.5 * (lo + t)
            if eng._folded_degree(mid, np.zeros(1), np.ones(1))[0] >= ratio * n:
                t = mid
            else:
                lo = mid
        eta = rng.uniform(-5.0, 5.0, rows)
        X = rng.normal(size=(rows, n, 1)) + 1j * rng.normal(size=(rows, n, 1))
        polynomial_rows = []
        stack = eng._chebyshev_stack

        def recording(ds, V, *args):
            polynomial_rows.append(V.shape[0])
            return stack(ds, V, *args)

        decompositions.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eng, "_chebyshev_stack", recording)
            Y, ran, _ = eng._evolve_modes(ds, eta, X, t)
        assert ran == kernel
        reductions = rows if kernel == "eigh" else 0
        assert polynomial_rows == ([rows] if kernel == "chebyshev" else [])
        # the plan reads C1h's eigenvalues off its one eigh, which is also
        # the basis the polynomial steps in: one eigh on either kernel
        assert decompositions.work() == ([1], reductions)
        exact = np.exp(1j * t * b)[None, :, None] * X
        assert np.max(np.abs(Y - exact)) <= 1e-12 * np.linalg.norm(X)

    @pytest.mark.parametrize(
        "structure, gemm",
        [("real-nonnormal", "dgemm"), ("general", "zgemm"),
         ("real-gapped", "dgemm"), ("general-gapped", "zgemm")],
    )
    def test_each_step_is_one_gemm(self, monkeypatch, rng, structure, gemm):
        # a real split (C1h real, C2h purely imaginary) runs every step as
        # one real matmul (dgemm) on the float64 views; any other split as
        # one complex matmul (zgemm). Two more take Q into C1h's eigenbasis,
        # one builds Q̃², one takes the rows into the basis, one makes the
        # last product by X and one takes the result back
        d, t = 32, 0.5
        grid = eng.make_grid(32, 5.0)
        gen = eng.generator_blocks(
            core.split({**_STRUCTURES, **_GAPPED}[structure][0](rng, d)), grid
        )
        vals = rng.normal(size=(d, 32)) + 1j * rng.normal(size=(d, 32))
        plan = eng._chebyshev_plan(gen.split, grid.eta, t, np.ones(32), np.inf)
        calls = []
        matmul = np.matmul

        def counting(a, b, **kwargs):
            calls.append({np.float64: "dgemm", np.complex128: "zgemm"}[a.dtype.type])
            assert b.dtype == a.dtype
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        out = eng._chebyshev_stack(gen.split, vals.T, grid.eta, t, plan).T
        monkeypatch.undo()
        assert calls == [gemm] * (int(plan.D.max()) + 6)
        _assert_matches(out, _per_mode_reference(vals, gen.blocks, t), vals)

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    def test_propagate_eigensolves_each_part_once(self, monkeypatch, rng, structure):
        # C1h by the split's one numpy eigh, which gives the kink speed, the
        # plan's fold and the kernel's basis, and C2h's interval by one numpy
        # eigvalsh; the kernel reads both midpoints off the plan
        d, t = 32, 0.5
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        C = _STRUCTURES[structure][0](rng, d)
        rec = eng.propagate(C, rng.normal(size=d), t, eng.make_grid(32, 5.0))
        assert (rec.path, rec.kernel) == (_STRUCTURES[structure][1], "chebyshev")
        assert calls == [("eigh", (d, d)), ("eigvalsh", (d, d))]

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_off_centre_intervals(self, rng, structure, t):
        # C1h about -3·I, and for the general split a C2h about 1.5·I: each
        # mode's interval centre c = -(η·m1 + m2) lies far outside its
        # radius, so a centre left out of G would show at once
        d = 12
        C = -2.0 * np.eye(d) + 0.2 * rng.normal(size=(d, d))
        if structure == "general":
            C = C + 0.2j * rng.normal(size=(d, d)) + 1.5j * np.eye(d)
        ds = core.split(C)
        assert eng._real_split(ds) == (structure == "real-nonnormal")
        grid = eng.make_grid(32, 5.0)
        gen = eng.generator_blocks(ds, grid)
        vals = rng.normal(size=(d, 32)) + 1j * rng.normal(size=(d, 32))
        out, plan = _chebyshev(ds, vals, grid.eta, t)
        # ‖X‖ is at most √(c + R), far below the centre's |η·centre|
        top = np.sqrt(plan.kappa2 * grid.eta**2 + plan.kappa0 + plan.R)
        assert abs(plan.centre + 3.0) < 0.5
        assert top.max() < 0.5 * np.abs(grid.eta * plan.centre).max()
        m2 = plan.m2
        assert (abs(m2 - 1.5) < 0.5) if structure == "general" else m2 == 0.0
        _assert_matches(out, _per_mode_reference(vals, gen.blocks, t), vals)

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    def test_zero_state_stays_zero(self, rng, structure):
        # no live mode: the polynomial runs on no vector and no step
        build, path = _STRUCTURES[structure]
        grid = eng.make_grid(16, 4.0)
        ds = core.split(build(rng, 5))
        s = eng.SpectralState(values=np.zeros((5, 16), dtype=complex), grid=grid)
        out = eng.evolve(s, ds, 1.5)
        assert (eng.evolve_path(ds), out.kernel) == (path, "chebyshev")
        assert out.max_degree == 0
        assert out.values.shape == (5, 16) and not out.values.any()

    def test_scalar_real_split(self, monkeypatch, rng):
        # n = 1: a real 1x1 C1h and a zero C2h are a real split. Centred on
        # its eigenvalue, X = 0, so the plan's degrees are all 0 and the
        # kernel is a phase; on intervals widened by hand the basis
        # products, the blocks, the steps and the last product run a real
        # matmul on one vector's two real columns, and any interval that
        # holds X²'s spectrum gives the same exponential
        ds = core.DriftSplit(C1h=np.array([[-0.7 + 0j]]), C2h=np.zeros((1, 1), complex))
        assert eng._real_split(ds)
        t, eta = 1.5, np.array([0.0, 1.0, -2.5, 6.0])
        vals = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        exact = np.exp(-1j * t * 0.7 * eta) * vals
        out, plan = _chebyshev(ds, vals, eta, t)
        assert (plan.centre, plan.m2) == (-0.7, 0.0)
        assert not plan.R.any() and not plan.D.any() and plan.degree == 0
        _assert_matches(out, exact, vals)
        c = eta**2 + 1.0  # κ2 = κ0 = 1, and ζ = 0 inside [0, 2c]
        D = eng._folded_degree(t, c - c, c + c)
        wide = plan._replace(R=c, D=D, kappa2=1.0, kappa0=1.0, degree=2 * int(D.max()) + 1)
        steps = []
        matmul = np.matmul

        def counting(a, b, **kwargs):
            steps.append((a.dtype, b.dtype))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        out = eng._chebyshev_stack(ds, vals.T, eta, t, wide).T
        monkeypatch.undo()
        assert D.max() > 10
        assert steps == [(np.float64, np.float64)] * (int(D.max()) + 6)
        _assert_matches(out, exact, vals)

    @pytest.mark.parametrize("real_x0", [True, False], ids=["real-x0", "complex-x0"])
    @pytest.mark.parametrize(
        "d, t, kernel", [(64, 0.5, "chebyshev"), (8, 2.0, "eigh")]
    )
    def test_real_path_pairs_only_a_conjugate_symmetric_state(
        self, rng, real_x0, d, t, kernel
    ):
        # a real C: the start of a real x0 evolves one vector per pair and
        # stays conjugate-symmetric bit for bit; a complex x0 keeps both
        # vectors. Both match the per-mode reference
        grid = eng.make_grid(32, 5.0)
        gen = eng.generator_blocks(core.split(_real_nonnormal(rng, d)), grid)
        x0 = rng.normal(size=d) + (0.0 if real_x0 else 1j * rng.normal(size=d))
        v0, _ = eng.initial_state(x0, grid, eng.SMOOTH)
        vectors = []
        modes = eng._evolve_modes

        def recording(ds, eta, X, t):
            vectors.append(X.shape[2])
            return modes(ds, eta, X, t)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eng, "_evolve_modes", recording)
            out = eng.evolve(v0, gen.split, t)
        assert (out.kernel, vectors) == (kernel, [1 if real_x0 else 2])
        h = grid.N // 2 - 1
        negative, positive = out.values[:, h - 1 :: -1], out.values[:, h + 1 : -1]
        assert np.array_equal(negative.conj(), positive) == real_x0
        ref = _per_mode_reference(v0.values, gen.blocks, t)
        _assert_matches(out.values, ref, v0.values)


def test_propagate_leaves_scipy_special_unimported():
    # the Bessel coefficients come from an FFT: scipy.special would add
    # about 3.7 MB of resident memory to every process that propagates
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import schrosim\n"
        "from schrosim import schrodingerization as eng\n"
        "rng = np.random.default_rng(5)\n"
        "C = np.eye(40) - 0.5 * np.diag(rng.uniform(0.1, 1.0, 40))\n"
        "C = C + 0.2j * rng.normal(size=(40, 40))\n"
        "rec = eng.propagate(C, np.ones(40), 0.5, eng.make_grid(64, 5.0))\n"
        "print(rec.kernel, 'scipy.special' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["chebyshev", "False"]


@pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
def test_eigh_kernel_across_chunks(rng, monkeypatch, structure):
    """Seven modes in chunks of three generators: the last chunk holds one
    mode. Two vectors per mode, returned and read out, against the per-mode
    eigh reference and expm."""
    d, t, M = 4, 1.3, 7
    monkeypatch.setattr(eng, "EIGH_BYTES", 3 * 16 * d * d + 1)
    chunks, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        if np.ndim(a) == 3:
            chunks.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    ds = core.split(_STRUCTURES[structure][0](rng, d))
    eta = rng.uniform(-6.0, 6.0, M)
    X = rng.normal(size=(M, d, 2)) + 1j * rng.normal(size=(M, d, 2))
    readout = rng.normal(size=(M, 2, 3)) + 1j * rng.normal(size=(M, 2, 3))
    Y = eng._evolve_stack(ds, eta, X, t)
    read = eng._evolve_stack(ds, eta, X, t, readout)
    assert chunks == [3, 3, 1] * 2
    blocks = -(eta[:, None, None] * ds.C1h + ds.C2h)
    exact = np.stack([scipy.linalg.expm(-1j * t * H) for H in blocks]) @ X
    for v in range(2):
        ref = _per_mode_reference(X[:, :, v].T, blocks, t)
        _assert_matches(Y[:, :, v].T, ref, X[:, :, v].T)
    assert np.max(np.abs(Y - exact)) <= 1e-12 * np.linalg.norm(X)
    expected = np.einsum("mvq,mnv->qn", readout, exact)
    scale = np.linalg.norm(readout) * np.linalg.norm(X)
    assert np.max(np.abs(read - expected)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    structure=st.sampled_from(["real-nonnormal", "general"]),
    d=st.integers(1, 9),
    N=st.sampled_from([4, 8, 16]),
    t=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(structure="general", d=1, N=4, t=0.0, seed=0)
@example(structure="real-nonnormal", d=1, N=8, t=1.5, seed=1)
@example(structure="general", d=5, N=8, t=0.0, seed=2)
@example(structure="real-nonnormal", d=2, N=4, t=5e-324, seed=1)
def test_both_kernels_match_reference_property(structure, d, N, t, seed):
    """The polynomial and the eigh kernel, each called directly on every
    mode, agree with the per-mode eigh reference and keep every mode's norm;
    ``_evolve_modes`` sends a 1×1 split to the polynomial, whose degree is 0
    there (``TestEvolvePaths.test_scalar_system``)."""
    rng = np.random.default_rng(seed)
    grid = eng.make_grid(N, float(rng.uniform(np.pi, 8.0)))
    gen = eng.generator_blocks(core.split(_STRUCTURES[structure][0](rng, d)), grid)
    vals = rng.normal(size=(d, N)) + 1j * rng.normal(size=(d, N))
    ref = _per_mode_reference(vals, gen.blocks, t)
    poly, _ = _chebyshev(gen.split, vals, grid.eta, t)
    _assert_matches(poly, ref, vals)
    decomposed = eng._evolve_stack(gen.split, grid.eta, vals.T[:, :, None], t)
    _assert_matches(decomposed[:, :, 0].T, ref, vals)


def _gapless_zero_c1h(rng, d, real):
    """C = I + i·K with K Hermitian: C1h = 0, so C1h has no gap and the
    plan's two centres coincide; K = i·A with A real antisymmetric when
    ``real``, which makes a real split."""
    K = rng.normal(size=(d, d))
    if real:
        return np.eye(d) - (K - K.T) / 2
    K = K + 1j * rng.normal(size=(d, d))
    return np.eye(d) + 0.5j * (K + K.conj().T)


# drifts for the fold, each (C builder of rng, d and real): a gap planted in
# C1h, random complex drifts with no gap, C1h = 0, and a 1x1 C
_FOLD_DRAWS = {
    "gapped": _gapped,
    "random-complex": lambda rng, d, real: random_contractive(rng, d),
    "zero-c1h": _gapless_zero_c1h,
    "scalar": lambda rng, d, real: np.array([[rng.uniform(0, 1) + 1j * rng.normal()]]),
}


@settings(max_examples=40, deadline=None)
@given(
    draw=st.sampled_from(list(_FOLD_DRAWS)),
    real=st.booleans(),
    d=st.integers(2, 12),
    t=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(draw="gapped", real=True, d=2, t=0.0, seed=0)
@example(draw="gapped", real=False, d=2, t=1e-300, seed=1)
@example(draw="random-complex", real=False, d=12, t=4.0, seed=2)
@example(draw="zero-c1h", real=True, d=5, t=2.0, seed=3)
@example(draw="scalar", real=False, d=2, t=3.0, seed=4)
def test_folded_kernel_matches_expm_property(draw, real, d, t, seed):
    """The polynomial, folded about the centre its plan picks, agrees with
    expm per mode, and each mode's (H - x)² has its spectrum inside the
    interval c ± R the plan encloses it in: on a real non-normal or a
    general split with an eigenvalue of C1h planted across a gap
    (``_gapped``), and on drifts without a gap, where the fold runs about
    the midpoint of C1h's interval: random complex ones, C1h = 0, and a
    1x1 C."""
    rng = np.random.default_rng(seed)
    ds = core.split(_FOLD_DRAWS[draw](rng, d, real))
    n = ds.C1h.shape[0]
    # |η| >= 2 puts a planted gap past C2h's spread, so the gap centre wins
    eta = np.concatenate([[0.0], rng.uniform(2.0, 8.0, 5) * rng.choice([-1.0, 1.0], 5)])
    V = rng.normal(size=(eta.size, n)) + 1j * rng.normal(size=(eta.size, n))
    plan = eng._chebyshev_plan(ds, eta, t, np.ones(eta.size), np.inf)
    out = eng._chebyshev_stack(ds, V, eta, t, plan)
    for e, v, y, R in zip(eta, V, out, plan.R):
        H = -(e * ds.C1h + ds.C2h)
        exact = scipy.linalg.expm(-1j * t * H) @ v
        assert np.linalg.norm(y - exact) <= 1e-13 * np.linalg.norm(v)
        X = H + (e * plan.centre + plan.m2) * np.eye(n)
        w = np.linalg.eigvalsh(X @ X.conj().T)  # X Hermitian: X·X† = X²
        c = plan.kappa2 * e * e + plan.kappa0
        assert c - R - 1e-12 * c <= w[0] and w[-1] <= c + R + 1e-12 * c
        assert c - R >= -1e-15 * c


class TestKernelReadout:
    """propagate off the Hermitian path reads x̂ out inside the kernel: the
    same x̂ and success probability as the state chain and the per-mode
    eigh reference, with neither evolve nor recover called."""

    @pytest.mark.parametrize(
        "structure, real_x0, vectors",
        [("real-nonnormal", True, 1), ("real-nonnormal", False, 2), ("general", False, 1)],
        ids=["real-paired", "real-unpaired", "general"],
    )
    def test_matches_the_state_chain_and_reference(
        self, rng, monkeypatch, structure, real_x0, vectors
    ):
        d, t = 64, 0.5
        build, path = _STRUCTURES[structure]
        C = build(rng, d)
        x0 = rng.normal(size=d) + (0.0 if real_x0 else 1j * rng.normal(size=d))
        grid = eng.make_grid(32, 5.0)
        gen = eng.generator_blocks(core.split(C), grid)
        p_min = _propagate_floor(gen.split, grid, t)
        v0, dropped = eng.initial_state(x0, grid, eng.SMOOTH)
        vt = eng.evolve(v0, gen.split, t)
        chain = eng.recover(vt, p_min)
        ref = eng.recover(
            eng.SpectralState(_per_mode_reference(v0.values, gen.blocks, t), grid, t), p_min
        )
        seen = []
        modes = eng._evolve_modes

        def recording(ds, eta, X, t, readout=None):
            seen.append((X.shape[2], None if readout is None else readout.shape[1:]))
            return modes(ds, eta, X, t, readout)

        monkeypatch.setattr(eng, "_evolve_modes", recording)
        rec = eng.propagate(C, x0, t, grid)
        # one row per pair on the real path, read out into two columns
        assert seen == [(vectors, (vectors, 2 if path == "real" else 1))]
        assert (rec.path, rec.kernel, vt.kernel) == (path, "chebyshev", "chebyshev")
        assert rec.max_degree == vt.max_degree
        assert (rec.modes_evolved, rec.dropped_norm) == (
            np.count_nonzero(v0.values.any(axis=0)), dropped
        )
        for other in (chain, ref):
            assert np.linalg.norm(rec.x - other.x) <= 1e-12 * np.linalg.norm(other.x)
            assert rec.success_probability == pytest.approx(
                other.success_probability, rel=1e-12
            )

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    @pytest.mark.parametrize("d, kernel", [(64, "chebyshev"), (8, "eigh")])
    def test_propagate_calls_neither_evolve_nor_recover(
        self, rng, monkeypatch, structure, d, kernel
    ):
        def refused(name):
            def f(*args, **kwargs):
                raise AssertionError(f"propagate called {name}")

            return f

        monkeypatch.setattr(eng, "evolve", refused("evolve"))
        monkeypatch.setattr(eng, "recover", refused("recover"))
        C = _STRUCTURES[structure][0](rng, d)
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        t = 0.5 if kernel == "chebyshev" else 2.0
        rec = eng.propagate(C, x0, t, eng.make_grid(32, 5.0))
        assert (rec.path, rec.kernel) == (_STRUCTURES[structure][1], kernel)
        exact = scipy.linalg.expm((C - np.eye(d)) * t) @ x0
        fid = np.abs(np.vdot(exact / np.linalg.norm(exact), rec.state)) ** 2
        assert fid >= 1 - 1e-3


def _repeated_c1h(rng, d, real):
    """C whose C1h has an eigenvalue repeated about d/2 times, the rest in
    [-1.2, -0.2], and a C2h of the real or general kind."""
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    ev = rng.uniform(-1.2, -0.2, d)
    ev[: max(2, d // 2)] = ev[0]
    S = (Q * ev) @ Q.T
    K = rng.normal(size=(d, d))
    if real:
        return np.eye(d) + (S + S.T) / 2 + 0.3 * (K - K.T) / np.sqrt(d)
    K = K + 1j * rng.normal(size=(d, d))
    return np.eye(d) + (S + S.T) / 2 + 0.3j * (K + K.conj().T) / np.sqrt(d)


@settings(max_examples=40, deadline=None)
@given(
    real=st.booleans(),
    repeated=st.booleans(),
    d=st.integers(2, 24),
    t=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(real=True, repeated=True, d=2, t=1.0, seed=0)
@example(real=False, repeated=True, d=24, t=4.0, seed=1)
def test_eigenbasis_polynomial_matches_the_reduction_property(real, repeated, d, t, seed):
    """The polynomial, stepped in C1h's eigenbasis, matches the eigh kernel
    on every row, and the two kernels' readouts match: on random real and
    general splits, and on C1h with an eigenvalue repeated about d/2 times."""
    rng = np.random.default_rng(seed)
    if repeated:
        C = _repeated_c1h(rng, d, real)
    else:
        C = _STRUCTURES["real-nonnormal" if real else "general"][0](rng, d)
    ds = core.split(C)
    assert eng._real_split(ds) == real
    eta = eng.make_grid(16, float(rng.uniform(np.pi, 8.0))).eta
    V = rng.normal(size=(eta.size, d)) + 1j * rng.normal(size=(eta.size, d))
    readout = rng.normal(size=(eta.size, 2)) + 1j * rng.normal(size=(eta.size, 2))
    plan = eng._chebyshev_plan(ds, eta, t, np.ones(eta.size), np.inf)
    rows = eng._chebyshev_stack(ds, V, eta, t, plan)
    read = eng._chebyshev_stack(ds, V, eta, t, plan, readout)
    reduced = eng._evolve_stack(ds, eta, V[:, :, None], t)[:, :, 0]
    reduced_read = eng._evolve_stack(ds, eta, V[:, :, None], t, readout[:, None, :])
    _assert_matches(rows.T, reduced.T, V.T)
    scale = np.linalg.norm(readout) * np.linalg.norm(V)
    for got in (read, reduced_read):
        assert np.max(np.abs(got - readout.T @ reduced)) <= 1e-12 * scale


def _uncut_start(x0, grid, profile=eng.SMOOTH):
    """The start x0⊗ψ̂ with no mode cut."""
    return eng.SpectralState(np.outer(x0, eng._profile_spectrum(profile, grid)), grid)


class TestTruncate:
    def test_drops_the_least_massive_modes_up_to_eps_squared(self):
        grid = eng.make_grid(8, 3.0)  # slots hold k = -3..4
        # pairs by |k|: 0 -> 6e-13, 1 -> 0.5, 2 -> 2e-13 + 9e-13,
        # 3 -> 1e-13 + 2e-13, 4 -> 0.5
        mass = np.array([1e-13, 2e-13, 0.25, 6e-13, 0.25, 9e-13, 2e-13, 0.5])
        cut, dropped = eng._truncation(mass, grid)
        # the pair ±3 and k = 0 (9e-13) fit under 1e-12 of the total mass;
        # adding the pair ±2 does not. Single columns ranked alone would cut
        # k = -2 (2e-13) and keep k = 2.
        kept = np.ones(8, dtype=bool)
        kept[[0, 3, 6]] = False
        assert np.array_equal(cut, ~kept)
        assert dropped == pytest.approx(np.sqrt(9e-13 / mass.sum()), rel=1e-12)

    @pytest.mark.parametrize("N", [8, 64, 512])
    def test_zeroes_whole_conjugate_pairs(self, rng, N):
        # column masses 1 down to 1e-20 in random slots; k and -k are zeroed
        # together, while k = 0 and k = N/2 have no partner
        grid = eng.make_grid(N, 5.0)
        mass = 10.0 ** -rng.permutation(np.linspace(0.0, 20.0, N))
        zero, dropped = eng._truncation(mass, grid)
        h = N // 2 - 1  # slot of k = 0
        assert 0.0 < dropped <= eng.TRUNCATION_EPS
        assert np.array_equal(zero[h + 1 : N - 1], zero[h - 1 :: -1])
        assert dropped**2 == pytest.approx(mass[zero].sum() / mass.sum(), rel=1e-9)

    @pytest.mark.parametrize("N", [4, 8, 16, 32, 64, 128, 256, 512])
    @pytest.mark.parametrize("L", [np.pi, 6.0, 12.5, 25.0, 40.0, 90.0])
    def test_exp_abs_drops_no_mode(self, rng, N, L):
        # e^{-|p|} keeps every mode on these grids, so the power method and
        # plain propagation run exactly the arithmetic they ran before
        x0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = eng.make_grid(N, L)
        v0, dropped = eng.initial_state(x0, grid, eng.EXP_ABS)
        full = _uncut_start(x0, grid, eng.EXP_ABS)
        assert np.array_equal(v0.values, full.values) and dropped == 0.0

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    def test_cut_depends_on_the_profile_and_grid_alone(self):
        # mode k of the start holds ‖x0‖²·|ψ̂_k|², so the cut, and the norm
        # it drops, is the same bit for bit for a scaled or complex x0 and
        # for a Hermitian C (read out by its phases in W's coordinates) or a
        # non-normal one (read out of the state)
        rng = np.random.default_rng(0)
        d, t, grid = 4, 1.0, eng.make_grid(128, 8.0)
        drifts = [_real_symmetric(rng, d), _complex_hermitian(rng, d),
                  _real_nonnormal(rng, d), random_contractive(rng, d)]
        x0 = rng.normal(size=d)
        starts = [x0, 3.7 * x0, x0 + 1j * rng.normal(size=d)]
        psi, dropped = eng._start_spectrum(eng.SMOOTH, grid)
        assert 0.0 < dropped <= eng.TRUNCATION_EPS
        for C in drifts:
            for x in starts:
                rec = eng.propagate(C, x, t, grid)
                assert rec.dropped_norm == dropped
                assert rec.modes_evolved == np.count_nonzero(psi) < grid.N

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    def test_smooth_profile_drops_modes_within_the_bound(self, rng, structure):
        C = _STRUCTURES[structure][0](rng, 8)
        t = 15.0
        ds = core.split(C)
        grid = eng.make_grid(512, eng.default_domain_halfwidth(ds.C1h, t))
        x0 = rng.normal(size=8)
        kept = eng.propagate(C, x0, t, grid, profile=eng.SMOOTH)
        assert kept.modes_evolved < 512 * 2 // 3
        assert 0.0 < kept.dropped_norm <= eng.TRUNCATION_EPS
        # the zeroed modes account for the whole warped-state difference
        full = eng.transform(eng.evolve(_uncut_start(x0, grid), ds, t), "inverse").values
        v0 = eng.initial_state(x0, grid, eng.SMOOTH)[0]
        cut = eng.transform(eng.evolve(v0, ds, t), "inverse").values
        error = np.linalg.norm(cut - full) / np.linalg.norm(full)
        assert error == pytest.approx(kept.dropped_norm, rel=1e-6)
        plain = eng.propagate(C, x0, t, grid, profile=eng.EXP_ABS)
        assert (plain.modes_evolved, plain.dropped_norm) == (512, 0.0)
        assert plain.profile is eng.EXP_ABS and kept.profile is eng.SMOOTH


@settings(max_examples=24, deadline=None)
@given(
    structure=st.sampled_from(["real-nonnormal", "general"]),
    profile=st.sampled_from([eng.EXP_ABS, eng.SMOOTH]),
    d=st.integers(1, 6),
    N=st.sampled_from([64, 128, 256, 512]),
    t=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncation_error_within_reported_bound(structure, profile, d, N, t, seed):
    """The truncated warped state stays within dropped_norm (relative) of
    the untruncated one, and the truncated propagation still meets the
    exact-propagator fidelity contract. e^{-|p|} converges only
    algebraically in N: at N = 64 and t near 5 it misses 1e-3 (2e-3 seen),
    so there it is held to 1e-2."""
    rng = np.random.default_rng(seed)
    C = _STRUCTURES[structure][0](rng, d)
    x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    ds = core.split(C)
    grid = eng.make_grid(N, eng.default_domain_halfwidth(ds.C1h, t))
    # the uncut start, and the cut one propagate builds, so the dropped
    # norms agree exactly
    v0 = _uncut_start(x0, grid, profile)
    kept, dropped = eng.initial_state(x0, grid, profile)
    assert dropped <= eng.TRUNCATION_EPS
    full = eng.transform(eng.evolve(v0, ds, t), "inverse").values
    cut = eng.transform(eng.evolve(kept, ds, t), "inverse").values
    scale = np.linalg.norm(full)
    assert np.linalg.norm(cut - full) <= (dropped + 1e-12) * scale

    # on every path, the Hermitian one of a 1×1 C included, the cut is
    # initial_state's
    rec = eng.propagate(C, x0, t, grid, profile=profile)
    modes = np.count_nonzero(kept.values.any(axis=0))
    assert (rec.dropped_norm, rec.modes_evolved) == (dropped, modes)
    exact = baselines.exact_propagator(C, x0, t)
    fid = np.abs(np.vdot(exact / np.linalg.norm(exact), rec.state)) ** 2
    assert fid >= 1 - (1e-2 if profile is eng.EXP_ABS and N == 64 else 1e-3)


class TestRecover:
    def test_scalar_drift_oracle(self):
        grid = eng.make_grid(256, 4.5)
        rec = eng.propagate(np.array([[0.5]]), np.array([1.0]), 1.0, grid)
        assert abs(rec.x[0] - np.exp(-0.5)) <= 1e-3

    def test_scalar_success_probability(self):
        # closed-form norm ratio: x(t)^2 * int_{p>0} e^{-2p} / int e^{-2|u|}
        grid = eng.make_grid(256, 4.5)
        rec = eng.propagate(
            np.array([[0.5]]), np.array([1.0]), 1.0, grid, profile=eng.EXP_ABS
        )
        assert rec.success_probability == pytest.approx(np.exp(-1.0) / 2, rel=0.05)

    def test_no_evolution_recovers_x0(self):
        grid = eng.make_grid(256, 6.0)
        x0 = np.array([0.3, -0.4, 1.2])
        rec = eng.propagate(np.eye(3), x0, 0.0, grid)
        assert np.max(np.abs(rec.x - x0)) <= np.exp(-grid.L) + 1e-3

    @pytest.mark.parametrize("structure", list(_STRUCTURES))
    @pytest.mark.parametrize("p_min", [0.0, 1.7])
    def test_spectral_readout_matches_pspace_fit(self, rng, structure, p_min):
        # the fit read off the spectral values against the same fit on the
        # warped state
        build, path = _STRUCTURES[structure]
        d, t = 5, 2.0
        C = build(rng, d)
        ds = core.split(C)
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        grid = eng.make_grid(128, eng.default_domain_halfwidth(ds.C1h, t))
        assert eng.evolve_path(ds) == path
        for profile in (eng.EXP_ABS, eng.SMOOTH):
            vt = eng.evolve(eng.initial_state(x0, grid, profile)[0], ds, t)
            got = eng.recover(vt, p_min)
            ref = pspace_recover(eng.transform(vt, "inverse"), p_min)
            scale = np.linalg.norm(ref.x)
            assert np.linalg.norm(got.x - ref.x) <= 1e-12 * scale
            assert got.success_probability == pytest.approx(
                ref.success_probability, rel=1e-12
            )
            assert got.time == ref.time == t

    def test_non_finite_state_is_a_numerical_failure(self):
        grid = eng.make_grid(16, 3.0)
        vals = np.ones((2, 16), dtype=complex)
        vals[1, 5] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            eng.recover(eng.SpectralState(values=vals, grid=grid))

    def test_underflowing_readout_window_is_a_numerical_failure(self):
        # every weight e^{-p} beyond a floor past p = 745 is zero in double
        # precision, so the fit has nothing to divide by
        grid = eng.make_grid(64, 900.0)
        s = eng.SpectralState(values=np.ones((2, 64), dtype=complex), grid=grid)
        with pytest.raises(NumericalError, match="underflow"):
            eng.recover(s, p_min=800.0)


def _hermitian_spectrum(rng, d, complex_, above):
    """An exactly Hermitian C with eigenvalues in (0, 1), real or complex;
    with ``above`` its top eigenvalue is in (1.05, 1.3) instead, so the
    kink drifts right and propagate's readout floor p_min is above 0."""
    Z = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_ else 0.0)
    Q, _ = np.linalg.qr(Z)
    lam = rng.uniform(0.0, 1.0, d)
    if above:
        lam[0] = rng.uniform(1.05, 1.3)
    C = (Q * lam) @ Q.conj().T
    return (C + C.conj().T) / 2.0


def _propagate_floor(ds, grid, t):
    """The readout floor propagate picks for a Hermitian C on ``grid``."""
    top = float(ds.eigh[0][-1])
    return max(0.0, top) * t + 4.0 * grid.dp if top > 1e-10 else 0.0


@pytest.mark.filterwarnings("ignore:Hermitian drift part")
@settings(max_examples=60, deadline=None)
@given(
    complex_=st.booleans(),
    profile=st.sampled_from([eng.EXP_ABS, eng.SMOOTH]),
    above=st.booleans(),
    real_x0=st.booleans(),
    d=st.integers(1, 8),
    N=st.sampled_from([4, 8, 16, 64, 256, 1024, 4096]),
    t=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    complex_=False, profile=eng.SMOOTH, above=False, real_x0=True,
    d=4, N=512, t=0.0, seed=3,
)
@example(
    complex_=True, profile=eng.EXP_ABS, above=True, real_x0=False,
    d=5, N=4096, t=0.0, seed=4,
)
@example(
    complex_=True, profile=eng.SMOOTH, above=True, real_x0=False,
    d=6, N=1024, t=3.0, seed=5,
)
def test_phase_readout_matches_the_state_chain_property(
    complex_, profile, above, real_x0, d, N, t, seed
):
    """On a Hermitian C, propagate's readout without a state agrees with
    the state chain recover(evolve(initial_state(...))), which
    runs the real or general kernel, and with the p-space fit of that
    state, and raises where that chain raises."""
    rng = np.random.default_rng(seed)
    C = _hermitian_spectrum(rng, d, complex_, above)
    ds = core.split(C)
    grid = eng.make_grid(N, eng.default_domain_halfwidth(ds.C1h, t))
    assert eng.evolve_path(ds) == "hermitian"
    x0 = rng.normal(size=d) + (0.0 if real_x0 else 1j * rng.normal(size=d))
    p_min = _propagate_floor(ds, grid, t)
    assert (p_min > 0.0) == above
    v0, dropped = eng.initial_state(x0, grid, profile)
    vt = eng.evolve(v0, ds, t)
    try:
        ref = eng.recover(vt, p_min)
    except (DegenerateRecoveryError, NumericalError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            eng.propagate(C, x0, t, grid, profile)
        return
    rec = eng.propagate(C, x0, t, grid, profile)
    assert (rec.path, rec.kernel, rec.max_degree) == ("hermitian", "phases", None)
    assert rec.time == ref.time == t
    for other in (ref, pspace_recover(eng.transform(vt, "inverse"), p_min)):
        assert np.linalg.norm(rec.x - other.x) <= 1e-12 * np.linalg.norm(other.x)
        assert rec.success_probability == pytest.approx(
            other.success_probability, rel=1e-12
        )
    assert rec.modes_evolved == np.count_nonzero(v0.values.any(axis=0))
    assert rec.dropped_norm == pytest.approx(dropped, rel=1e-9, abs=1e-300)


class TestPhaseReadoutErrors:
    """propagate on a Hermitian C raises where the state chain, on the real
    or general kernel, raises, with the same error codes."""

    def _both(self, C, x0, t, grid):
        ds = core.split(C)

        def chain():
            v0 = eng.initial_state(x0, grid, eng.SMOOTH)[0]
            return eng.recover(eng.evolve(v0, ds, t), _propagate_floor(ds, grid, t))

        errors = []
        for run in (lambda: eng.propagate(C, x0, t, grid), chain):
            with pytest.raises(SchrosimError) as info:
                run()
            errors.append(info.value)
        assert type(errors[0]) is type(errors[1])
        assert str(errors[0]) == str(errors[1])
        return errors[0]

    def test_zero_start(self, rng):
        C = _hermitian_spectrum(rng, 3, True, False)
        exc = self._both(C, np.zeros(3), 1.0, eng.make_grid(64, 5.0))
        assert exc.code == "invalid-input"

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    def test_floor_beyond_the_grid(self):
        # the kink at speed 0.5 reaches p = 5 by t = 10, past L = 4
        exc = self._both(np.array([[1.5]]), np.array([1.0]), 10.0, eng.make_grid(16, 4.0))
        assert exc.code == "degenerate-recovery"

    @pytest.mark.filterwarnings("ignore:Hermitian drift part")
    def test_underflowing_window(self):
        # the floor lands at p = 788, where every weight e^{-p} is zero
        exc = self._both(
            np.array([[2.0]]), np.array([1.0]), 760.0, eng.make_grid(256, 900.0)
        )
        assert exc.code == "numerical-failure"


def _direct_phase_blocks(mu, grid, t):
    """The phase blocks as direct exponentials of their arguments,
    n·(N/B + B) of them: the construction the power products replaced."""
    N = grid.N
    B = 1 << (N.bit_length() - 1) // 2
    theta = (-t * grid.deta) * mu
    outer = np.exp(1j * np.outer(theta, np.arange(-N // 2 + 1, N // 2 + 1, B)))
    inner = np.exp(1j * np.outer(theta, np.arange(B)))
    return outer, inner


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double here",
)
@pytest.mark.parametrize("N", [512, 4096, 65536])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phase_blocks_as_accurate_as_direct_exponentials(N, seed):
    # e^{-itμ_jη_k} with the argument formed and reduced in long double is
    # the reference; the power products may add their √N roundings, but
    # the error stays the one the argument's size sets, within 2× of the
    # direct exponentials' (measured 4e-14 to 2e-11 over these cases)
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.05, 0.95, 8)
    t = 20.0
    grid = eng.make_grid(N, 4.0 + t * 0.95)
    ld = np.longdouble
    theta = -(ld(t) * ld(grid.deta)) * mu.astype(ld)
    ref = np.exp(1j * (theta[:, None] * grid.mode_index.astype(ld)))

    def error(blocks):
        outer, inner = blocks
        phases = (outer[:, :, None] * inner[:, None, :]).reshape(mu.size, N)
        return float(np.max(np.abs(phases - ref)))

    direct = error(_direct_phase_blocks(mu, grid, t))
    assert error(eng._phase_blocks(mu, grid, t)) <= 2.0 * direct


class TestInitialState:
    @pytest.mark.parametrize("profile", [eng.EXP_ABS, eng.SMOOTH], ids=lambda q: q.name)
    def test_separable_start_matches_the_warped_transform(self, rng, profile):
        grid = eng.make_grid(256, 7.5)
        x0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        ref = eng.transform(initial_warped_state(x0, grid, profile), "forward").values
        v0 = _uncut_start(x0, grid, profile)
        assert np.max(np.abs(v0.values - ref)) <= 1e-15 * np.max(np.abs(ref))
        # the cut start keeps those columns and holds dropped_norm less
        cut, dropped = eng.initial_state(x0, grid, profile)
        kept = cut.values.any(axis=0)
        assert cut.time == 0.0
        assert np.array_equal(cut.values[:, kept], v0.values[:, kept])
        lost = np.linalg.norm(v0.values[:, ~kept]) / np.linalg.norm(v0.values)
        assert lost == pytest.approx(dropped, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("profile", [eng.EXP_ABS, eng.SMOOTH], ids=lambda q: q.name)
    @pytest.mark.parametrize("N", [4, 64, 512, 4096])
    def test_real_start_is_exactly_conjugate_symmetric(self, rng, profile, N):
        # column -k is the conjugate of column k bit for bit, k = 0 and
        # k = N/2 are real: the test the real path of evolve runs
        grid = eng.make_grid(N, 7.5)
        v = eng.initial_state(rng.normal(size=5), grid, profile)[0].values
        h = N // 2 - 1
        assert np.array_equal(v[:, h - 1 :: -1].conj(), v[:, h + 1 : N - 1])
        assert not v[:, [h, N - 1]].imag.any()

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            eng.initial_state([0.0, 0.0], eng.make_grid(8, 2.0), eng.SMOOTH)


class TestDriftEigenbasis:
    """On a Hermitian C the split's one eigh of C1h serves the half-width,
    the kink speed and the phase readout."""

    def test_domain_halfwidth_reads_one_rate_from_each_source(self, rng):
        # ρ from a DriftSplit's eigenvalues or from C1h itself gives one
        # L = 4 + t·ρ
        ds = core.split(_complex_hermitian(rng, 5))
        t = 2.0
        L = 4.0 + t * np.max(np.abs(np.linalg.eigvalsh(ds.C1h)))
        for source in (ds.C1h, ds):
            assert eng.default_domain_halfwidth(source, t) == pytest.approx(L, rel=1e-13)
        assert eng.default_domain_halfwidth(ds, 0.0) == 4.0

    @pytest.mark.parametrize("structure", ["real-symmetric", "complex-hermitian"])
    def test_one_split_decomposes_once(self, rng, monkeypatch, structure):
        # the overlaps, the half-width and the propagation of one split run
        # one numpy eigh between them, and no eigvalsh or eig
        C = _STRUCTURES[structure][0](rng, 6)
        x0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        calls = []
        for name in ("eigh", "eigvalsh", "eig"):
            def counting(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        ds = core.split(C)
        eigvals = solvers.eigen_overlaps(ds, x0)[0]
        t = 2.0
        rec = eng.propagate(ds, x0, t, eng.make_grid(256, eng.default_domain_halfwidth(ds, t)))
        assert calls == ["eigh"]
        assert rec.path == "hermitian"
        lam, W = ds.eigh
        assert np.array_equal(np.sort(eigvals.real), lam)
        assert not W.flags.writeable and not lam.flags.writeable
        monkeypatch.undo()
        exact = scipy.linalg.expm((C - np.eye(6)) * t) @ x0
        assert np.abs(np.vdot(exact / np.linalg.norm(exact), rec.state)) ** 2 >= 1 - 1e-6


class TestExpectation:
    def test_identity_observable(self, rng):
        grid = eng.make_grid(32, 3.0)
        vals = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
        s = eng.SpectralState(values=vals, grid=grid)
        res = expectation_without_recovery(s, np.eye(3))
        assert res.normalized == pytest.approx(1.0, abs=1e-12)

    def test_scalar_system(self):
        grid = eng.make_grid(16, 2.0)
        s = eng.transform(initial_warped_state([1.0], grid), "forward")
        res = expectation_without_recovery(s, np.array([[1.0]]))
        assert res.normalized == pytest.approx(1.0, abs=1e-12)

    def test_population_matches_oracle(self, rng):
        C = random_contractive(rng, 4)
        x0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = 2.0
        grid = eng.make_grid(512, eng.default_domain_halfwidth(core.split(C).C1h, t))
        w0 = initial_warped_state(x0, grid)
        v0 = eng.transform(w0, "forward")
        vt = eng.evolve(v0, core.split(C), t)
        proj = np.zeros((4, 4))
        proj[1, 1] = 1.0
        res = expectation_without_recovery(vt, proj)
        xt = baselines.exact_propagator(C, x0, t)
        expected = np.abs(xt[1]) ** 2 / np.linalg.norm(xt) ** 2
        assert res.normalized.real == pytest.approx(expected, abs=2e-3)

    def test_rejects_non_hermitian(self):
        grid = eng.make_grid(8, 2.0)
        s = eng.SpectralState(values=np.ones((2, 8), dtype=complex), grid=grid)
        with pytest.raises(InvalidInputError):
            expectation_without_recovery(s, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPropagateOracle:
    def test_zero_drift_is_stationary(self):
        grid = eng.make_grid(128, 5.0)
        x0 = np.array([0.6, -0.8])
        rec = eng.propagate(np.eye(2), x0, 3.0, grid)
        fid = np.abs(np.vdot(x0 / np.linalg.norm(x0), rec.state)) ** 2
        assert fid >= 1 - 1e-6

    def test_jacobi_steady_state_direction(self):
        C = np.array(
            [[0.0, -0.5, 0.5], [-1.0 / 3.0, 0.0, 2.0 / 3.0], [0.0, 0.0, 1.0]]
        )
        x0 = np.array([0.0, 0.0, 1.0])
        t = 15.0
        grid = eng.make_grid(512, eng.default_domain_halfwidth(core.split(C).C1h, t))
        rec = eng.propagate(C, x0, t, grid)
        target = np.array([0.16903085, 0.50709255, 0.84515425])
        assert np.max(np.abs(np.abs(rec.state) - target)) <= 1e-3

    def test_hermitian_reduction_matches_reference(self, rng):
        # independent reference for symmetric C: single Hermitian H = -(C - I)
        # evolved as exp(-i t eta H) per mode, sharing only the transforms
        B = rng.normal(size=(3, 3))
        C = np.eye(3) - 0.3 * (B @ B.T)  # symmetric, contractive drift
        x0 = rng.normal(size=3)
        t = 2.0
        grid = eng.make_grid(256, eng.default_domain_halfwidth(core.split(C).C1h, t))
        rec = eng.propagate(C, x0, t, grid, profile=eng.EXP_ABS)

        H = -(C - np.eye(3))
        lam, V = np.linalg.eigh(H)
        v0 = eng.transform(initial_warped_state(x0, grid), "forward")
        cols = v0.values.T
        out = np.empty_like(cols)
        for j, eta in enumerate(grid.eta):
            U = (V * np.exp(-1j * t * eta * lam)) @ V.T
            out[j] = U @ cols[j]
        ref = eng.recover(eng.SpectralState(values=out.T, grid=grid, time=t))
        assert np.max(np.abs(ref.x - rec.x)) <= 1e-10

    def test_oracle_fidelity_improves_with_N(self, rng):
        C = random_contractive(rng, 6)
        x0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        t = 5.0
        L = eng.default_domain_halfwidth(core.split(C).C1h, t)
        exact = baselines.exact_propagator(C, x0, t)
        e_unit = exact / np.linalg.norm(exact)
        infids = []
        for N in (64, 128, 256, 512):
            rec = eng.propagate(C, x0, t, eng.make_grid(N, L))
            infids.append(1 - np.abs(np.vdot(e_unit, rec.state)) ** 2)
        assert infids[-1] <= 1e-3
        assert all(b <= a + 1e-12 for a, b in zip(infids, infids[1:]))
