import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings, strategies as st

from schrosim import baselines, core, schrodingerization as eng
from schrosim.errors import DimensionError, InvalidInputError, NumericalError

from conftest import random_contractive
from htot_reference import assemble_Htot


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

    def test_bad_L_rejected(self):
        with pytest.raises(InvalidInputError):
            eng.make_grid(8, 0.0)


class TestInitialWarpedState:
    def test_peak_value(self):
        grid = eng.make_grid(4, np.pi)
        w = eng.initial_warped_state([1.0], grid)
        assert w.values[0, np.argmin(np.abs(grid.p))] == pytest.approx(1.0)

    def test_decay_value(self):
        grid = eng.make_grid(64, 8.0)
        w = eng.initial_warped_state([1.0], grid)
        idx = np.argmin(np.abs(grid.p - 1.0))
        assert abs(w.values[0, idx]) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_separable_columns(self):
        grid = eng.make_grid(16, 4.0)
        x0 = np.array([0.2, 0.6, 1.0])
        x0 = x0 / np.linalg.norm(x0)
        w = eng.initial_warped_state(x0, grid)
        assert np.allclose(w.values, np.exp(-np.abs(grid.p))[None, :] * x0[:, None])

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            eng.initial_warped_state([0.0, 0.0], eng.make_grid(8, 2.0))


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

    def test_smooth_keeps_an_eighth_of_the_mass_on_p_positive(self):
        share = 0.5 / (0.5 + eng.SMOOTH.negative_mass)
        assert 0.125 <= share < 0.13

    def test_smooth_initial_state(self):
        grid = eng.make_grid(64, 6.0)
        x0 = np.array([0.6, -0.8j])
        w = eng.initial_warped_state(x0, grid, eng.SMOOTH)
        assert np.array_equal(w.values, eng.SMOOTH(grid.p)[None, :] * x0[:, None])


class TestTransform:
    def test_lorentzian_normalisation(self):
        # quadrature oracle: (1/2pi) * integral of e^{-|p|} dp = 1/pi
        grid = eng.make_grid(256, 10.0)
        v = eng.transform(eng.initial_warped_state([1.0], grid), "forward")
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

    def test_zero_time_identity(self, rng):
        grid = eng.make_grid(16, 3.0)
        C = rng.normal(size=(3, 3))
        gen = eng.generator_blocks(core.split(C), grid)
        s = self._random_state(rng, 3, grid)
        out = eng.evolve(s, gen, 0.0)
        assert np.allclose(out.values, s.values, atol=1e-13)

    def test_norm_preserved(self, rng):
        grid = eng.make_grid(32, 4.0)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            gen = eng.generator_blocks(core.split(C), grid)
            s = self._random_state(rng, d, grid)
            t = float(rng.uniform(0, 50))
            out = eng.evolve(s, gen, t)
            assert abs(
                np.linalg.norm(out.values) - np.linalg.norm(s.values)
            ) <= 1e-10 * np.linalg.norm(s.values)

    def test_generator_without_split_or_blocks_rejected(self):
        grid = eng.make_grid(8, 2.0)
        s = eng.SpectralState(values=np.ones((1, 8), dtype=complex), grid=grid)
        with pytest.raises(InvalidInputError, match="neither"):
            eng.evolve(s, eng.GeneratorBlocks(blocks=None, grid=grid), 1.0)

    def test_scalar_mode_amplitude_constant(self):
        grid = eng.make_grid(8, 2.0)
        gen = eng.generator_blocks(core.split(np.array([[0.5]])), grid)
        s = eng.SpectralState(values=np.ones((1, 8), dtype=complex), grid=grid)
        out = eng.evolve(s, gen, 7.3)
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


# structure name -> (C builder, the evolve path it takes)
_STRUCTURES = {
    "real-nonnormal": (_real_nonnormal, "real"),
    "complex-hermitian": (_complex_hermitian, "hermitian"),
    "real-symmetric": (_real_symmetric, "hermitian"),
    "general": (random_contractive, "general"),
}

# path -> what it decomposes on an N-mode grid: (matrices per eigh call,
# tridiagonalisations)
_PATH_WORK = {
    "hermitian": lambda N: ([1], 0),
    "real": lambda N: ([], N // 2 + 1),
    "general": lambda N: ([], N),
}


def _per_mode_reference(values, blocks, t):
    """exp(-itH_k)·v_k one mode at a time, each block decomposed on its own."""
    out = np.empty_like(values)
    for j, H in enumerate(blocks):
        lam, V = np.linalg.eigh(H)
        out[:, j] = V @ (np.exp(-1j * t * lam) * (V.conj().T @ values[:, j]))
    return out


@pytest.fixture
def decompositions(monkeypatch):
    """Records the matrices each numpy.linalg.eigh call sees and every LAPACK
    zhetrd call the engine makes; ``work()`` reads both, ``clear()`` resets."""
    eigh_calls, tridiag_calls = [], []
    real_eigh, real_zhetrd = np.linalg.eigh, eng.lapack.zhetrd

    def counting_eigh(a, *args, **kwargs):
        a = np.asarray(a)
        eigh_calls.append(int(np.prod(a.shape[:-2])))
        return real_eigh(a, *args, **kwargs)

    def counting_zhetrd(a, *args, **kwargs):
        tridiag_calls.append(np.shape(a)[0])
        return real_zhetrd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(eng.lapack, "zhetrd", counting_zhetrd)

    class Record:
        @staticmethod
        def work():
            return eigh_calls[:], len(tridiag_calls)

        @staticmethod
        def clear():
            eigh_calls.clear()
            tridiag_calls.clear()

    return Record


class TestEvolvePaths:
    """Each structure-aware path of evolve against the per-mode eigh
    reference, with the path pinned by the eigh calls and the per-mode
    tridiagonalisations it makes."""

    def _evolve_against_reference(
        self, rng, decompositions, structure, d, N, L, t, tol=1e-12
    ):
        build, path = _STRUCTURES[structure]
        C = build(rng, d)
        grid = eng.make_grid(N, L)
        gen = eng.generator_blocks(core.split(C), grid)
        assert eng.evolve_path(gen.split, grid) == path
        vals = rng.normal(size=(d, N)) + 1j * rng.normal(size=(d, N))
        ref = _per_mode_reference(vals, gen.blocks, t)
        decompositions.clear()
        out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen, t)
        assert decompositions.work() == _PATH_WORK[path](N)
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
        self._evolve_against_reference(
            rng, decompositions, structure, d=2, N=4, L=np.pi, t=t
        )

    @pytest.mark.parametrize(
        "c, split, eigh_calls",
        [(0.5, True, [1]), (0.5 + 0.25j, True, []), (0.5 + 0.25j, False, [])],
        ids=["real", "complex", "bare"],
    )
    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_scalar_system(self, rng, decompositions, c, split, eigh_calls, t):
        # d + 1 = 1 on every path it can take: a real scalar is symmetric
        # (one eigh); a complex one, with or without its split, is a phase
        # per mode and is never tridiagonalised. The real path needs a
        # nonzero imaginary C2h, which no 1x1 Hermitian matrix has.
        grid = eng.make_grid(4, np.pi)
        gen = eng.generator_blocks(core.split(np.array([[c]])), grid)
        if not split:
            gen = eng.GeneratorBlocks(blocks=gen.blocks, grid=grid)
        vals = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        exact = np.exp(-1j * t * gen.blocks[:, 0, 0].real) * vals
        decompositions.clear()
        out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen, t)
        assert decompositions.work() == (eigh_calls, 0)
        assert np.max(np.abs(out.values - exact)) <= 1e-12 * np.linalg.norm(vals)

    @pytest.mark.parametrize("structure", ["real-symmetric", "complex-hermitian"])
    def test_hermitian_path_at_large_phase(self, rng, decompositions, structure):
        # phases t·μ·η up to about 10³ rad: the factorised ladder
        # e^{-itμ(k0 + B·a + b)π/L} must keep up with the direct exponential
        self._evolve_against_reference(
            rng, decompositions, structure, d=8, N=512, L=20.0, t=20.0, tol=1e-11
        )

    @pytest.mark.parametrize(
        "build, path", [(_real_symmetric, "real"), (_complex_hermitian, "general")]
    )
    def test_hermitian_C_off_the_ladder(self, rng, decompositions, build, path):
        # the Hermitian path builds its phases from η_k = πk/L; on a
        # hand-built grid with any other η a Hermitian C is reduced per mode
        grid = eng.make_grid(16, 3.0)
        grid = replace(grid, eta=grid.eta * (1.0 + 1e-3))
        gen = eng.generator_blocks(core.split(build(rng, 4)), grid)
        assert eng.evolve_path(gen.split, grid) == path
        vals = rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
        decompositions.clear()
        out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen, 2.0)
        assert decompositions.work() == _PATH_WORK[path](16)
        ref = _per_mode_reference(vals, gen.blocks, 2.0)
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.linalg.norm(vals)

    def test_complex_hermitian_path_has_complex_C1h(self, rng, decompositions):
        gen = self._evolve_against_reference(
            rng, decompositions, "complex-hermitian", d=4, N=16, L=3.0, t=2.0
        )
        assert np.any(gen.split.C1h.imag != 0)
        assert not np.any(gen.split.C2h)

    def test_blocks_without_split_take_reference_path(self, rng, decompositions):
        grid = eng.make_grid(16, 3.0)
        gen = eng.generator_blocks(core.split(_real_symmetric(rng, 3)), grid)
        bare = eng.GeneratorBlocks(blocks=gen.blocks, grid=grid)
        vals = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        s = eng.SpectralState(values=vals, grid=grid)
        decompositions.clear()
        fast = eng.evolve(s, gen, 2.0)
        assert decompositions.work() == ([1], 0)
        ref = eng.evolve(s, bare, 2.0)
        assert decompositions.work() == ([1], 16)
        assert np.max(np.abs(fast.values - ref.values)) <= 1e-12 * np.linalg.norm(vals)

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    @pytest.mark.parametrize("N", [4, 16, 64])
    def test_zero_modes_are_not_reduced(self, rng, decompositions, structure, N):
        # one zhetrd per nonzero mode (general path) or per k = 0..N/2 whose
        # column or whose -k partner is nonzero (real path)
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
        out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen, 1.7)
        assert decompositions.work() == ([], expected)
        assert not out.values[:, ~live].any()
        ref = _per_mode_reference(vals, gen.blocks, 1.7)
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.linalg.norm(vals)

    @pytest.mark.parametrize("structure", ["real-nonnormal", "general"])
    def test_lapack_failure_raises_numerical_error(self, rng, monkeypatch, structure):
        def failing_dstevd(d, e, *args, **kwargs):
            return d, np.eye(d.size), 1

        monkeypatch.setattr(eng.lapack, "dstevd", failing_dstevd)
        build, _ = _STRUCTURES[structure]
        grid = eng.make_grid(8, 3.0)
        gen = eng.generator_blocks(core.split(build(rng, 3)), grid)
        s = eng.SpectralState(values=np.ones((3, 8), dtype=complex), grid=grid)
        with pytest.raises(NumericalError, match="dstevd"):
            eng.evolve(s, gen, 1.0)

    @pytest.mark.parametrize("structure", list(_STRUCTURES))
    def test_propagate_matches_expm(self, rng, decompositions, structure):
        build, path = _STRUCTURES[structure]
        d, t = 6, 3.0
        C = build(rng, d)
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        grid = eng.make_grid(512, eng.default_domain_halfwidth(core.split(C).C1h, t))
        decompositions.clear()
        rec = eng.propagate(C, x0, t, grid)
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


@settings(max_examples=60, deadline=None)
@given(
    structure=st.sampled_from([*_STRUCTURES, "bare"]),
    d=st.integers(1, 9),
    N=st.sampled_from([4, 8, 16, 32, 64]),
    t=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_matches_reference_property(structure, d, N, t, seed):
    """Every path, and bare blocks, agree with the per-mode eigh reference
    and keep the norm of every mode."""
    rng = np.random.default_rng(seed)
    grid = eng.make_grid(N, float(rng.uniform(np.pi, 8.0)))
    build = _STRUCTURES[structure][0] if structure != "bare" else random_contractive
    C = build(rng, d)
    gen = eng.generator_blocks(core.split(C), grid)
    if structure == "bare":
        gen = eng.GeneratorBlocks(blocks=gen.blocks, grid=grid)
    vals = rng.normal(size=(d, N)) + 1j * rng.normal(size=(d, N))
    out = eng.evolve(eng.SpectralState(values=vals, grid=grid), gen, t).values
    ref = _per_mode_reference(vals, gen.blocks, t)
    scale = np.linalg.norm(vals)
    assert np.max(np.abs(out - ref)) <= 1e-12 * scale
    mode_norms = np.linalg.norm(vals, axis=0)
    drift = np.abs(np.linalg.norm(out, axis=0) - mode_norms)
    assert np.max(drift) <= 1e-10 * mode_norms.max()


class TestTruncate:
    def test_drops_the_least_massive_modes_up_to_eps_squared(self):
        grid = eng.make_grid(8, 3.0)
        mass = np.array([0.25, 4e-13, 0.25, 3e-13, 0.25, 5e-13, 0.125, 0.125])
        vals = np.sqrt(mass)[None, :] * np.array([[0.6], [0.8j]])
        s = eng.SpectralState(values=vals, grid=grid, time=1.5)
        out, dropped = eng.truncate(s)
        # 3e-13 + 4e-13 fits under 1e-12 of the total mass; adding 5e-13 does not
        kept = np.ones(8, dtype=bool)
        kept[[1, 3]] = False
        assert not out.values[:, ~kept].any()
        assert np.array_equal(out.values[:, kept], vals[:, kept])
        assert dropped == pytest.approx(np.sqrt(7e-13 / mass.sum()), rel=1e-12)
        assert out.time == 1.5 and not np.array_equal(s.values, out.values)

    @pytest.mark.parametrize("N", [4, 8, 16, 32, 64, 128, 256, 512])
    @pytest.mark.parametrize("L", [np.pi, 6.0, 12.5, 25.0, 40.0, 90.0])
    def test_exp_abs_drops_no_mode(self, rng, N, L):
        # e^{-|p|} keeps every mode on these grids, so the power method and
        # plain propagation run exactly the arithmetic they ran before
        x0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        v0 = eng.transform(eng.initial_warped_state(x0, eng.make_grid(N, L)))
        out, dropped = eng.truncate(v0)
        assert out is v0 and dropped == 0.0

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
        gen = eng.GeneratorBlocks(blocks=None, grid=grid, split=ds)
        v0 = eng.transform(eng.initial_warped_state(x0, grid, eng.SMOOTH))
        full = eng.transform(eng.evolve(v0, gen, t), "inverse").values
        cut = eng.transform(eng.evolve(eng.truncate(v0)[0], gen, t), "inverse").values
        error = np.linalg.norm(cut - full) / np.linalg.norm(full)
        assert error == pytest.approx(kept.dropped_norm, rel=1e-6)
        plain = eng.propagate(C, x0, t, grid)
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
    gen = eng.GeneratorBlocks(blocks=None, grid=grid, split=ds)
    v0 = eng.transform(eng.initial_warped_state(x0, grid, profile), "forward")
    kept, dropped = eng.truncate(v0)
    assert dropped <= eng.TRUNCATION_EPS
    full = eng.transform(eng.evolve(v0, gen, t), "inverse").values
    cut = eng.transform(eng.evolve(kept, gen, t), "inverse").values
    scale = np.linalg.norm(full)
    assert np.linalg.norm(cut - full) <= (dropped + 1e-12) * scale

    rec = eng.propagate(C, x0, t, grid, profile=profile)
    assert rec.dropped_norm == dropped
    assert rec.modes_evolved == np.count_nonzero(kept.values.any(axis=0))
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
        rec = eng.propagate(np.array([[0.5]]), np.array([1.0]), 1.0, grid)
        assert rec.success_probability == pytest.approx(np.exp(-1.0) / 2, rel=0.05)

    def test_no_evolution_recovers_x0(self):
        grid = eng.make_grid(256, 6.0)
        x0 = np.array([0.3, -0.4, 1.2])
        rec = eng.propagate(np.eye(3), x0, 0.0, grid)
        assert np.max(np.abs(rec.x - x0)) <= np.exp(-grid.L) + 1e-3

    def test_at_pstar_mode(self):
        grid = eng.make_grid(256, 4.5)
        rec = eng.propagate(
            np.array([[0.5]]), np.array([1.0]), 1.0, grid, mode="at_pstar"
        )
        assert abs(rec.x[0] - np.exp(-0.5)) <= 1e-3

    def test_unknown_mode_rejected(self):
        grid = eng.make_grid(16, 2.0)
        w = eng.initial_warped_state([1.0], grid)
        with pytest.raises(InvalidInputError):
            eng.recover(w, grid, mode="everywhere")


class TestExpectation:
    def test_identity_observable(self, rng):
        grid = eng.make_grid(32, 3.0)
        vals = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
        s = eng.SpectralState(values=vals, grid=grid)
        res = eng.expectation_without_recovery(s, np.eye(3))
        assert res.normalized == pytest.approx(1.0, abs=1e-12)

    def test_scalar_system(self):
        grid = eng.make_grid(16, 2.0)
        s = eng.transform(eng.initial_warped_state([1.0], grid), "forward")
        res = eng.expectation_without_recovery(s, np.array([[1.0]]))
        assert res.normalized == pytest.approx(1.0, abs=1e-12)

    def test_population_matches_oracle(self, rng):
        C = random_contractive(rng, 4)
        x0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = 2.0
        grid = eng.make_grid(512, eng.default_domain_halfwidth(core.split(C).C1h, t))
        w0 = eng.initial_warped_state(x0, grid)
        v0 = eng.transform(w0, "forward")
        vt = eng.evolve(v0, eng.generator_blocks(core.split(C), grid), t)
        proj = np.zeros((4, 4))
        proj[1, 1] = 1.0
        res = eng.expectation_without_recovery(vt, proj)
        xt = baselines.exact_propagator(C, x0, t)
        expected = np.abs(xt[1]) ** 2 / np.linalg.norm(xt) ** 2
        assert res.normalized.real == pytest.approx(expected, abs=2e-3)

    def test_rejects_non_hermitian(self):
        grid = eng.make_grid(8, 2.0)
        s = eng.SpectralState(values=np.ones((2, 8), dtype=complex), grid=grid)
        with pytest.raises(InvalidInputError):
            eng.expectation_without_recovery(s, np.array([[0.0, 1.0], [0.0, 0.0]]))


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
        rec = eng.propagate(C, x0, t, grid)

        H = -(C - np.eye(3))
        lam, V = np.linalg.eigh(H)
        v0 = eng.transform(eng.initial_warped_state(x0, grid), "forward")
        cols = v0.values.T
        out = np.empty_like(cols)
        for j, eta in enumerate(grid.eta):
            U = (V * np.exp(-1j * t * eta * lam)) @ V.T
            out[j] = U @ cols[j]
        wt = eng.transform(
            eng.SpectralState(values=out.T, grid=grid, time=t), "inverse"
        )
        ref = eng.recover(wt, grid)
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
