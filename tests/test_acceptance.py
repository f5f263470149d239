"""End-to-end acceptance checks. Each test prints a single pass/fail line
with its runtime; run with `pytest tests/test_acceptance.py -v -s` to see
them. Tolerances are the contract values, not tuning knobs."""

import json
import time
import warnings

import numpy as np
import pytest

from schrosim import baselines, cli, core, schrodingerization as eng, solvers
from schrosim.cli import RunConfig

from classical_reference import classical_iterate, classical_power
from conftest import random_contractive, random_dominant, random_power_instance
from htot_reference import assemble_Htot
from mm_reference import write_matrix_market
from pspace_reference import initial_warped_state


def _report(label: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"\n{label}: {status} ({time.perf_counter() - started:.1f}s){extra}")


def _fidelity(a, b) -> float:
    a = np.asarray(a) / np.linalg.norm(a)
    b = np.asarray(b) / np.linalg.norm(b)
    return float(np.abs(np.vdot(a, b)) ** 2)


def test_criterion_1_schrodingerisation_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    monotone = True
    for i in range(50):
        d = int(rng.integers(1, 17))
        C = random_contractive(rng, d)
        ds = core.split(C)
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        for t in (1.0, 5.0, 10.0):
            grid = eng.make_grid(512, eng.default_domain_halfwidth(ds.C1h, t))
            rec = eng.propagate(C, x0, t, grid, profile=eng.EXP_ABS)
            exact = baselines.exact_propagator(C, x0, t)
            worst = max(worst, 1.0 - _fidelity(rec.state, exact))
        if i < 10:
            # grid-refinement study on a subset: infidelity shrinks with N
            t = 5.0
            L = eng.default_domain_halfwidth(ds.C1h, t)
            exact = baselines.exact_propagator(C, x0, t)
            infs = []
            for N in (64, 128, 256, 512):
                rec = eng.propagate(C, x0, t, eng.make_grid(N, L), profile=eng.EXP_ABS)
                infs.append(max(1.0 - _fidelity(rec.state, exact), 1e-14))
            monotone = monotone and all(
                b <= a for a, b in zip(infs, infs[1:])
            )
    ok = worst <= 1e-3 and monotone
    _report(
        "criterion 1 (warped-phase propagation vs exact oracle)",
        ok,
        started,
        f"worst infidelity {worst:.2e}, monotone refinement {monotone}",
    )
    assert worst <= 1e-3
    assert monotone


def test_criterion_1_default_profile_accuracy():
    # criterion 1's sample with propagate's default, the seam-blended smooth
    # profile: its coefficients decay fast, so N = 512 resolves it far
    # below the contract (exp-abs reaches 2e-5 here)
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 17))
        C = random_contractive(rng, d)
        ds = core.split(C)
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        for t in (1.0, 5.0, 10.0):
            grid = eng.make_grid(512, eng.default_domain_halfwidth(ds.C1h, t))
            rec = eng.propagate(C, x0, t, grid)
            assert rec.profile is eng.SMOOTH
            exact = baselines.exact_propagator(C, x0, t)
            worst = max(worst, 1.0 - _fidelity(rec.state, exact))
    ok = worst <= 1e-9
    _report(
        "criterion 1, default profile (propagation vs exact oracle)",
        ok,
        started,
        f"worst infidelity {worst:.2e}",
    )
    assert worst <= 1e-9


def test_criterion_2_structural_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_herm = worst_block = worst_norm = worst_round = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        N = int(rng.choice([8, 16, 32]))
        L = float(rng.uniform(2.0, 6.0))
        grid = eng.make_grid(N, L)
        C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ds = core.split(C)
        blocks = eng.generator_blocks(ds, grid)
        worst_herm = max(
            worst_herm,
            max(core.hermiticity_defect(H) for H in blocks.blocks),
        )
        Htot = assemble_Htot(C, grid)
        worst_herm = max(worst_herm, core.hermiticity_defect(Htot))
        perm = [i * N + k for k in range(N) for i in range(d)]
        block_diag = np.zeros_like(Htot)
        for k in range(N):
            block_diag[k * d : (k + 1) * d, k * d : (k + 1) * d] = blocks.blocks[k]
        worst_block = max(
            worst_block, float(np.max(np.abs(Htot[np.ix_(perm, perm)] - block_diag)))
        )
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        w0 = initial_warped_state(x0, grid)
        v0 = eng.transform(w0, "forward")
        back = eng.transform(v0, "inverse")
        worst_round = max(worst_round, float(np.max(np.abs(back.values - w0.values))))
        vt = eng.evolve(v0, ds, float(rng.uniform(0.0, 5.0)))
        worst_norm = max(
            worst_norm,
            abs(np.linalg.norm(vt.values) - np.linalg.norm(v0.values)),
        )
    ok = (
        worst_herm <= 1e-12
        and worst_block <= 1e-12
        and worst_norm <= 1e-10
        and worst_round <= 1e-12
    )
    _report(
        "criterion 2 (generator Hermiticity, block equivalence, unitarity, round trip)",
        ok,
        started,
        f"herm {worst_herm:.1e}, block {worst_block:.1e}, "
        f"norm {worst_norm:.1e}, round {worst_round:.1e}",
    )
    assert worst_herm <= 1e-12
    assert worst_block <= 1e-12
    assert worst_norm <= 1e-10
    assert worst_round <= 1e-12


def test_criterion_3_quantum_jacobi_end_to_end(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_inf = 0.0
    worst_res = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(25):
            d = int(rng.integers(2, 17))
            A, b = random_dominant(rng, d)
            mpath = tmp_path / f"A{i}.mtx"
            mpath.write_text(write_matrix_market(A))
            bpath = tmp_path / f"b{i}.json"
            bpath.write_text(json.dumps([[float(x), 0.0] for x in b]))
            out = cli.run_solve(
                RunConfig(
                    command="solve",
                    matrix_path=str(mpath),
                    rhs_path=str(bpath),
                    delta=1e-3,
                    N=512,
                )
            )
            y = np.array([complex(*p) for p in out["y"]])
            y_exact = baselines.direct_solve(A, b)
            worst_inf = max(worst_inf, 1.0 - _fidelity(y, y_exact))
            worst_res = max(
                worst_res,
                float(np.linalg.norm(A @ y - b) / np.linalg.norm(b)),
            )
        worked = solvers.quantum_jacobi_solve(
            [[2.0, 1.0], [1.0, 3.0]], [1.0, 2.0], delta=1e-3
        )
    worked_err = float(np.max(np.abs(worked.y_classical - [0.2, 0.6])))
    ok = worst_inf <= 1e-3 and worst_res <= 1e-2 and worked_err <= 1e-2
    _report(
        "criterion 3 (quantum Jacobi solve vs direct oracle)",
        ok,
        started,
        f"worst infidelity {worst_inf:.2e}, worst residual {worst_res:.2e}, "
        f"worked-instance error {worked_err:.2e}",
    )
    assert worst_inf <= 1e-3
    assert worst_res <= 1e-2
    assert worked_err <= 1e-2


def test_criterion_4_stopping_time_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    tf_ok = True
    for delta in (1e-2, 1e-3):
        for _ in range(20):
            # two-level instance: steady eigenvalue 1 plus one decaying mode
            gap = float(rng.uniform(0.2, 0.9))
            C = np.diag([1.0, 1.0 - gap])
            a0 = float(rng.uniform(0.3, 0.95))
            x0 = np.array([a0, np.sqrt(1.0 - a0**2)])
            t_f = solvers.estimate_tf(a0**2, gap, delta)
            xt = baselines.exact_propagator(C, x0, t_f)
            tf_ok = tf_ok and _fidelity(xt, [1.0, 0.0]) >= 1.0 - delta
    tmax_ok = True
    trace_ok = True
    for eps in (0.1, 0.01):
        for _ in range(15):
            d = int(rng.integers(2, 7))
            C = random_power_instance(rng, d)
            lam, V = np.linalg.eig(C)
            order = np.argsort(-lam.real)
            lam, V = lam[order].real, V[:, order]
            x0 = np.ones(d) / np.sqrt(d)
            _, overlaps, _, _ = solvers.eigen_overlaps(C, x0, steady_hint=None)
            gamma1 = float(np.sqrt(overlaps[0]))
            trace = float(np.trace(C.conj().T @ C).real)
            t_max = solvers.estimate_tf(
                gamma1, lam[0] - lam[1], eps**2 / (2.0 * trace)
            )
            xt = baselines.exact_propagator(C, x0, t_max)
            xt = xt / np.linalg.norm(xt)
            lam_hat = solvers.eigenvalue_from_state(xt, C)
            err = abs(lam_hat - lam[0])
            tmax_ok = tmax_ok and err <= eps
            top = V[:, 0] / np.linalg.norm(V[:, 0])
            F = _fidelity(xt, top)
            trace_ok = trace_ok and np.sqrt(trace) * np.sqrt(2.0 - F) >= err - 1e-12
    ok = tf_ok and tmax_ok and trace_ok
    _report(
        "criterion 4 (stopping-time bounds are sufficient)",
        ok,
        started,
        f"t_f sufficient {tf_ok}, t_max sufficient {tmax_ok}, "
        f"trace inequality {trace_ok}",
    )
    assert tf_ok
    assert tmax_ok
    assert trace_ok


def test_criterion_5_quantum_power_method():
    started = time.perf_counter()
    rep = solvers.quantum_power_method(
        np.diag([0.9, 0.5]), np.array([1.0, 1.0]) / np.sqrt(2), epsilon=0.1
    )
    formula_gap = abs(rep.propagation.time - 6.6957328433)
    diag_err = abs(rep.eigenvalue_estimate - 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep2 = solvers.quantum_power_method(
            np.array([[0.9, 0.1], [0.0, 0.5]]),
            np.array([1.0, 1.0]) / np.sqrt(2),
            epsilon=0.1,
        )
    nonsym_err = abs(rep2.eigenvalue_estimate - 0.9)
    ok = formula_gap <= 1e-2 and diag_err <= 0.1 and nonsym_err <= 0.1
    _report(
        "criterion 5 (quantum power method reference instances)",
        ok,
        started,
        f"t_max {rep.propagation.time:.4f}, diag error {diag_err:.3f}, "
        f"nonsymmetric error {nonsym_err:.3f}",
    )
    assert formula_gap <= 1e-2
    assert diag_err <= 0.1
    assert nonsym_err <= 0.1


def test_criterion_6_classical_baseline_consistency():
    started = time.perf_counter()
    C = np.array([[0.0, -0.5, 0.5], [-1.0 / 3.0, 0.0, 2.0 / 3.0], [0.0, 0.0, 1.0]])
    trace = classical_iterate(C, [0.0, 0.0, 1.0], K=40)
    limit_err = float(np.max(np.abs(trace.iterates[-1] - [0.2, 0.6, 1.0])))
    deltas = np.asarray(trace.step_deltas)
    m = deltas.size // 2
    rate = (deltas[-1] / deltas[m]) ** (1.0 / (deltas.size - 1 - m))
    rate_ok = rate <= 1.0 / np.sqrt(6.0) + 0.05
    est, _ = classical_power(
        np.diag([0.9, 0.5]), np.array([1.0, 1.0]) / np.sqrt(2), K=3
    )
    rayleigh_err = abs(est.real - 0.88858)
    ok = limit_err <= 1e-10 and rate_ok and rayleigh_err <= 1e-5
    _report(
        "criterion 6 (classical Jacobi and power baselines)",
        ok,
        started,
        f"limit error {limit_err:.1e}, rate {rate:.4f}, "
        f"Rayleigh error {rayleigh_err:.1e}",
    )
    assert limit_err <= 1e-10
    assert rate_ok
    assert rayleigh_err <= 1e-5


def test_criterion_7_scalar_analytic_case():
    started = time.perf_counter()
    C = np.array([[0.5]])
    grid = eng.make_grid(256, eng.default_domain_halfwidth(core.split(C).C1h, 1.0))
    rec = eng.propagate(C, np.array([1.0]), 1.0, grid, profile=eng.EXP_ABS)
    amp_err = abs(abs(rec.x[0]) - np.exp(-0.5))
    # closed-form norm ratio: |x(1)|^2 * ||e^{-p}||^2_{p>0} / ||w||^2 = e^{-1}/2
    sp_rel = abs(rec.success_probability - np.exp(-1.0) / 2.0) / (np.exp(-1.0) / 2.0)
    ok = amp_err <= 1e-3 and sp_rel <= 0.05
    _report(
        "criterion 7 (scalar closed-form pipeline)",
        ok,
        started,
        f"amplitude error {amp_err:.2e}, success-prob deviation {sp_rel:.1%}",
    )
    assert amp_err <= 1e-3
    assert sp_rel <= 0.05


def test_criterion_7_smooth_profile_success_probability():
    # the Jacobi solve's profile: the same scalar case, whose success
    # probability the closed form scales by ||e^{-p}||²_{p>0} / ||ψ||²
    started = time.perf_counter()
    C = np.array([[0.5]])
    grid = eng.make_grid(256, eng.default_domain_halfwidth(core.split(C).C1h, 1.0))
    rec = eng.propagate(C, np.array([1.0]), 1.0, grid, profile=eng.SMOOTH)
    amp_err = abs(abs(rec.x[0]) - np.exp(-0.5))
    closed = np.exp(-1.0) * 0.5 / (0.5 + eng.SMOOTH.negative_mass)
    sp_rel = abs(rec.success_probability - closed) / closed
    ok = amp_err <= 1e-3 and sp_rel <= 0.05
    _report(
        "criterion 7, smooth profile (scalar closed-form success probability)",
        ok,
        started,
        f"amplitude error {amp_err:.2e}, success-prob deviation {sp_rel:.1%}",
    )
    assert amp_err <= 1e-3
    assert sp_rel <= 0.05


def test_criterion_8_cli_contract(tmp_path):
    started = time.perf_counter()
    A = [[2.0, 1.0], [1.0, 3.0]]
    mpath = tmp_path / "A.mtx"
    mpath.write_text(write_matrix_market(np.array(A)))
    bpath = tmp_path / "b.json"
    bpath.write_text("[1.0, 2.0]")

    reports = []
    for name in ("r1.json", "r2.json"):
        cfg = RunConfig(
            command="solve",
            matrix_path=str(mpath),
            rhs_path=str(bpath),
            output_path=str(tmp_path / name),
        )
        assert cli.execute(cfg) == 0
        reports.append((tmp_path / name).read_bytes())
    deterministic = reports[0] == reports[1]

    rng = np.random.default_rng(808)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rt = tmp_path / "rt.mtx"
    rt.write_text(write_matrix_market(M))
    round_trip = bool(np.array_equal(cli.read_matrix_market(str(rt)), M))

    def error_status(A_bad, cmd="solve"):
        bad = tmp_path / "bad.mtx"
        bad.write_text(write_matrix_market(np.array(A_bad)))
        cfg = RunConfig(
            command=cmd,
            matrix_path=str(bad),
            rhs_path=str(bpath),
            output_path=str(tmp_path / "err.json"),
        )
        status = cli.execute(cfg)
        report = json.loads((tmp_path / "err.json").read_text())
        return status, report["error"]["code"]

    codes = [
        error_status([[0.0, 1.0], [1.0, 2.0]]),          # zero diagonal
        error_status([[1.0, 2.0], [3.0, 1.0]]),          # non-dominant
        error_status(np.diag([0.9, 0.9, 0.5]), "eig"),   # degenerate top pair
    ]
    statuses = [s for s, _ in codes]
    names = [c for _, c in codes]
    distinct = len(set(statuses)) == 3 and names == [
        "zero-diagonal",
        "convergence-unsafe",
        "no-gap",
    ]
    ok = deterministic and round_trip and distinct
    _report(
        "criterion 8 (CLI determinism, round trip, error codes)",
        ok,
        started,
        f"deterministic {deterministic}, round trip {round_trip}, "
        f"error codes {names} -> {statuses}",
    )
    assert deterministic
    assert round_trip
    assert distinct
