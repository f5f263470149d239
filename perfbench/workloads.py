"""The benchmark's workloads: seeded input generators, the operation each
one times, and the classical oracle each operation is checked against.

Inputs are made by this file from the seed alone (plain NumPy, no schrosim
code), so two commits of the program receive byte-identical arrays; the
sha256 fingerprint of every pool proves it. The program only ever sees the
generated arrays and files.

Each workload cycles through a small pool of inputs. Every check runs after
the timed call returns, so oracle time never counts as program time.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import scipy.linalg

from schrosim import cli, core, schrodingerization, solvers

# acceptance-suite limits (tests/test_acceptance.py); a miss is a failed op
JACOBI_MIN_FIDELITY = 0.999
JACOBI_MAX_RESIDUAL = 1e-2
EVOLVE_MIN_FIDELITY = 1.0 - 1e-3
CLI_EIGENVALUE_TOL = 1e-8
ACCURACY_CLAMP = 15.0
# p-grid modes for every engine workload. Jacobi solves at d = 31 miss the
# 1e-2 residual limit with N = 64 (0.14-0.29) and N = 128 (0.011-0.015), so
# smaller grids would measure failed ops, not speed.
GRID_MODES = 512


@dataclass
class Case:
    """One pool entry: the arrays (and files) handed to the program."""

    arrays: dict[str, np.ndarray]
    files: dict[str, Path] = field(default_factory=dict)
    output: Path | None = None  # where the program writes its report


@dataclass
class Outcome:
    ok: bool
    error: float  # distance from the oracle; accuracy_digits = -log10(error)
    oracle_s: float
    detail: str = ""

    @property
    def digits(self) -> float:
        if self.error <= 0.0:
            return ACCURACY_CLAMP
        return min(ACCURACY_CLAMP, max(0.0, -math.log10(self.error)))


def fingerprint(cases: list[Case]) -> str:
    h = hashlib.sha256()
    for case in cases:
        for name in sorted(case.arrays):
            a = np.ascontiguousarray(case.arrays[name])
            h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())
        for name in sorted(case.files):
            h.update(f"file:{name}".encode())
            h.update(case.files[name].read_bytes())
    return h.hexdigest()


def _dominant(rng: np.random.Generator, d: int) -> np.ndarray:
    """Real, strictly row diagonally dominant d×d matrix."""
    A = rng.normal(size=(d, d))
    diag = np.diag(A)
    sign = np.where(diag >= 0.0, 1.0, -1.0)
    slack = rng.uniform(0.1, 1.0, d)
    A[np.diag_indices(d)] = 0.0
    A[np.diag_indices(d)] = sign * (np.abs(A).sum(axis=1) + slack)
    return A


def _unit_fidelity(reference: np.ndarray, state: np.ndarray) -> float:
    ref = reference / np.linalg.norm(reference)
    st = state / np.linalg.norm(state)
    return float(np.abs(np.vdot(ref, st)) ** 2)


class Workload:
    """A named operation over a seeded pool of inputs.

    Subclasses set ``name`` and ``pool`` and implement ``make_case``
    (inputs from the generator), ``run`` (the timed call into the program)
    and ``check`` (the oracle, run untimed).
    """

    name = ""
    pool = 3

    def make_cases(self, seed: int, workdir: Path) -> list[Case]:
        salt = zlib.crc32(self.name.encode())
        rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
        workdir.mkdir(parents=True, exist_ok=True)
        return [self.make_case(rng, workdir, i) for i in range(self.pool)]

    def make_case(self, rng: np.random.Generator, workdir: Path, index: int) -> Case:
        raise NotImplementedError

    def run(self, case: Case) -> Any:
        raise NotImplementedError

    def check(self, case: Case, result: Any) -> Outcome:
        raise NotImplementedError


class JacobiSolve(Workload):
    name = "jacobi-d127"
    pool = 3

    def __init__(self, d: int = 127):
        self.d = d

    def make_case(self, rng, workdir, index):
        A = _dominant(rng, self.d)
        b = rng.normal(size=self.d)
        return Case({"A": A, "b": b})

    def run(self, case):
        return solvers.quantum_jacobi_solve(case.arrays["A"], case.arrays["b"], N=GRID_MODES)

    def check(self, case, result):
        A, b = case.arrays["A"], case.arrays["b"]
        t0 = time.perf_counter()
        y = np.linalg.solve(A, b)
        oracle_s = time.perf_counter() - t0
        fid = _unit_fidelity(np.append(y, 1.0), np.asarray(result.state))
        yq = np.asarray(result.y_classical)
        residual = float(np.linalg.norm(A @ yq - b) / np.linalg.norm(b))
        ok = fid >= JACOBI_MIN_FIDELITY and residual <= JACOBI_MAX_RESIDUAL
        return Outcome(ok, 1.0 - fid, oracle_s, f"fidelity={fid!r} residual={residual!r}")


class PowerSymmetric(Workload):
    name = "power-sym-d64"
    pool = 4
    LAMBDA1 = 0.9
    EPSILON = 0.1
    # x0 is the unit all-ones vector; its squared overlap with the top
    # eigenvector is drawn from this range. A uniformly random eigenbasis
    # gives an overlap near 1/d, which needs a longer stopping time and a
    # wider p-domain than the fixed N=512 grid resolves.
    OVERLAP_RANGE = (0.1, 0.5)

    def __init__(self, d: int = 64):
        self.d = d

    def make_case(self, rng, workdir, index):
        d = self.d
        x0 = np.ones(d) / math.sqrt(d)
        w = rng.normal(size=d)
        w -= (w @ x0) * x0
        w /= np.linalg.norm(w)
        g2 = rng.uniform(*self.OVERLAP_RANGE)
        basis = rng.normal(size=(d, d))
        basis[:, 0] = math.sqrt(g2) * x0 + math.sqrt(1.0 - g2) * w
        Q, _ = np.linalg.qr(basis)
        lam = np.concatenate([[self.LAMBDA1], rng.uniform(0.05, 0.75, d - 1)])
        C = (Q * lam) @ Q.T
        C = (C + C.T) / 2.0
        return Case({"C": C, "x0": x0})

    def run(self, case):
        return solvers.quantum_power_method(
            case.arrays["C"], x0=case.arrays["x0"], epsilon=self.EPSILON, N=GRID_MODES
        )

    def check(self, case, result):
        t0 = time.perf_counter()
        lam1 = float(np.linalg.eigvalsh(case.arrays["C"])[-1])
        oracle_s = time.perf_counter() - t0
        err = abs(complex(result.eigenvalue_estimate) - lam1)
        return Outcome(err <= self.EPSILON, err, oracle_s, f"eigenvalue_error={err!r}")


class EvolveComplex(Workload):
    name = "evolve-complex-d64"
    pool = 4
    T = 2.0

    def __init__(self, d: int = 64):
        self.d = d

    def make_case(self, rng, workdir, index):
        d = self.d
        Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        Q, _ = np.linalg.qr(Z)
        P = (Q * rng.uniform(0.1, 1.0, d)) @ Q.conj().T
        B = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(d)
        H = (B + B.conj().T) / 2.0
        # drift C - I = -P + iH: Hermitian part -P <= -0.1, so e^{(C-I)t}
        # contracts; P and H do not commute, so C is not normal
        C = np.eye(d) - (P + P.conj().T) / 2.0 + 1j * H
        x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        return Case({"C": C, "x0": x0 / np.linalg.norm(x0)})

    def run(self, case):
        C, x0 = case.arrays["C"], case.arrays["x0"]
        ds = core.split(C)
        L = schrodingerization.default_domain_halfwidth(ds.C1h, self.T)
        grid = schrodingerization.make_grid(GRID_MODES, L)
        return schrodingerization.propagate(C, x0, self.T, grid)

    def check(self, case, result):
        C, x0 = case.arrays["C"], case.arrays["x0"]
        t0 = time.perf_counter()
        # e^{(C-I)t} x0, the quantity baselines.exact_propagator returns
        exact = scipy.linalg.expm((C - np.eye(C.shape[0])) * self.T) @ x0
        oracle_s = time.perf_counter() - t0
        fid = _unit_fidelity(exact, np.asarray(result.state))
        return Outcome(fid >= EVOLVE_MIN_FIDELITY, 1.0 - fid, oracle_s, f"fidelity={fid!r}")


def write_matrix_market(path: Path, M: np.ndarray) -> None:
    """Dense real matrix as coordinate Matrix Market text (every entry)."""
    rows, cols = M.shape
    lines = ["%%MatrixMarket matrix coordinate real general", f"{rows} {cols} {M.size}"]
    lines += [
        f"{i + 1} {j + 1} {float(M[i, j])!r}" for i in range(rows) for j in range(cols)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class CliDiagnose(Workload):
    name = "cli-diagnose-d255"
    pool = 3

    def __init__(self, d: int = 255):
        self.d = d

    def make_case(self, rng, workdir, index):
        A = _dominant(rng, self.d)
        path = workdir / f"diagnose-{index}.mtx"
        write_matrix_market(path, A)
        return Case({"A": A}, {"matrix": path}, workdir / f"diagnose-{index}.json")

    def run(self, case):
        args = [
            "diagnose",
            "--matrix", str(case.files["matrix"]),
            "--output", str(case.output),
        ]
        try:
            cli.main.main(args, standalone_mode=False)
        except SystemExit as exc:
            return exc.code
        return None

    def check(self, case, status):
        if status != 0:
            return Outcome(False, math.inf, 0.0, f"exit status {status!r}")
        report = json.loads(case.output.read_text(encoding="utf-8"))
        A = case.arrays["A"]
        d = A.shape[0]
        t0 = time.perf_counter()
        # diagnose reports the spectrum of the augmented Jacobi drift
        # [[G - I, 0], [0, 0]] with G = -(A - diag A) / diag A, rows scaled
        G = -A / np.diag(A)[:, None]
        G[np.diag_indices(d)] = 0.0
        drift = np.zeros((d + 1, d + 1))
        drift[:d, :d] = G - np.eye(d)
        oracle = np.linalg.eigvals(drift)
        steady = int(np.argmin(np.abs(oracle)))
        others = np.delete(oracle, steady)
        gap = float(np.min(np.abs(others.real - oracle[steady].real)))
        oracle_s = time.perf_counter() - t0
        got = np.array([complex(re, im) for re, im in report["eigenvalues"]])
        if got.shape != oracle.shape:
            return Outcome(False, math.inf, oracle_s, f"{got.size} eigenvalues reported")
        dist = np.abs(got[:, None] - oracle[None, :])
        mismatch = float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))
        gap_err = abs(float(report["gap"]) - gap) / gap
        ok = mismatch <= CLI_EIGENVALUE_TOL and gap_err <= CLI_EIGENVALUE_TOL
        return Outcome(ok, gap_err, oracle_s, f"eigenvalue_mismatch={mismatch!r} gap_rel_err={gap_err!r}")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (JacobiSolve(), PowerSymmetric(), EvolveComplex(), CliDiagnose())
}
