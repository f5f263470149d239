#!/usr/bin/env python3
"""Self-test of the benchmark (not of schrosim), on small inputs.

    python3 perfbench/selftest.py

Checks that inputs are a pure function of the seed, that a corrupted result
or a raising op is counted as failed, that the tracer restores every wrapper
and emits every per-layer metric BENCHMARK.json names, and that the
benchmark refuses to run, without printing a result, next to no sources.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

import run

workloads = run.import_workloads()
import spans  # noqa: E402  (needs the program on sys.path first)
from schrosim import errors, solvers  # noqa: E402

TMP_DIR = run.OUT / "selftest"
SMALL = [
    workloads.JacobiSolve(d=8),
    workloads.PowerSymmetric(d=8),
    workloads.EvolveComplex(d=8),
    workloads.CliDiagnose(d=8),
]


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def corrupt(workload, case, result):
    """A wrong answer of the right shape for each workload."""
    if isinstance(workload, workloads.JacobiSolve):
        return dataclasses.replace(result, state=np.roll(result.state, 1))
    if isinstance(workload, workloads.PowerSymmetric):
        return dataclasses.replace(result, eigenvalue_estimate=result.eigenvalue_estimate + 0.5)
    if isinstance(workload, workloads.EvolveComplex):
        return dataclasses.replace(result, state=np.roll(result.state, 1))
    report = json.loads(case.output.read_text(encoding="utf-8"))
    report["eigenvalues"][0][0] += 1e-3
    case.output.write_text(json.dumps(report), encoding="utf-8")
    return result


class Corrupting:
    """Delegates to a workload but hands the check a corrupted result."""

    def __init__(self, inner):
        self.inner = inner

    def run(self, case):
        return corrupt(self.inner, case, self.inner.run(case))

    def check(self, case, result):
        return self.inner.check(case, result)


class Raising:
    """An op that fails inside the program with a coded error."""

    def run(self, case):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # not diagonally dominant
        return solvers.quantum_jacobi_solve(A, np.ones(2))

    def check(self, case, result):
        raise AssertionError("unreachable: the op raises")


def wrapped_state():
    state = {(id(owner), attr): getattr(owner, attr) for owner, attr, _ in spans.targets()}
    return state, "__init__" in vars(errors.SchrosimError)


def main() -> int:
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    layer_names = [m["name"] for m in spec["per_layer"]]
    unknown = [n for n in layer_names if n not in run.RUN_METRICS and not spans.known_metric(n)]
    check(not unknown, f"every per-layer metric has a source (unknown: {unknown})")
    check(
        {f"errors.{c}.count" for c in spans.error_codes()} <= set(layer_names),
        "every error code of the errors module is a per-layer metric",
    )
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json lists exactly the defined workloads")

    shutil.rmtree(TMP_DIR, ignore_errors=True)
    try:
        for w in SMALL:
            a = w.make_cases(7, TMP_DIR / "a")
            b = w.make_cases(7, TMP_DIR / "b")
            c = w.make_cases(8, TMP_DIR / "c")
            fa, fb, fc = (workloads.fingerprint(x) for x in (a, b, c))
            check(fa == fb != fc, f"{w.name}: inputs depend on the seed alone")

            before = wrapped_state()
            warm = run.run_op(w, a[0])
            records, tracer = run.measure(workloads, w, a, warm, 0.0, trace=True)
            check(wrapped_state() == before, f"{w.name}: every wrapper restored")
            check(all(r["outcome"].ok for r in records), f"{w.name}: small ops pass their oracle")
            check(any(r["traced"] for r in records), f"{w.name}: traced ops recorded")
            values = run.per_layer(records, tracer, layer_names)
            check(set(values) == set(layer_names)
                  and all(np.isfinite(v) for v in values.values()),
                  f"{w.name}: every per-layer metric emitted")
            e2e = run.end_to_end(records, [1.0])
            check(set(e2e) == {m["name"] for m in spec["end_to_end"]},
                  f"{w.name}: every end-to-end metric emitted")

            bad = Corrupting(w)
            records, _ = run.measure(workloads, bad, a, run.run_op(bad, a[0]), 0.0, trace=False)
            e2e = run.end_to_end(records, [1.0])
            check(all(not r["outcome"].ok for r in records) and e2e["passed_frac"] == 0.0,
                  f"{w.name}: corrupted results counted as failed")

        raising = Raising()
        cases = SMALL[0].make_cases(1, TMP_DIR / "raising")
        records, tracer = run.measure(
            workloads, raising, cases, run.run_op(raising, cases[0]), 0.0, trace=True
        )
        traced = [r for r in records if r["traced"]]
        counts = [tracer.per_op_metrics(r["op"]).get("errors.convergence-unsafe.count") for r in traced]
        check(all(not r["outcome"].ok for r in records), "a raising op is counted as failed")
        check(counts and all(n == 1 for n in counts), "a coded error is counted once per op")

        bare = TMP_DIR / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, bare / run.SPEC.name)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", SMALL[0].name,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "refuses to run without sources, printing no result")
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
