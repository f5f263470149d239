#!/usr/bin/env python3
"""schrosim benchmark: one closed-loop client timing one workload.

    python3 perfbench/run.py --workload jacobi-d127 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout; nothing is installed or built. The loop is closed with one
client in one process: the next op starts when the previous one returns,
the benchmark starts no threads, and BLAS keeps its default thread count.
``SCHRO_THREADS`` is removed from the environment so the default serial
engine path is what gets measured.

Set-up (import, input generation and file writing, one untimed warm-up op)
is timed in this process and in four fresh processes started for that
alone; ``setup_s`` is the median of the five. Then ops run until
``--seconds`` of timed op time have passed and every pool input has been
checked. Each op is checked against a classical oracle after its timer stops.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs each input untraced and then traced, and reports its per-layer metrics,
medians over the traced ops; the spans are written to ``.bench_out/``. The last stdout
line is the result object; the line before it holds the details (samples,
input fingerprint, environment).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 4
MIN_TIMED_OPS = 3
PROBE_TIMEOUT_S = 150
KINK_WARNING = "not negative semidefinite"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "SCHRO_THREADS",
)
# per-layer metrics measured by this file rather than derived from spans
RUN_METRICS = ("warnings.kink.count", "oracle.s", "trace.overhead", "trace.self_coverage")


class BenchmarkError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def require_sources() -> None:
    if not (SRC / "schrosim" / "__init__.py").is_file():
        raise BenchmarkError(f"no schrosim sources under {SRC}")


def import_workloads():
    """Import the program from this checkout's ``src/``, never from an
    installed copy, then the workload definitions."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import schrosim

    if Path(schrosim.__file__).resolve().parent != (SRC / "schrosim").resolve():
        raise BenchmarkError(f"imported schrosim from {schrosim.__file__}, not {SRC}")
    import workloads

    return workloads


def run_op(workload, case):
    """One op with warnings recorded. Returns (seconds, result, exception,
    kink warnings). The timer covers only the call into the program."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result, exc = workload.run(case), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            result, exc = None, e
        seconds = time.perf_counter() - start
    kinks = sum(1 for w in caught if KINK_WARNING in str(w.message))
    return seconds, result, exc, kinks


def judge(workloads, workload, case, result, exc):
    """Check one op against its oracle; any exception is a failed op."""
    if exc is None:
        try:
            return workload.check(case, result)
        except Exception as e:  # malformed output counts as a failed op
            exc = e
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    return workloads.Outcome(False, float("inf"), 0.0, f"{type(exc).__name__}: {exc}")


def setup(name: str, seed: int, workdir: Path):
    """Import, generate inputs (writing any files), run one warm-up op.
    Returns (workloads module, workload, cases, warm-up record, seconds)."""
    start = time.perf_counter()
    workloads = import_workloads()
    if name not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    cases = workload.make_cases(seed, workdir)
    warm = run_op(workload, cases[0])
    return workloads, workload, cases, warm, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter (import included)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "schrosim").rglob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_schrosim_lines": src_lines,
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(workloads, workload, cases, warm, seconds: float, trace: bool):
    """The timed closed loop. Returns (records, tracer). Each record is a
    dict with the op's seconds, outcome, kink count and whether it was
    traced; record 0 is the warm-up op. When tracing, each input runs once
    untraced and then once traced, so both halves cover the same inputs."""
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    dt, result, exc, kinks = warm
    records = [{"s": dt, "outcome": judge(workloads, workload, cases[0], result, exc),
                "kinks": kinks, "traced": False, "warmup": True}]
    timed = 0.0
    repeat = 2 if trace else 1
    min_ops = max(MIN_TIMED_OPS, len(cases)) * repeat
    n = 0
    while timed < seconds or n < min_ops or n % repeat:
        case = cases[(n // repeat) % len(cases)]
        traced = trace and n % 2 == 1
        if traced:
            with tracer.tracing(n):
                dt, result, exc, kinks = run_op(workload, case)
        else:
            dt, result, exc, kinks = run_op(workload, case)
        timed += dt
        outcome = judge(workloads, workload, case, result, exc)
        records.append({"s": dt, "outcome": outcome, "kinks": kinks,
                        "traced": traced, "warmup": False, "op": n})
        n += 1
    return records, tracer


def end_to_end(records, setup_samples) -> dict[str, float]:
    timed = [r for r in records if not r["warmup"]]
    passed = sum(r["outcome"].ok for r in timed)
    return {
        "setup_s": median(setup_samples),
        "latency_p50_s": median([r["s"] for r in timed]),
        "throughput_ops_s": passed / sum(r["s"] for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_digits_min": min(r["outcome"].digits for r in records),
        "passed_frac": sum(r["outcome"].ok for r in records) / len(records),
    }


def per_layer(records, tracer, names) -> dict[str, float]:
    import spans

    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"] and not r["warmup"]]
    per_op = [tracer.per_op_metrics(r["op"]) for r in traced]
    out = {}
    for name in names:
        if name == "warnings.kink.count":
            out[name] = median([r["kinks"] for r in traced])
        elif name == "oracle.s":
            out[name] = median([r["outcome"].oracle_s for r in records])
        elif name == "trace.overhead":
            out[name] = median([r["s"] for r in traced]) / median([r["s"] for r in untraced]) - 1.0
        elif name == "trace.self_coverage":
            out[name] = median([m["span_self_total_s"] / r["s"] for m, r in zip(per_op, traced)])
        elif spans.known_metric(name):
            out[name] = median([m.get(name, 0.0) for m in per_op])
        else:
            raise BenchmarkError(f"per-layer metric {name!r} has no source")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    schro_threads = os.environ.pop("SCHRO_THREADS", None)
    require_sources()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            *_, setup_s = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probes = [] if args.trace else [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        workloads, workload, cases, warm, setup_s = setup(args.workload, args.seed, workdir)
        fingerprint = workloads.fingerprint(cases)
        records, tracer = measure(workloads, workload, cases, warm, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        entries = spec["per_layer"]
        values = per_layer(records, tracer, [m["name"] for m in entries])
    else:
        entries = spec["end_to_end"]
        values = end_to_end(records, probes + [setup_s])
    failed = sum(not r["outcome"].ok for r in records)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": fingerprint,
        "pool": len(cases),
        "timed_ops": len(records) - 1,
        "traced_ops": sum(r["traced"] for r in records),
        "op_seconds": [r["s"] for r in records],
        "setup_samples_s": probes + [setup_s],
        "failures": [r["outcome"].detail for r in records if not r["outcome"].ok],
        "schro_threads_removed": schro_threads,
        "environment": environment(),
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            [{"op": s.op, "name": s.name, "start": s.start, "end": s.end,
              "parent": s.parent, "counts": s.counts} for s in tracer.spans]
        ) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries},
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(2)
