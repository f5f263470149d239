"""Outside-in layer tracer.

While an op runs traced, every public function of the package's layer
modules (``core``, ``schrodingerization``, ``solvers``, ``baselines``,
``cli``) and the LAPACK boundary ``numpy.linalg.{eigh,eigvalsh,eig,eigvals}``
is replaced by a wrapper that records a span: name, start, end, parent span
and op id. This works because the package reaches those functions through
module attributes at call time. Functions held in other containers (the
CLI's ``_RUNNERS`` table refers to ``run_*`` directly) are not seen; their
time is self time of the nearest traced caller. Every ``SchrosimError``
constructed is counted by its ``code`` through a wrapped ``__init__`` on the
base class, which is the ``errors`` layer's only observable.

Spans stay in memory; ``per_op_metrics`` turns one op's spans into totals,
self times and counts. All wrappers are removed when ``tracing`` exits.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

from schrosim import baselines, cli, core, errors, schrodingerization, solvers

LAYER_MODULES: dict[str, ModuleType] = {
    "core": core,
    "schrodingerization": schrodingerization,
    "solvers": solvers,
    "baselines": baselines,
    "cli": cli,
}
LINALG_FUNCTIONS = ("eigh", "eigvalsh", "eig", "eigvals")


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict[str, float] = field(default_factory=dict)


def _matrix_counts(args, kwargs) -> dict[str, float]:
    a = args[0] if args else kwargs.get("a")
    shape = np.shape(a)
    if len(shape) < 2:
        return {}
    matrices = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return {"matrices": matrices, "n3_sum": matrices * float(shape[-1]) ** 3}


def error_codes() -> list[str]:
    """Every stable code the errors module defines."""
    found = {errors.SchrosimError.code}
    for obj in vars(errors).values():
        if inspect.isclass(obj) and issubclass(obj, errors.SchrosimError):
            found.add(obj.code)
    return sorted(found)


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every function the tracer wraps."""
    out = []
    for layer, mod in LAYER_MODULES.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            out.append((mod, attr, f"{layer}.{attr}"))
    for attr in LINALG_FUNCTIONS:
        out.append((np.linalg, attr, f"linalg.{attr}"))
    return out


class Tracer:
    """Collects spans for the ops run inside ``tracing(op_id)``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.error_counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_linalg = name.startswith("linalg.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(self._op, name, 0.0, parent=stack[-1] if stack else -1)
            if is_linalg:
                span.counts = _matrix_counts(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == "schrodingerization.generator_blocks":
                span.counts = {"bytes": float(result.blocks.nbytes)}
            return result

        return wrapper

    @contextlib.contextmanager
    def tracing(self, op_id: int):
        """Install every wrapper for one op and restore the originals after."""
        self._op = op_id
        saved = [(owner, attr, name, getattr(owner, attr)) for owner, attr, name in targets()]
        base = errors.SchrosimError
        had_init = "__init__" in vars(base)
        original_init = base.__init__
        counts = self.error_counts[op_id]

        def counting_init(exc, *args, **kwargs):
            counts[type(exc).code] += 1
            original_init(exc, *args, **kwargs)

        try:
            for owner, attr, name, fn in saved:
                setattr(owner, attr, self._wrap(name, fn))
            base.__init__ = counting_init
            yield self
        finally:
            for owner, attr, _, fn in saved:
                setattr(owner, attr, fn)
            if had_init:
                base.__init__ = original_init
            else:
                del base.__init__
            self._op = -1
            self._stack.clear()

    def per_op_metrics(self, op_id: int) -> dict[str, float]:
        """Per-name totals for one op: ``<name>.s`` (inclusive time),
        ``.self_s`` (minus time covered by child spans), ``.calls`` and any
        recorded counts; ``errors.<code>.count``; ``span_self_total_s``."""
        ops = [(i, s) for i, s in enumerate(self.spans) if s.op == op_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in ops:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        self_total = 0.0
        for i, s in ops:
            dur = s.end - s.start
            self_s = dur - child_time[i]
            self_total += self_s
            out[f"{s.name}.s"] += dur
            out[f"{s.name}.self_s"] += self_s
            out[f"{s.name}.calls"] += 1
            for key, value in s.counts.items():
                out[f"{s.name}.{key}"] += value
        for code, n in self.error_counts.get(op_id, {}).items():
            out[f"errors.{code}.count"] += n
        out["span_self_total_s"] = self_total
        return dict(out)


def known_metric(name: str) -> bool:
    """Whether ``per_op_metrics`` can produce ``name`` (zero when the span
    never ran in an op)."""
    span_names = {n for _, _, n in targets()}
    if name.startswith("errors.") and name.endswith(".count"):
        return name[len("errors."):-len(".count")] in error_codes()
    base, _, suffix = name.rpartition(".")
    if suffix in ("s", "self_s", "calls"):
        return base in span_names
    if suffix in ("matrices", "n3_sum"):
        return base in {f"linalg.{f}" for f in LINALG_FUNCTIONS}
    if suffix == "bytes":
        return base == "schrodingerization.generator_blocks"
    return False
