"""Command-line surface: ingest Matrix Market matrices and JSON vectors,
run the solve / eig / evolve / diagnose pipelines, and emit deterministic
JSON reports (stable key order, newline-terminated)."""

from __future__ import annotations

import json
import math
import re
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field

import click
import numpy as np

from . import __version__, baselines, core, schrodingerization as engine, solvers
from .errors import InvalidInputError, ParseError, SchrosimError

_HEADER_FIELDS = {"real", "complex"}
# symmetry -> the value stored at (j, i) for an entry a at (i, j)
_MIRROR = {
    "symmetric": lambda a: a,
    "hermitian": lambda a: a.conjugate(),
    "skew-symmetric": lambda a: -a,
}
# one record per entry line: "i j re" for a real field, "i j re im" for complex
_ENTRY_DTYPES = {
    "real": np.dtype([("i", np.int64), ("j", np.int64), ("re", np.float64)]),
    "complex": np.dtype(
        [("i", np.int64), ("j", np.int64), ("re", np.float64), ("im", np.float64)]
    ),
}
_INDEX = re.compile(r"[+-]?[0-9]+")


def _load_entries(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """Parse entry lines into ``dtype`` records; ValueError if any does not
    parse. numpy before 2.0 reads a float token such as ``1.0`` in an integer
    column with only a DeprecationWarning (and truncates it); that warning is
    raised here as an error, so such a token is rejected on every numpy."""
    if not lines:
        return np.empty(0, dtype)  # loadtxt warns on empty input
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from exc


def _parses(line: str, dtype: np.dtype) -> bool:
    try:
        _load_entries([line], dtype)
    except ValueError:
        return False
    return True


def _unparsable_message(line: str, want: int, fld: str) -> str:
    """The error for an entry line that ``_load_entries`` rejects."""
    parts = line.split()
    if len(parts) != want:
        return f"expected {want} fields for a {fld} entry"
    try:
        if all(_INDEX.fullmatch(p) for p in parts[:2]):
            np.loadtxt(parts[2:], dtype=np.float64, comments=None)
            # every token is well formed, so an index overflowed int64
            return f"index ({int(parts[0])}, {int(parts[1])}) out of range"
    except ValueError:
        pass
    return "malformed entry"


def read_matrix_market(path: str) -> np.ndarray:
    """Parse a coordinate-format Matrix Market file into a dense matrix.

    Accepts real|complex fields and general, symmetric, hermitian (complex
    field only) and skew-symmetric symmetry. The last three must be square,
    store the lower triangle only (i >= j, as the spec requires) and are
    mirrored: (j, i) gets a, conj(a) or -a. A hermitian diagonal entry must
    be real, and a skew-symmetric file stores no diagonal. A coordinate
    given twice is rejected rather than summed or overwritten. A declared size
    above ``core.MAX_DENSE_DIM`` is rejected at the size line, before
    anything is allocated. Indices are ASCII integers and values ASCII
    decimal floats (or inf/nan), as numpy's ``loadtxt`` parses them. Malformed
    input raises ParseError with the first offending 1-based line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split()
    if (
        len(header) != 5
        or header[0] != "%%MatrixMarket"
        or header[1].lower() != "matrix"
        or header[2].lower() != "coordinate"
    ):
        raise ParseError(
            "expected header '%%MatrixMarket matrix coordinate <field> <symmetry>'",
            line=1,
        )
    fld, sym = header[3].lower(), header[4].lower()
    if fld not in _HEADER_FIELDS:
        raise ParseError(f"unsupported field {fld!r}", line=1)
    if sym != "general" and sym not in _MIRROR:
        raise ParseError(f"unsupported symmetry {sym!r}", line=1)
    if sym == "hermitian" and fld != "complex":
        raise ParseError("a hermitian matrix needs the complex field", line=1)
    mirror = _MIRROR.get(sym)

    for lineno, raw in enumerate(lines[1:], 2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError("size line must be 'rows cols nnz'", line=lineno)
        try:
            rows, cols, expected_nnz = (int(x) for x in parts)
        except ValueError:
            raise ParseError("size line must contain integers", line=lineno)
        if rows < 1 or cols < 1 or expected_nnz < 0:
            raise ParseError("invalid matrix dimensions", line=lineno)
        if max(rows, cols) > core.MAX_DENSE_DIM:
            raise ParseError(
                f"declared size {rows}x{cols} exceeds the dense limit"
                f" {core.MAX_DENSE_DIM}",
                line=lineno,
            )
        if mirror and rows != cols:
            raise ParseError(f"a {sym} matrix must be square", line=lineno)
        break
    else:
        raise ParseError("missing size line", line=len(lines))

    # the entry lines, without blank and comment lines, and their line numbers
    body = [raw.strip() for raw in lines[lineno:]]
    numbers = [n for n, s in enumerate(body, lineno + 1) if s and s[0] != "%"]
    if len(numbers) < len(body):
        body = [body[n - lineno - 1] for n in numbers]
    dtype = _ENTRY_DTYPES[fld]
    try:
        rec = _load_entries(body, dtype)
        unparsable = None
    except ValueError:
        # name the first line that does not parse; the lines before it do
        unparsable = next(n for n, s in enumerate(body) if not _parses(s, dtype))
        rec = _load_entries(body[:unparsable], dtype)

    i, j = rec["i"], rec["j"]
    if fld == "complex":
        vals = np.empty(rec.size, dtype=complex)
        vals.real, vals.imag = rec["re"], rec["im"]
    else:
        vals = rec["re"]
    in_range = (i >= 1) & (i <= rows) & (j >= 1) & (j <= cols)
    upper = (i < j) if mirror else np.zeros(rec.size, dtype=bool)
    if sym == "skew-symmetric":
        bad_diagonal = i == j
    elif sym == "hermitian":
        bad_diagonal = (i == j) & (vals.imag != 0)
    else:
        bad_diagonal = np.zeros(rec.size, dtype=bool)
    at, mirror_at = (i - 1) * cols + j - 1, (j - 1) * cols + i - 1
    order = np.argsort(at, kind="stable")
    repeated = np.zeros(rec.size, dtype=bool)
    repeated[order[1:]] = at[order[1:]] == at[order[:-1]]
    failing = ~in_range | upper | bad_diagonal | repeated
    if failing.any():
        r = int(np.argmax(failing))
        if not in_range[r]:
            message = f"index ({i[r]}, {j[r]}) out of range"
        elif upper[r]:
            message = (
                f"entry ({i[r]}, {j[r]}) is above the diagonal; a {sym} file"
                " stores the lower triangle only"
            )
        elif bad_diagonal[r]:
            message = (
                f"diagonal entry ({i[r]}, {j[r]}) of a {sym} matrix must be "
                + ("real" if sym == "hermitian" else "absent")
            )
        else:
            first = numbers[int(np.argmax(at == at[r]))]
            message = f"duplicate entry ({i[r]}, {j[r]}); already set by line {first}"
        raise ParseError(message, line=numbers[r])
    if unparsable is not None:
        raise ParseError(
            _unparsable_message(body[unparsable], len(dtype), fld),
            line=numbers[unparsable],
        )
    if len(body) != expected_nnz:
        raise ParseError(
            f"entry count {len(body)} does not match declared {expected_nnz}",
            line=len(lines),
        )
    M = np.zeros((rows, cols), dtype=complex)
    flat = M.reshape(-1)  # a view: entry (i, j) is flat[(i-1)·cols + j-1]
    flat[at] = vals
    if mirror:
        off = i != j
        flat[mirror_at[off]] = mirror(vals[off])
    return M


def write_matrix_market(M: np.ndarray) -> str:
    """Serialise a dense matrix as coordinate Matrix Market text that
    read_matrix_market parses back to the same matrix: the nonzeros in
    row-major order, each value as the repr of its real and imaginary
    parts."""
    M = core.as_matrix(M)
    rows, cols = np.nonzero(M)
    vals = M[rows, cols]
    lines = [
        "%%MatrixMarket matrix coordinate complex general",
        f"{M.shape[0]} {M.shape[1]} {rows.size}",
    ]
    lines += [
        f"{i + 1} {j + 1} {real!r} {imag!r}"
        for i, j, real, imag in zip(
            rows.tolist(), cols.tolist(), vals.real.tolist(), vals.imag.tolist()
        )
    ]
    return "\n".join(lines) + "\n"


def read_vector(path: str) -> np.ndarray:
    """JSON array of numbers or [real, imag] pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(data, list) or not data:
        raise ParseError("vector file must hold a nonempty JSON array", line=1)
    out = np.zeros(len(data), dtype=complex)
    for idx, item in enumerate(data):
        if isinstance(item, (int, float)):
            out[idx] = item
        elif (
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(x, (int, float)) for x in item)
        ):
            out[idx] = complex(item[0], item[1])
        else:
            raise ParseError(f"entry {idx} must be a number or [real, imag] pair")
    return out


@dataclass
class RunConfig:
    command: str
    matrix_path: str
    rhs_path: str | None = None
    x0_path: str | None = None
    method: str = "jacobi"
    a: float | None = None
    N: int = solvers.DEFAULT_N
    L: float | None = None
    t: str | float | None = "auto"
    delta: float = 1e-3
    epsilon: float = 0.1
    alpha0_sq: float = 0.5
    output_path: str | None = None
    override_convergence: bool = False
    show_overlaps: bool = False
    timing: bool = False


def _pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _base_report(cfg: RunConfig, M: np.ndarray) -> dict:
    return {
        "command": cfg.command,
        "version": __version__,
        "matrix_mm": write_matrix_market(M),
        "wall_time_seconds": None,
    }


def _grid_section(grid: engine.Grid) -> dict:
    return {"N": grid.N, "L": grid.L}


# RunConfig fields set from a float option (text from the command line, a
# float once _check_numbers has run); the option is --<field>, in lower case
# with "-" for "_"
_FLOAT_FIELDS = ("a", "L", "t", "delta", "epsilon", "alpha0_sq")


def _check_numbers(cfg: RunConfig) -> None:
    """Parse each numeric option once and store the number. Reject a float
    option that does not parse or is not finite (NaN and infinity are not
    JSON numbers), an assumed overlap --alpha0-sq outside (0, 1], and a
    grid size --n that is not a power of two in [4, 65536] (the rule of
    ``make_grid``). The command line passes these options as text, so a
    typo gets the JSON error document."""
    text = str(cfg.N).strip()
    N = int(text) if re.fullmatch(r"0*[0-9]{1,5}", text) else 0
    if not engine.valid_mode_count(N):
        raise InvalidInputError(
            f"--n must be a power of two in [4, 65536], got {cfg.N!r}"
        )
    cfg.N = N
    for name in _FLOAT_FIELDS:
        value = getattr(cfg, name)
        if value is None or (name == "t" and value == "auto"):
            continue
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number):
            option = "--" + name.lower().replace("_", "-")
            raise InvalidInputError(f"{option} must be a finite number, got {value!r}")
        setattr(cfg, name, number)
    if not 0.0 < cfg.alpha0_sq <= 1.0:
        raise InvalidInputError(
            f"--alpha0-sq must be in (0, 1], got {cfg.alpha0_sq!r}"
        )


def _explicit_time(cfg: RunConfig) -> float | None:
    return None if cfg.t in (None, "auto") else cfg.t


def _propagation_section(rep) -> dict:
    """How ``propagate`` produced the answer, from a ``RecoveredState`` or a
    ``LinearSolveReport``: the start profile, the modes it evolved, the
    relative norm truncation dropped and the ``evolve`` path."""
    return {
        "profile": rep.profile.name,
        "profile_negative_mass": rep.profile.negative_mass,
        "modes_evolved": rep.modes_evolved,
        "dropped_norm": rep.dropped_norm,
        "path": rep.path,
    }


def run_solve(cfg: RunConfig) -> dict:
    A = read_matrix_market(cfg.matrix_path)
    if cfg.rhs_path is None:
        raise InvalidInputError("solve requires --rhs")
    b = read_vector(cfg.rhs_path)
    y0 = read_vector(cfg.x0_path) if cfg.x0_path else None
    rep = solvers.quantum_jacobi_solve(
        A,
        b,
        y0=y0,
        delta=cfg.delta,
        method=cfg.method,
        a=cfg.a,
        t=_explicit_time(cfg),
        N=cfg.N,
        L=cfg.L,
        override_convergence=cfg.override_convergence,
    )
    out = _base_report(cfg, A)
    out.update(
        {
            "grid": _grid_section(rep.grid),
            "t_used": rep.t_f_used,
            "fidelity": rep.fidelity,
            "residual": rep.residual,
            "success_probability": rep.success_probability,
            "state": _pairs(rep.state),
            "y": _pairs(rep.y_classical),
            "cost": asdict(rep.cost),
            "propagation": _propagation_section(rep),
        }
    )
    if cfg.show_overlaps:
        out["overlaps"] = [float(x) for x in rep.convergence.overlaps]
    return out


def run_eig(cfg: RunConfig) -> dict:
    C = read_matrix_market(cfg.matrix_path)
    x0 = read_vector(cfg.x0_path) if cfg.x0_path else None
    rep = solvers.quantum_power_method(
        C,
        x0=x0,
        epsilon=cfg.epsilon,
        t=_explicit_time(cfg),
        N=cfg.N,
        L=cfg.L,
    )
    lam = rep.eigenvalue_estimate
    out = _base_report(cfg, C)
    out.update(
        {
            "grid": _grid_section(rep.grid),
            "t_used": rep.t_max_used,
            "fidelity": rep.fidelity,
            "success_probability": rep.success_probability,
            "eigenvalue_estimate": [lam.real, lam.imag],
            "eigenvalue_error_bound": rep.eigenvalue_error_bound,
            "state": _pairs(rep.state),
            "cost": asdict(rep.cost),
            "propagation": {"path": rep.path},
        }
    )
    if cfg.show_overlaps:
        out["overlaps"] = [float(x) for x in rep.convergence.overlaps]
    return out


def run_evolve(cfg: RunConfig) -> dict:
    C = read_matrix_market(cfg.matrix_path)
    if cfg.x0_path is None:
        raise InvalidInputError("evolve requires --x0")
    x0 = read_vector(cfg.x0_path)
    t = _explicit_time(cfg)
    if t is None:
        raise InvalidInputError("evolve requires an explicit --t")
    ds = core.split(C)
    L = cfg.L if cfg.L is not None else engine.default_domain_halfwidth(ds.C1h, t)
    grid = engine.make_grid(cfg.N, L)
    rec = engine.propagate(C, x0, t, grid)
    exact = baselines.exact_propagator(C, x0, t)
    exact_unit = exact / np.linalg.norm(exact)
    out = _base_report(cfg, C)
    out.update(
        {
            "grid": _grid_section(grid),
            "t_used": t,
            "fidelity": float(np.abs(np.vdot(exact_unit, rec.state)) ** 2),
            "success_probability": rec.success_probability,
            "state": _pairs(rec.state),
            "x": _pairs(rec.x),
            "propagation": _propagation_section(rec),
        }
    )
    return out


def run_diagnose(cfg: RunConfig) -> dict:
    A = read_matrix_market(cfg.matrix_path)
    s = solvers.build_splitting(A, np.zeros(A.shape[0]), method=cfg.method, a=cfg.a)
    C = core.augment(s.G, s.g)
    drift = C - np.eye(C.shape[0])
    eigvals, steady, gap = core.spectrum(drift, steady_eigenvalue_hint=0j)
    # eig(C - I) is eig(G) - 1 plus the steady 0 from the affine row, so r(G)
    # is the largest |λ + 1| over the other eigenvalues
    rG = float(np.max(np.abs(np.delete(eigvals, steady) + 1.0)))
    sparsity, max_norm = core.sparsity_and_max_norm(drift)
    if gap > solvers.GAP_TIE_TOL:
        t_f = solvers.estimate_tf([cfg.alpha0_sq], gap, cfg.delta)
    else:
        t_f = None
    L = cfg.L if cfg.L is not None else engine.default_domain_halfwidth(
        core.split(C).C1h, t_f if t_f is not None else 0.0
    )
    out = _base_report(cfg, A)
    out.update(
        {
            "diag_dominant": core.is_diagonally_dominant(A),
            "iteration_spectral_radius": rG,
            "gap": gap,
            "eigenvalues": _pairs(eigvals),
            "sparsity": sparsity,
            "max_norm": max_norm,
            "recommended_grid": {"N": cfg.N, "L": L},
            "t_f_predicted": t_f,
            "delta": cfg.delta,
            "alpha0_sq_assumed": cfg.alpha0_sq,
        }
    )
    if t_f is not None:
        out["cost"] = asdict(
            solvers.quantum_cost_estimate(
                C, t_f, epsilon=1.0 / cfg.N,
                overlap=float(np.sqrt(cfg.alpha0_sq)),
            )
        )
    return out


_RUNNERS = {
    "solve": run_solve,
    "eig": run_eig,
    "evolve": run_evolve,
    "diagnose": run_diagnose,
}


def execute(cfg: RunConfig) -> int:
    """Run one command, writing the report (or a machine-readable error
    document) to the configured output. Returns the process exit status."""
    started = time.perf_counter()
    try:
        _check_numbers(cfg)
        report = _RUNNERS[cfg.command](cfg)
        status = 0
    except SchrosimError as exc:
        report = {
            "command": cfg.command,
            "version": __version__,
            "error": {"code": exc.code, "message": str(exc)},
        }
        status = exc.exit_status
    if cfg.timing and "error" not in report:
        report["wall_time_seconds"] = round(time.perf_counter() - started, 3)
    text = json.dumps(report, sort_keys=True, ensure_ascii=False) + "\n"
    if cfg.output_path and cfg.output_path != "-":
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


# a numeric option reaches _check_numbers as text, so that a value that
# does not parse gets the JSON error document rather than click's usage error
_FLOAT = {"type": str, "metavar": "FLOAT"}


def _common_options(f):
    opts = [
        click.option("--matrix", "matrix_path", required=True, type=click.Path()),
        click.option(
            "--n", "N", default=solvers.DEFAULT_N, type=str, metavar="INTEGER",
            show_default=True, help="p-grid modes, a power of two in [4, 65536]",
        ),
        click.option(
            "--l", "L", default=None, **_FLOAT, help="p-domain half-width (auto if omitted)"
        ),
        click.option("--output", "output_path", default=None),
        click.option("--timing", is_flag=True, help="include wall time (breaks byte determinism)"),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Spectral warped-phase simulator for iterative linear algebra."""


@main.command()
@_common_options
@click.option("--rhs", "rhs_path", required=True, type=click.Path())
@click.option("--x0", "x0_path", default=None, type=click.Path())
@click.option("--method", type=click.Choice(["jacobi", "richardson", "damped-jacobi"]), default="jacobi", show_default=True)
@click.option("--a", default=None, **_FLOAT, help="relaxation parameter")
@click.option("--t", default="auto", help="evolution time or 'auto'")
@click.option("--delta", default=1e-3, **_FLOAT, show_default=True)
@click.option("--override-convergence", is_flag=True)
@click.option("--show-overlaps", is_flag=True)
def solve(**kw):
    """Prepare the steady state encoding the solution of Ay = b."""
    kw["method"] = kw["method"].replace("-", "_")
    sys.exit(execute(RunConfig(command="solve", **kw)))


@main.command()
@_common_options
@click.option("--x0", "x0_path", default=None, type=click.Path())
@click.option("--t", default="auto", help="evolution time or 'auto'")
@click.option("--epsilon", default=0.1, **_FLOAT, show_default=True)
@click.option("--show-overlaps", is_flag=True)
def eig(**kw):
    """Estimate the dominant eigenpair of C."""
    sys.exit(execute(RunConfig(command="eig", **kw)))


@main.command()
@_common_options
@click.option("--x0", "x0_path", required=True, type=click.Path())
@click.option("--t", required=True, **_FLOAT)
def evolve(**kw):
    """Evolve x0 under the drift of C for an explicit time."""
    sys.exit(execute(RunConfig(command="evolve", **kw)))


@main.command()
@_common_options
@click.option("--method", type=click.Choice(["jacobi", "richardson", "damped-jacobi"]), default="jacobi", show_default=True)
@click.option("--a", default=None, **_FLOAT)
@click.option("--delta", default=1e-3, **_FLOAT, show_default=True)
@click.option("--alpha0-sq", default=0.5, **_FLOAT, show_default=True, help="assumed steady-mode overlap for the stopping-time prediction")
def diagnose(**kw):
    """Spectral and convergence diagnostics; no evolution run."""
    kw["method"] = kw["method"].replace("-", "_")
    sys.exit(execute(RunConfig(command="diagnose", **kw)))


if __name__ == "__main__":
    main()
