"""Reference Matrix Market reader and writer for the differential tests.

A per-line Python reader and a per-entry writer, kept verbatim from before
``schrosim.cli`` moved to numpy's ``loadtxt`` parser and a vectorised
writer. Test-only: ``tests/test_matrix_market.py`` checks that the package
reads every file to the same matrix or the same error, and writes the same
text.
"""

from array import array

import numpy as np

from schrosim import core
from schrosim.errors import ParseError

_HEADER_FIELDS = {"real", "complex"}
# symmetry -> the value stored at (j, i) for an entry a at (i, j)
_MIRROR = {
    "symmetric": lambda a: a,
    "hermitian": lambda a: a.conjugate(),
    "skew-symmetric": lambda a: -a,
}


def read_matrix_market(path: str) -> np.ndarray:
    """Parse a coordinate-format Matrix Market file into a dense matrix.

    Accepts real|complex fields and general, symmetric, hermitian (complex
    field only) and skew-symmetric symmetry. The last three must be square,
    store the lower triangle only (i >= j) and are mirrored: (j, i) gets a,
    conj(a) or -a. A hermitian diagonal entry must be real, and a
    skew-symmetric file stores no diagonal. A coordinate given twice is
    rejected rather than summed or overwritten. A declared size
    above ``core.MAX_DENSE_DIM`` is rejected at the size line, before
    anything is allocated. Malformed input raises ParseError with the
    offending 1-based line number.
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

    lineno = 1
    size = None
    M = None
    first_line = None  # per stored coordinate, the line that set it (0: none)
    seen_nnz = 0
    expected_nnz = 0
    for raw in lines[1:]:
        lineno += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if size is None:
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
            size = (rows, cols)
            M = np.zeros(size, dtype=complex)
            flat = M.reshape(-1)  # a view: entry (i, j) is flat[(i-1)·cols + j-1]
            first_line = array("i", [0]) * M.size
            continue
        want = 4 if fld == "complex" else 3
        if len(parts) != want:
            raise ParseError(
                f"expected {want} fields for a {fld} entry", line=lineno
            )
        try:
            i, j = int(parts[0]), int(parts[1])
            if fld == "complex":
                val = complex(float(parts[2]), float(parts[3]))
            else:
                val = float(parts[2])
        except ValueError:
            raise ParseError("malformed entry", line=lineno)
        if not (1 <= i <= size[0] and 1 <= j <= size[1]):
            raise ParseError(f"index ({i}, {j}) out of range", line=lineno)
        if mirror and i < j:
            raise ParseError(
                f"entry ({i}, {j}) is above the diagonal; a {sym} file"
                " stores the lower triangle only",
                line=lineno,
            )
        if i == j and (
            sym == "skew-symmetric" or (sym == "hermitian" and val.imag != 0)
        ):
            raise ParseError(
                f"diagonal entry ({i}, {j}) of a {sym} matrix must be "
                + ("real" if sym == "hermitian" else "absent"),
                line=lineno,
            )
        at, mirror_at = (i - 1) * cols + j - 1, (j - 1) * cols + i - 1
        if first_line[at]:
            raise ParseError(
                f"duplicate entry ({i}, {j}); already set by line {first_line[at]}",
                line=lineno,
            )
        first_line[at] = lineno
        if mirror and i != j:
            flat[mirror_at] = mirror(val)
        flat[at] = val
        seen_nnz += 1
    if size is None:
        raise ParseError("missing size line", line=lineno)
    if seen_nnz != expected_nnz:
        raise ParseError(
            f"entry count {seen_nnz} does not match declared {expected_nnz}",
            line=lineno,
        )
    return M


def write_matrix_market(M: np.ndarray) -> str:
    """Serialise a dense matrix as coordinate Matrix Market text that
    read_matrix_market parses back to the same matrix."""
    M = core.as_matrix(M)
    entries = [
        (i + 1, j + 1, M[i, j])
        for i in range(M.shape[0])
        for j in range(M.shape[1])
        if M[i, j] != 0
    ]
    lines = [
        "%%MatrixMarket matrix coordinate complex general",
        f"{M.shape[0]} {M.shape[1]} {len(entries)}",
    ]
    lines += [f"{i} {j} {float(v.real)!r} {float(v.imag)!r}" for i, j, v in entries]
    return "\n".join(lines) + "\n"
