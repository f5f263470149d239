"""Differential tests of the Matrix Market reader and writer against the
per-line reference in ``mm_reference``.

Every generated file must read to a bit-equal matrix, or fail with the same
ParseError message and line, in both readers. Excluded is the one grammar
change: tokens with ``_`` digit separators or non-ASCII digits, which
Python's ``int``/``float`` accept and the package's reader rejects, are
never generated.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import mm_reference
from schrosim import cli
from schrosim.errors import ParseError

SYMMETRIES = ["general", "symmetric", "hermitian", "skew-symmetric"]
SEPARATORS = [" ", "  ", "\t", " \t", "\xa0", " ", "\x1f"]
MARGINS = ["", "", " ", "\t", "\xa0"]
COMMENTS = ["%", "% a comment", "  %% indented", "", "   ", "\t"]
SPECIAL_VALUES = [
    "0", "-0", "-0.0", "+.5", "5.", "1E5", "1e-310", "1e400", "-1e400",
    "inf", "-Infinity", "+INF", "nan", "-nan", "NaN",
]
BAD_TOKENS = [
    "x", "1.0", "1e0", "--1", "+-1", "0x1", "2,5", "1e", "1.5.2", "1j",
    "nan(1)", "#1", "'1'",
]
BAD_INDICES = [0, -1, 2**63, 10**25, -(10**25)]

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def float_tokens(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(SPECIAL_VALUES))
    x = draw(finite)
    fmt = draw(st.sampled_from(["{!r}", "{:e}", "{:.17g}", "{:.3f}", "{:+.6E}"]))
    return fmt.format(x)


@st.composite
def index_tokens(draw, k):
    return draw(st.sampled_from(["{}", "+{}", "0{}", "00{}"])).format(k)


@st.composite
def mm_texts(draw):
    """A Matrix Market file over either field and any symmetry, with
    comment and blank lines and up to three injected faults."""
    sym = draw(st.sampled_from(SYMMETRIES))
    fld = "complex" if sym == "hermitian" else draw(st.sampled_from(["real", "complex"]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5)) if sym == "general" else rows
    cells = [
        (i, j)
        for i in range(1, rows + 1)
        for j in range(1, cols + 1)
        if sym == "general" or i > j or (i == j and sym != "skew-symmetric")
    ]
    coords = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []

    def entry(i, j, diagonal_imag=None):
        tokens = [draw(index_tokens(i)), draw(index_tokens(j)), draw(float_tokens())]
        if fld == "complex":
            if diagonal_imag is not None:
                tokens.append(diagonal_imag)
            elif sym == "hermitian" and i == j:
                tokens.append(draw(st.sampled_from(["0", "0.0", "-0.0", "+0e5"])))
            else:
                tokens.append(draw(float_tokens()))
        return tokens

    entries = [entry(i, j) for i, j in coords]
    declared = len(entries)
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(
            ["short", "long", "token", "range", "diagonal", "duplicate",
             "mirror", "count"]
        ))
        at = draw(st.integers(0, len(entries)))
        if fault == "count":
            declared += draw(st.sampled_from([-2, -1, 1, 3]))
        elif fault == "diagonal":
            k = draw(st.integers(1, min(rows, cols)))
            entries.insert(at, entry(k, k, diagonal_imag="0.5"))
            declared += 1
        elif fault in ("duplicate", "mirror") and coords:
            i, j = draw(st.sampled_from(coords))
            entries.insert(at, entry(*((j, i) if fault == "mirror" else (i, j))))
            declared += 1
        elif entries:
            # a faulted line keeps at least one token
            tokens = entries[min(at, len(entries) - 1)]
            if fault == "short":
                del tokens[max(len(tokens) - 1, 1):]
            elif fault == "long":
                tokens.append(draw(st.sampled_from(["1.0", "%", "% c"])))
            elif fault == "token":
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                    st.sampled_from(BAD_TOKENS)
                )
            else:  # range
                bad = draw(st.sampled_from(BAD_INDICES + [rows + 1, cols + 1]))
                tokens[draw(st.integers(0, min(1, len(tokens) - 1)))] = str(bad)

    body = [f"{rows} {cols} {declared}"] + [
        draw(st.sampled_from(MARGINS))
        + draw(st.sampled_from(SEPARATORS)).join(tokens)
        + draw(st.sampled_from(MARGINS))
        for tokens in entries
    ]
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(COMMENTS)))
    lines = [f"%%MatrixMarket matrix coordinate {fld} {sym}"] + body
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def outcome(reader, path):
    try:
        M = reader(path)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("matrix", M.shape, M.dtype.str, M.tobytes())


@pytest.fixture(scope="module")
def mm_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mm") / "m.mtx")


@settings(max_examples=300, deadline=None)
@given(text=mm_texts())
def test_reader_matches_reference(mm_path, text):
    with open(mm_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert outcome(cli.read_matrix_market, mm_path) == outcome(
        mm_reference.read_matrix_market, mm_path
    )


parts = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e300]) | finite


@settings(max_examples=100, deadline=None)
@given(
    M=arrays(
        np.complex128,
        array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.builds(complex, parts, parts),
    )
)
def test_write_read_round_trip(mm_path, M):
    M = np.array(M, dtype=complex)
    text = cli.write_matrix_market(M)
    assert text == mm_reference.write_matrix_market(M)
    with open(mm_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    # entries equal to zero (either sign) are not written and read back +0
    expected = np.where(M == 0, 0j, M)
    assert cli.read_matrix_market(mm_path).tobytes() == expected.tobytes()


def test_writer_matches_reference_on_a_dense_matrix(rng):
    M = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    M[rng.random((40, 40)) < 0.3] = 0.0
    M[0, 0] = complex(-0.0, 1.0)
    M[1, 1] = complex(2.0, -0.0)
    M[2, 2] = complex(-0.0, -0.0)
    assert cli.write_matrix_market(M) == mm_reference.write_matrix_market(M)
    assert cli.write_matrix_market(M.real) == mm_reference.write_matrix_market(
        M.real
    )
    assert len(cli.write_matrix_market(M).splitlines()) == 2 + np.count_nonzero(M)
