import json
import re
import warnings
from pathlib import Path

import click
import numpy as np
import pytest

from schrosim import cli, core, schrodingerization as engine
from schrosim.cli import RunConfig
from schrosim.errors import ParseError

import mm_reference
from conftest import random_dominant


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def mm_real(tmp_path, name, M, symmetry="general"):
    M = np.asarray(M, dtype=float)
    entries = [
        (i + 1, j + 1, M[i, j])
        for i in range(M.shape[0])
        for j in range(M.shape[1])
        if M[i, j] != 0 and (symmetry == "general" or j >= i)
    ]
    lines = [
        f"%%MatrixMarket matrix coordinate real {symmetry}",
        f"{M.shape[0]} {M.shape[1]} {len(entries)}",
    ] + [f"{i} {j} {float(v)!r}" for i, j, v in entries]
    return write(tmp_path, name, "\n".join(lines) + "\n")


def vec(tmp_path, name, v):
    return write(tmp_path, name, json.dumps(list(v)))


class TestReadMatrixMarket:
    def test_general(self, tmp_path):
        path = write(
            tmp_path,
            "a.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 2.0\n1 2 1.0\n2 2 3.0\n",
        )
        assert np.allclose(cli.read_matrix_market(path), [[2.0, 1.0], [0.0, 3.0]])

    def test_symmetric_mirrors(self, tmp_path):
        path = write(
            tmp_path,
            "s.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 3.0\n",
        )
        assert np.allclose(cli.read_matrix_market(path), [[2.0, 1.0], [1.0, 3.0]])

    def test_complex_field(self, tmp_path):
        path = write(
            tmp_path,
            "c.mtx",
            "%%MatrixMarket matrix coordinate complex general\n"
            "1 1 1\n1 1 0.5 -0.25\n",
        )
        assert cli.read_matrix_market(path)[0, 0] == 0.5 - 0.25j

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(
            tmp_path,
            "k.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n1 1 1\n1 1 4.0\n",
        )
        assert cli.read_matrix_market(path)[0, 0] == 4.0

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "bad.mtx", "2 2 1\n1 1 2.0\n")
        with pytest.raises(ParseError) as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 1

    def test_malformed_entry_reports_line(self, tmp_path):
        path = write(
            tmp_path,
            "bad2.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 x 2.0\n",
        )
        with pytest.raises(ParseError) as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("entry", ["1.0 1 2.0", "1 1e0 2.0", "1 1_0 2.0"])
    def test_non_integer_index_is_parse_error(self, tmp_path, entry):
        path = write(
            tmp_path,
            "idx.mtx",
            f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n",
        )
        with pytest.raises(ParseError, match="malformed entry") as exc:
            cli.read_matrix_market(path)
        assert exc.value.code == "parse-error" and exc.value.line == 3

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("index", ["2.7", "1.0", "1e0"])
    def test_float_index_rejected_where_loadtxt_only_warns(
        self, tmp_path, monkeypatch, index
    ):
        # numpy before 2.0 parses a float token in an integer column as
        # int(float(token)) with a DeprecationWarning; outside pytest that
        # warning is hidden, as the filter mark above makes it here
        real_loadtxt = np.loadtxt

        def old_loadtxt(lines, dtype=float, **kwargs):
            dtype = np.dtype(dtype)
            if dtype.names:
                fixed = []
                for line in lines:
                    parts = line.split()
                    for k, name in enumerate(dtype.names[: len(parts)]):
                        if dtype[name].kind == "i" and not parts[k].isdigit():
                            warnings.warn("integer via float", DeprecationWarning)
                            parts[k] = str(int(float(parts[k])))
                    fixed.append(" ".join(parts))
                lines = fixed
            return real_loadtxt(lines, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", old_loadtxt)
        entry = f"{index} 1 5.0"
        rec = np.loadtxt([entry], dtype=cli._ENTRY_DTYPES["real"], comments=None)
        assert rec["i"] == int(float(index))  # the stand-in accepts it
        path = write(
            tmp_path,
            "idx.mtx",
            f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n",
        )
        with pytest.raises(ParseError, match="malformed entry") as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 3

    def test_nnz_mismatch(self, tmp_path):
        path = write(
            tmp_path,
            "bad3.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 2.0\n",
        )
        with pytest.raises(ParseError):
            cli.read_matrix_market(path)

    def test_index_out_of_range(self, tmp_path):
        path = write(
            tmp_path,
            "bad4.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n3 1 2.0\n",
        )
        with pytest.raises(ParseError) as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "symmetry, entries, again, match",
        [
            ("general", "1 1 2.0\n2 2 3.0\n1 1 5.0\n", 5, "already set by line 3"),
            # the mirror of line 3 lies above the diagonal, which the spec
            # does not allow in a symmetric file
            (
                "symmetric", "2 1 1.0\n1 1 2.0\n1 2 7.0\n", 5,
                r"\(1, 2\) is above the diagonal",
            ),
            ("symmetric", "1 1 2.0\n1 1 2.0\n2 2 3.0\n", 4, "already set by line 3"),
        ],
        ids=["general-repeat", "symmetric-mirror", "symmetric-repeat"],
    )
    def test_duplicate_coordinate_rejected(
        self, tmp_path, symmetry, entries, again, match
    ):
        # the first entry, on line 3, is the one repeated on line `again`
        path = write(
            tmp_path,
            "dup.mtx",
            f"%%MatrixMarket matrix coordinate real {symmetry}\n2 2 3\n" + entries,
        )
        with pytest.raises(ParseError, match=match) as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == again

    @pytest.mark.parametrize("symmetry", ["symmetric", "hermitian", "skew-symmetric"])
    def test_upper_triangle_entry_rejected(self, tmp_path, symmetry):
        # a mirrored file stores i >= j only; the first entry above the
        # diagonal is named, even when its mirror was never given
        path = write(
            tmp_path,
            "upper.mtx",
            f"%%MatrixMarket matrix coordinate complex {symmetry}\n"
            "3 3 3\n2 1 1.0 0.5\n3 2 2.0 0.0\n1 3 4.0 0.0\n",
        )
        with pytest.raises(
            ParseError,
            match=rf"entry \(1, 3\) is above the diagonal; a {symmetry} file",
        ) as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 5
        with pytest.raises(ParseError, match="above the diagonal") as ref:
            mm_reference.read_matrix_market(path)
        assert ref.value.line == 5

    def test_general_upper_triangle_entry_accepted(self, tmp_path):
        path = write(
            tmp_path,
            "upper.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 4.0\n",
        )
        assert np.array_equal(cli.read_matrix_market(path), [[0.0, 4.0], [0.0, 0.0]])

    def test_general_transposed_pair_is_not_a_duplicate(self, tmp_path):
        path = write(
            tmp_path,
            "pair.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 1.0\n2 1 4.0\n",
        )
        assert np.allclose(cli.read_matrix_market(path), [[0.0, 1.0], [4.0, 0.0]])

    def test_non_square_symmetric_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "ns.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n",
        )
        with pytest.raises(ParseError, match="must be square") as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 2

    def test_declared_size_over_cap_rejected_before_allocation(self, tmp_path, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np, "zeros", no_alloc)
        big = core.MAX_DENSE_DIM + 1
        for rows, cols in ((100000, 100000), (big, 1), (1, big)):
            path = write(
                tmp_path,
                "big.mtx",
                "%%MatrixMarket matrix coordinate real general\n"
                f"{rows} {cols} 1\n1 1 1.0\n",
            )
            with pytest.raises(ParseError, match="exceeds the dense limit") as exc:
                cli.read_matrix_market(path)
            assert exc.value.line == 2


    def test_hermitian_mirrors_conjugate(self, tmp_path):
        path = write(
            tmp_path,
            "h.mtx",
            "%%MatrixMarket matrix coordinate complex hermitian\n"
            "2 2 3\n1 1 2.0 0.0\n2 1 1.0 0.5\n2 2 3.0 0.0\n",
        )
        M = cli.read_matrix_market(path)
        assert np.array_equal(M, [[2.0, 1.0 - 0.5j], [1.0 + 0.5j, 3.0]])
        # exactly Hermitian, so C2h is exactly zero: the one-eigh engine path
        assert not core.split(M).C2h.any()

    def test_skew_symmetric_mirrors_negated(self, tmp_path):
        path = write(
            tmp_path,
            "k.mtx",
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "3 3 2\n2 1 1.5\n3 2 -2.0\n",
        )
        assert np.array_equal(
            cli.read_matrix_market(path),
            [[0.0, -1.5, 0.0], [1.5, 0.0, 2.0], [0.0, -2.0, 0.0]],
        )

    @pytest.mark.parametrize(
        "header, entry, match",
        [
            ("complex hermitian", "2 2 3.0 0.5", "must be real"),
            ("real skew-symmetric", "2 2 0.0", "must be absent"),
        ],
        ids=["hermitian-complex-diagonal", "skew-symmetric-diagonal"],
    )
    def test_bad_diagonal_rejected(self, tmp_path, header, entry, match):
        first = "2 1 1.0 0.0" if header.startswith("complex") else "2 1 1.0"
        path = write(
            tmp_path,
            "diag.mtx",
            f"%%MatrixMarket matrix coordinate {header}\n2 2 2\n{first}\n{entry}\n",
        )
        with pytest.raises(ParseError, match=match) as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 4

    def test_real_hermitian_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "rh.mtx",
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 2.0\n",
        )
        with pytest.raises(ParseError, match="complex field") as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("symmetry", ["hermitian", "skew-symmetric"])
    def test_mirrored_duplicate_and_non_square_rejected(self, tmp_path, symmetry):
        path = write(
            tmp_path,
            "dup.mtx",
            f"%%MatrixMarket matrix coordinate complex {symmetry}\n"
            "2 2 2\n2 1 1.0 0.5\n1 2 1.0 -0.5\n",
        )
        # the mirror of line 3 is an entry above the diagonal
        with pytest.raises(ParseError, match=r"\(1, 2\) is above the diagonal") as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 4
        path = write(
            tmp_path,
            "ns.mtx",
            f"%%MatrixMarket matrix coordinate complex {symmetry}\n"
            "2 3 1\n2 1 1.0 0.5\n",
        )
        with pytest.raises(ParseError, match="must be square") as exc:
            cli.read_matrix_market(path)
        assert exc.value.line == 2

    def test_hermitian_file_eig_takes_one_eigh_path(self, tmp_path, monkeypatch):
        def no_tridiagonalisation(*args, **kwargs):
            raise AssertionError("a Hermitian C was reduced mode by mode")

        monkeypatch.setattr(engine.lapack, "zhetrd", no_tridiagonalisation)
        path = write(
            tmp_path,
            "h.mtx",
            "%%MatrixMarket matrix coordinate complex hermitian\n3 3 5\n"
            "1 1 0.9 0.0\n2 1 0.05 -0.05\n2 2 0.5 0.0\n3 2 0.0 0.02\n"
            "3 3 0.3 0.0\n",
        )
        cfg = RunConfig(
            command="eig",
            matrix_path=path,
            x0_path=vec(tmp_path, "x0.json", [3.0 ** -0.5] * 3),
        )
        out = cli.run_eig(cfg)
        top = np.linalg.eigvalsh(cli.read_matrix_market(path))[-1]
        assert abs(out["eigenvalue_estimate"][0] - top) <= 0.1


class TestWriteMatrixMarket:
    def test_round_trip(self, tmp_path, rng):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        M[0, 1] = 0.0
        path = write(tmp_path, "rt.mtx", cli.write_matrix_market(M))
        assert np.array_equal(cli.read_matrix_market(path), M)


class TestReadVector:
    def test_real_numbers(self, tmp_path):
        path = vec(tmp_path, "v.json", [1.0, 2])
        assert np.array_equal(cli.read_vector(path), [1.0, 2.0])

    def test_complex_pairs(self, tmp_path):
        path = write(tmp_path, "v.json", "[[1.0, -0.5], 2.0]")
        assert np.array_equal(cli.read_vector(path), [1.0 - 0.5j, 2.0])

    def test_bad_json(self, tmp_path):
        path = write(tmp_path, "v.json", "[1.0,")
        with pytest.raises(ParseError):
            cli.read_vector(path)

    def test_bad_entry(self, tmp_path):
        path = write(tmp_path, "v.json", '[1.0, "x"]')
        with pytest.raises(ParseError):
            cli.read_vector(path)


class TestRunSolve:
    def test_worked_instance(self, tmp_path):
        cfg = RunConfig(
            command="solve",
            matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]]),
            rhs_path=vec(tmp_path, "b.json", [1.0, 2.0]),
        )
        out = cli.run_solve(cfg)
        y = np.array([complex(*p) for p in out["y"]])
        assert np.max(np.abs(y.real - [0.2, 0.6])) <= 1e-2
        assert out["residual"] <= 1e-2
        assert out["fidelity"] >= 0.999

    def test_reports_profile_and_truncation(self, tmp_path):
        cfg = RunConfig(
            command="solve",
            matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]]),
            rhs_path=vec(tmp_path, "b.json", [1.0, 2.0]),
        )
        section = cli.run_solve(cfg)["propagation"]
        assert section["profile"] == engine.SMOOTH.name
        assert section["profile_negative_mass"] == engine.SMOOTH.negative_mass
        assert 0 < section["modes_evolved"] < 512
        assert 0.0 < section["dropped_norm"] <= engine.TRUNCATION_EPS

    def test_error_report_zero_diagonal(self, tmp_path):
        cfg = RunConfig(
            command="solve",
            matrix_path=mm_real(tmp_path, "A.mtx", [[0.0, 1.0], [1.0, 2.0]]),
            rhs_path=vec(tmp_path, "b.json", [1.0, 1.0]),
            output_path=str(tmp_path / "out.json"),
        )
        status = cli.execute(cfg)
        report = json.loads((tmp_path / "out.json").read_text())
        assert status == 5
        assert report["error"]["code"] == "zero-diagonal"

    def test_defective_eigenbasis_is_numerical_failure(self, tmp_path):
        # upper-triangular A: the Jacobi G is nilpotent and the drift's
        # eigenbasis has condition number about 5e15
        cfg = RunConfig(
            command="solve",
            matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [0.0, 3.0]]),
            rhs_path=vec(tmp_path, "b.json", [1.0, 2.0]),
            output_path=str(tmp_path / "out.json"),
        )
        status = cli.execute(cfg)
        report = json.loads((tmp_path / "out.json").read_text())
        assert status == 12
        assert report["error"]["code"] == "numerical-failure"
        assert "numerically defective" in report["error"]["message"]

    def test_nearly_triangular_system_still_solves(self, tmp_path):
        # A[1, 0] = 1e-3 gives an eigenbasis of condition number about 41
        cfg = RunConfig(
            command="solve",
            matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1e-3, 3.0]]),
            rhs_path=vec(tmp_path, "b.json", [1.0, 2.0]),
        )
        out = cli.run_solve(cfg)
        assert out["residual"] <= 1e-2
        assert out["fidelity"] >= 0.999
        assert out["propagation"]["path"] == "real"

    def test_error_report_convergence_unsafe(self, tmp_path):
        cfg = RunConfig(
            command="solve",
            matrix_path=mm_real(tmp_path, "A.mtx", [[1.0, 2.0], [3.0, 1.0]]),
            rhs_path=vec(tmp_path, "b.json", [1.0, 1.0]),
            output_path=str(tmp_path / "out.json"),
        )
        status = cli.execute(cfg)
        report = json.loads((tmp_path / "out.json").read_text())
        assert status == 6
        assert report["error"]["code"] == "convergence-unsafe"


class TestRunEig:
    def test_no_gap_error(self, tmp_path):
        cfg = RunConfig(
            command="eig",
            matrix_path=mm_real(tmp_path, "C.mtx", np.diag([0.9, 0.9, 0.5])),
            output_path=str(tmp_path / "out.json"),
        )
        status = cli.execute(cfg)
        report = json.loads((tmp_path / "out.json").read_text())
        assert status == 7
        assert report["error"]["code"] == "no-gap"

    def test_diagonal_instance(self, tmp_path):
        cfg = RunConfig(
            command="eig",
            matrix_path=mm_real(tmp_path, "C.mtx", np.diag([0.9, 0.5])),
            x0_path=vec(tmp_path, "x0.json", [2.0 ** -0.5, 2.0 ** -0.5]),
        )
        out = cli.run_eig(cfg)
        assert out["t_used"] == pytest.approx(6.6957, abs=1e-3)
        assert abs(out["eigenvalue_estimate"][0] - 0.9) <= 0.1


class TestRunEvolve:
    def test_scalar_decay(self, tmp_path):
        cfg = RunConfig(
            command="evolve",
            matrix_path=mm_real(tmp_path, "C.mtx", [[0.5]]),
            x0_path=vec(tmp_path, "x0.json", [1.0]),
            t=1.0,
            N=256,
        )
        out = cli.run_evolve(cfg)
        assert out["x"][0][0] == pytest.approx(np.exp(-0.5), abs=1e-3)
        assert out["fidelity"] >= 1 - 1e-6

    def test_complex_non_normal_reports_the_smooth_profile(self, tmp_path):
        # the general path reduces only the modes the smooth start fills
        path = write(
            tmp_path, "C.mtx",
            "%%MatrixMarket matrix coordinate complex general\n3 3 6\n"
            "1 1 0.6 0.0\n1 2 0.1 0.2\n2 1 0.0 -0.1\n2 2 0.4 0.1\n3 1 0.2 0.0\n"
            "3 3 0.5 -0.3\n",
        )
        cfg = RunConfig(
            command="evolve",
            matrix_path=path,
            x0_path=vec(tmp_path, "x0.json", [0.6, 0.0, 0.8]),
            t=2.0,
            N=256,
        )
        out = cli.run_evolve(cfg)
        section = out["propagation"]
        assert section["path"] == "general"
        assert section["profile"] == engine.SMOOTH.name
        assert section["profile_negative_mass"] == engine.SMOOTH.negative_mass
        assert 0 < section["modes_evolved"] < 256
        assert 0.0 < section["dropped_norm"] <= engine.TRUNCATION_EPS
        assert out["fidelity"] >= 1 - 1e-9

    def test_requires_time(self, tmp_path):
        cfg = RunConfig(
            command="evolve",
            matrix_path=mm_real(tmp_path, "C.mtx", [[0.5]]),
            x0_path=vec(tmp_path, "x0.json", [1.0]),
            t="auto",
            output_path=str(tmp_path / "out.json"),
        )
        assert cli.execute(cfg) == 2


class TestRunDiagnose:
    def test_worked_instance(self, tmp_path):
        cfg = RunConfig(
            command="diagnose",
            matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]]),
        )
        out = cli.run_diagnose(cfg)
        assert out["diag_dominant"] is True
        assert out["iteration_spectral_radius"] == pytest.approx(
            1 / np.sqrt(6), abs=1e-10
        )
        assert out["gap"] == pytest.approx(0.5917517095361369, abs=1e-10)
        assert out["t_f_predicted"] == pytest.approx(5.8367, abs=1e-3)

    @pytest.mark.parametrize("d", [3, 17, 64])
    def test_random_dominant_matches_numpy(self, tmp_path, d):
        A = random_dominant(np.random.default_rng(d), d)[0]
        cfg = RunConfig(command="diagnose", matrix_path=mm_real(tmp_path, "A.mtx", A))
        out = cli.run_diagnose(cfg)
        G = -(A - np.diag(np.diag(A))) / np.diag(A)[:, None]
        assert out["iteration_spectral_radius"] == pytest.approx(
            np.max(np.abs(np.linalg.eigvals(G))), abs=1e-12
        )
        C = np.zeros((d + 1, d + 1))
        C[:d, :d] = G
        C[d, d] = 1.0
        assert out["cost"]["sparsity"] == int(np.max(np.count_nonzero(C, axis=1)))
        assert out["cost"]["max_norm"] == np.max(np.abs(C))


class TestDeterminism:
    def _run_twice(self, tmp_path, cfg_kwargs):
        outputs = []
        for name in ("r1.json", "r2.json"):
            cfg = RunConfig(output_path=str(tmp_path / name), **cfg_kwargs)
            assert cli.execute(cfg) == 0
            outputs.append((tmp_path / name).read_bytes())
        return outputs

    def test_solve_byte_identical(self, tmp_path):
        a, b = self._run_twice(
            tmp_path,
            dict(
                command="solve",
                matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]]),
                rhs_path=vec(tmp_path, "b.json", [1.0, 2.0]),
            ),
        )
        assert a == b

    def test_diagnose_byte_identical(self, tmp_path):
        a, b = self._run_twice(
            tmp_path,
            dict(
                command="diagnose",
                matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]]),
            ),
        )
        assert a == b

    @pytest.mark.parametrize(
        "command,header,entries,extra,reductions,evolve_path",
        [
            # Hermitian C: one eigh for all modes, no per-mode reduction
            ("eig", "complex hermitian", "1 1 0.9 0.0\n2 1 0.05 -0.05\n2 2 0.5 0.0\n"
             "3 2 0.0 0.02\n3 3 0.3 0.0\n", {}, 0, "hermitian"),
            # real non-symmetric C: modes k = 0..N/2 only
            ("eig", "real general", "1 1 0.9\n1 2 0.2\n2 2 0.5\n2 3 0.1\n3 1 0.05\n"
             "3 3 0.3\n", {}, 33, "real"),
            # complex general C: every mode that carries mass, 61 of 64 from
            # the smooth default profile
            ("evolve", "complex general", "1 1 0.6 0.0\n1 2 0.1 0.2\n2 1 0.0 -0.1\n"
             "2 2 0.4 0.1\n3 1 0.2 0.0\n3 3 0.5 -0.3\n", {"t": 1.0}, 61, "general"),
        ],
        ids=["hermitian", "real", "general"],
    )
    def test_propagation_path_byte_identical(
        self, tmp_path, monkeypatch, command, header, entries, extra, reductions,
        evolve_path,
    ):
        calls = []
        zhetrd = engine.lapack.zhetrd

        def counting(*args, **kwargs):
            calls.append(1)
            return zhetrd(*args, **kwargs)

        monkeypatch.setattr(engine.lapack, "zhetrd", counting)
        nnz = entries.count("\n")
        path = write(
            tmp_path, "C.mtx",
            f"%%MatrixMarket matrix coordinate {header}\n3 3 {nnz}\n{entries}",
        )
        a, b = self._run_twice(
            tmp_path,
            dict(
                command=command,
                matrix_path=path,
                x0_path=vec(tmp_path, "x0.json", [0.6, 0.0, 0.8]),
                N=64,
                **extra,
            ),
        )
        assert a == b
        assert len(calls) == 2 * reductions
        assert json.loads(a)["propagation"]["path"] == evolve_path

    def test_timing_flag_adds_wall_time(self, tmp_path):
        cfg = RunConfig(
            command="diagnose",
            matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]]),
            output_path=str(tmp_path / "t.json"),
            timing=True,
        )
        assert cli.execute(cfg) == 0
        report = json.loads((tmp_path / "t.json").read_text())
        assert isinstance(report["wall_time_seconds"], float)


class TestNumericOptions:
    @pytest.mark.parametrize(
        "command,args",
        [
            ("solve", ["--t", "foo"]),
            ("solve", ["--t", "inf"]),
            ("solve", ["--delta", "nan"]),
            ("eig", ["--epsilon", "inf"]),
            ("eig", ["--l", "nan"]),
            ("evolve", ["--t", "nan"]),
            ("diagnose", ["--alpha0-sq", "1.5"]),
            ("diagnose", ["--alpha0-sq", "nan"]),
            ("diagnose", ["--alpha0-sq", "-0.2"]),
            ("diagnose", ["--alpha0-sq", "0"]),
            ("diagnose", ["--l", "inf"]),
            ("diagnose", ["--method", "richardson", "--a", "-inf"]),
            # options that click once typed as floats: a token that does
            # not parse must still give the JSON document
            ("diagnose", ["--alpha0-sq", "foo"]),
            ("diagnose", ["--delta", "foo"]),
            ("diagnose", ["--l", "foo"]),
            ("diagnose", ["--method", "richardson", "--a", "foo"]),
            ("eig", ["--epsilon", "foo"]),
            ("eig", ["--t", "foo"]),
            ("evolve", ["--t", "foo"]),
            ("solve", ["--delta", "foo"]),
            # --n follows make_grid's rule: a power of two in [4, 65536]
            ("diagnose", ["--n", "0"]),
            ("diagnose", ["--n", "3"]),
            ("diagnose", ["--n", "foo"]),
            ("diagnose", ["--n", "131072"]),
            ("diagnose", ["--n", "-4"]),
            ("diagnose", ["--n", "6.4e1"]),
            ("diagnose", ["--n", ""]),
            ("diagnose", ["--n", "9" * 5000]),
            ("solve", ["--n", "12"]),
            ("eig", ["--n", "2"]),
            ("evolve", ["--t", "1", "--n", "0"]),
        ],
    )
    def test_rejected_with_invalid_input_document(self, tmp_path, command, args):
        from click.testing import CliRunner

        A = mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]])
        inputs = {
            "solve": ["--matrix", A, "--rhs", vec(tmp_path, "b.json", [1.0, 2.0])],
            "eig": ["--matrix", mm_real(tmp_path, "C.mtx", np.diag([0.9, 0.5]))],
            "evolve": [
                "--matrix", mm_real(tmp_path, "E.mtx", [[0.5]]),
                "--x0", vec(tmp_path, "x0.json", [1.0]),
            ],
            "diagnose": ["--matrix", A],
        }

        def not_json(token):
            raise AssertionError(f"report holds the non-JSON token {token}")

        result = CliRunner().invoke(cli.main, [command, *inputs[command], *args])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2
        report = json.loads(result.output, parse_constant=not_json)
        assert report["error"]["code"] == "invalid-input"

    @pytest.mark.parametrize("n, N", [("4", 4), (" 64", 64), ("065536", 65536)])
    def test_grid_size_accepted(self, tmp_path, n, N):
        from click.testing import CliRunner

        A = mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]])
        result = CliRunner().invoke(cli.main, ["diagnose", "--matrix", A, "--n", n])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["recommended_grid"]["N"] == N
        assert report["cost"]["epsilon"] == 1.0 / N

    def test_boundary_values_accepted(self, tmp_path):
        cfg = RunConfig(
            command="diagnose",
            matrix_path=mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]]),
            alpha0_sq=1.0,
            output_path=str(tmp_path / "out.json"),
        )
        assert cli.execute(cfg) == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["alpha0_sq_assumed"] == 1.0


class TestClickSurface:
    @pytest.mark.parametrize("command", ["solve", "eig", "evolve"])
    @pytest.mark.parametrize(
        "args", [["--recovery", "at-pstar"], ["--pstar", "1"]], ids=["recovery", "pstar"]
    )
    def test_removed_readout_options_are_usage_errors(self, tmp_path, command, args):
        # the p > 0 projection is the only readout; its knobs are gone
        from click.testing import CliRunner

        inputs = {
            "solve": ["--rhs", vec(tmp_path, "b.json", [1.0, 2.0])],
            "eig": [],
            "evolve": ["--x0", vec(tmp_path, "x0.json", [1.0, 0.0]), "--t", "1"],
        }
        A = mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]])
        result = CliRunner().invoke(
            cli.main, [command, "--matrix", A, *inputs[command], *args]
        )
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_solve_command(self, tmp_path):
        from click.testing import CliRunner

        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            [
                "solve",
                "--matrix",
                mm_real(tmp_path, "A.mtx", [[2.0, 1.0], [1.0, 3.0]]),
                "--rhs",
                vec(tmp_path, "b.json", [1.0, 2.0]),
            ],
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["command"] == "solve"
        assert report["fidelity"] >= 0.999

    def test_error_exit_code_propagates(self, tmp_path):
        from click.testing import CliRunner

        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            [
                "solve",
                "--matrix",
                mm_real(tmp_path, "A.mtx", [[0.0, 1.0], [1.0, 2.0]]),
                "--rhs",
                vec(tmp_path, "b.json", [1.0, 1.0]),
            ],
        )
        assert result.exit_code == 5


def test_readme_cli_flags_are_options():
    # every --flag the README's "Quick start (CLI)" section names is an
    # option of some schrosim command, so the text cannot outlive a flag
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (CLI)", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    commands = [cli.main, *cli.main.commands.values()]
    options = {
        opt
        for cmd in commands
        for param in cmd.get_params(click.Context(cmd))
        for opt in (*param.opts, *param.secondary_opts)
    }
    assert {"--matrix", "--n", "--timing"} <= named
    assert sorted(named - options) == []
