"""No op decomposes the same matrix twice.

Each spectral quantity is computed once per op: numpy's ``eigh``,
``eigvalsh``, ``eig`` and ``eigvals`` are wrapped, each input is recorded by
a digest of its dtype, shape and bytes, and within one op no digest may
repeat, whichever of the four calls sees it. Every op here that leaves the
Hermitian path takes the polynomial with steps to run, whose basis is the
``eigh`` of C1h that the kink speed, the half-width and the affine scale
read too.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest

from schrosim import cli, schrodingerization as engine, solvers
from schrosim.cli import RunConfig
from conftest import random_contractive, random_dominant


@pytest.fixture
def digests(monkeypatch):
    """The (call, digest) of every numpy eigensolver input, in call order."""
    seen = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        def recording(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            m = np.ascontiguousarray(a)
            key = f"{m.dtype.str}{m.shape}".encode() + m.tobytes()
            seen.append((_name, hashlib.sha256(key).hexdigest()))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def _real_non_normal(rng, d):
    """A real C with the distinct real eigenvalues 0.2..0.9 on its diagonal
    and a random strictly upper triangle, so not normal."""
    return np.diag(np.linspace(0.2, 0.9, d)) + np.triu(0.02 * rng.normal(size=(d, d)), 1)


def _assert_each_matrix_once(seen):
    keys = [key for _, key in seen]
    repeated = [call for call, key in seen if keys.count(key) > 1]
    assert seen and not repeated, f"decomposed twice by {repeated} in {seen}"


def _polynomial_with_steps(rec):
    assert rec.kernel == "chebyshev" and rec.max_degree > 0


def test_jacobi_solve(digests):
    # d = 20 at t = 0.5 on N = 256 takes the polynomial on the real path
    A, b = random_dominant(np.random.default_rng(5), 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rep = solvers.quantum_jacobi_solve(A, b, N=256, t=0.5)
    _polynomial_with_steps(rep.propagation)
    _assert_each_matrix_once(digests)


def test_non_normal_power_op(digests):
    C = _real_non_normal(np.random.default_rng(5), 32)
    rep = solvers.quantum_power_method(C, N=64, t=1.0)
    assert rep.propagation.path == "real"
    _polynomial_with_steps(rep.propagation)
    _assert_each_matrix_once(digests)


def test_hermitian_power_op(digests):
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))
    C = (Q * np.linspace(0.1, 0.9, 10)) @ Q.conj().T
    C = (C + C.conj().T) / 2
    rep = solvers.quantum_power_method(C, epsilon=0.05, N=128)
    assert rep.propagation.path == "hermitian"
    _assert_each_matrix_once(digests)


def test_propagate_on_a_general_C(digests):
    rng = np.random.default_rng(5)
    C = random_contractive(rng, 32)
    rec = engine.propagate(C, rng.normal(size=32), 0.5, engine.make_grid(32, 5.0))
    assert rec.path == "general"
    _polynomial_with_steps(rec)
    _assert_each_matrix_once(digests)


@pytest.mark.parametrize("path", ["real", "general"])
def test_cli_evolve(tmp_path, digests, path):
    rng = np.random.default_rng(5)
    C = _real_non_normal(rng, 32) if path == "real" else random_contractive(rng, 32)
    matrix, x0 = tmp_path / "C.mtx", tmp_path / "x0.json"
    matrix.write_text(cli.write_matrix_market(C))
    x0.write_text(json.dumps(rng.normal(size=32).tolist()))
    out = cli.run_evolve(
        RunConfig(command="evolve", matrix_path=str(matrix), x0_path=str(x0), t=0.5, N=64)
    )
    section = out["propagation"]
    assert section["path"] == path
    assert section["kernel"] == "chebyshev" and section["max_degree"] > 0
    _assert_each_matrix_once(digests)
