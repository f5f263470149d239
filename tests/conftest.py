import numpy as np
import pytest
import scipy.linalg


def random_contractive(rng, d):
    """Random C whose drift C - I has a negative semidefinite Hermitian part."""
    Q = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, _ = np.linalg.qr(Q)
    ev = -rng.uniform(0.0, 1.0, d)
    C1h = (Q * ev) @ Q.conj().T
    B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    C2h = (B + B.conj().T) / 2
    return np.eye(d) + C1h + 1j * C2h


def random_dominant(rng, d):
    """Random real diagonally dominant A with a random right-hand side."""
    A = rng.normal(size=(d, d))
    slack = rng.uniform(0.1, 1.0, d)
    A += np.diag(np.sign(np.diag(A)) * (np.abs(A).sum(axis=1) + slack))
    b = rng.normal(size=d)
    return A, b


def random_power_instance(rng, d):
    """Diagonal-plus-small-perturbation C with real positive spectrum < 1
    and a clearly nondegenerate top eigenvalue: the first of up to 100
    draws whose spectrum qualifies, else a ValueError naming d."""
    for _ in range(100):
        lam = np.sort(rng.uniform(0.05, 0.95, d))[::-1]
        lam[0] = max(lam[0], lam[1] + 0.15) if d > 1 else lam[0]
        lam = np.minimum(lam, 0.97)
        C = np.diag(lam) + 0.01 * rng.normal(size=(d, d))
        ev = np.linalg.eigvals(C)
        if np.max(np.abs(ev.imag)) <= 1e-9 and np.all(ev.real > 0) and np.max(ev.real) < 1:
            return C
    raise ValueError(f"no power instance at d = {d} in 100 draws")


def refuse_scipy_linalg(monkeypatch):
    """Make every public function of scipy.linalg, scipy.linalg.blas and
    scipy.linalg.lapack raise, so a test shows that an op runs on numpy's
    LAPACK and BLAS alone: numpy and scipy each bring an OpenBLAS with its
    own thread pool."""

    def raiser(name):
        def f(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return f

    for module in (scipy.linalg, scipy.linalg.lapack, scipy.linalg.blas):
        for name, obj in list(vars(module).items()):
            if callable(obj) and not isinstance(obj, type) and not name.startswith("_"):
                monkeypatch.setattr(module, name, raiser(f"{module.__name__}.{name}"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
