"""p-space reference for the engine's start state and readout.

Test-only: the package builds the start state as x0⊗ψ̂ from one length-N
transform of the profile and reads x̂ straight off the spectral state, so
it never forms the warped state v(t, p) on the grid. These functions do,
so the tests can check the spectral shortcuts against the plain p-space
computation: the separable start, the least-squares fit over p > p_min,
and the p > 0 expectation value.
"""

from typing import NamedTuple

import numpy as np

from schrosim import core, schrodingerization as eng
from schrosim.errors import DegenerateRecoveryError, DimensionError, InvalidInputError


def initial_warped_state(x0, grid, profile=eng.EXP_ABS) -> eng.WarpedState:
    """v(0, p) = ψ(p) x0, separable in the component and p indices; ψ is
    e^{-|p|} unless another profile is given, sampled as the engine samples
    it (``sample_profile``, seam blend included)."""
    x0 = core.as_vector(x0)
    if np.linalg.norm(x0) == 0.0:
        raise InvalidInputError("x0 must be nonzero")
    values = eng.sample_profile(profile, grid)[None, :] * x0[:, None]
    return eng.WarpedState(values=values, grid=grid, time=0.0)


def recover(w: eng.WarpedState, p_min: float = 0.0) -> eng.RecoveredState:
    """The least-squares fit of v(t, p_l) ≈ e^{-p_l} x̂ over all
    p_l > max(0, p_min), computed on the warped state itself, with the
    success probability ‖x̂‖²·Σ_{p>0} e^{-2p} / ‖v‖² clamped to 1."""
    grid = w.grid
    floor = max(0.0, p_min)
    pos = grid.p > floor
    if not np.any(pos):
        raise DegenerateRecoveryError(
            f"no grid points beyond the readout floor p > {floor:.3f}"
        )
    weights = np.exp(-grid.p[pos])
    xhat = (w.values[:, pos] @ weights) / (weights @ weights)
    xnorm = float(np.linalg.norm(xhat))
    wnorm = float(np.linalg.norm(w.values))
    env_norm = float(np.sqrt(np.sum(np.exp(-2.0 * grid.p[grid.p > 0]))))
    prob = min(1.0, (xnorm * env_norm / wnorm) ** 2) if wnorm > 0 else 0.0
    return eng.RecoveredState(
        x=xhat, state=xhat / xnorm, success_probability=prob, time=w.time,
        grid=grid,
    )


class Expectation(NamedTuple):
    raw: complex
    normalized: complex


def expectation_without_recovery(s: eng.SpectralState, O) -> Expectation:
    """⟨v|(I⊗O)|v⟩ over the positive half of the warped domain.

    No amplitude rescaling or profile fit is performed. The restriction to
    p > 0 matters: only there is the warped field a common scalar profile
    times x(t), so the ratio ⟨v|(I⊗O)|v⟩/⟨v|v⟩ matches ⟨x|O|x⟩/⟨x|x⟩ up to
    grid error. The left half mixes earlier history and would bias it.
    """
    O = core.require_square(core.as_matrix(O), "O")
    if O.shape[0] != s.values.shape[0]:
        raise DimensionError("observable dimension does not match state")
    if core.hermiticity_defect(O) > core.HERMITICITY_TOL:
        raise InvalidInputError("observable must be Hermitian")
    w = eng.transform(s, "inverse")
    vals = w.values[:, w.grid.p > 0.0]
    raw = complex(np.einsum("in,ij,jn->", vals.conj(), O, vals))
    denom = float(np.linalg.norm(vals) ** 2)
    if denom == 0.0:
        raise DegenerateRecoveryError("spectral state has zero norm on p > 0")
    return Expectation(raw=raw, normalized=raw / denom)
