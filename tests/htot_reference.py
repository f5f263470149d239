"""Dense reference for the total warped-phase generator.

Test-only: the package evolves each Fourier mode under its own block and
never forms the full (d+1)·N square matrix. ``tests/test_schrodingerization.py``
and the acceptance suite check that the blocks are its direct sum.
"""

import numpy as np

from schrosim import core
from schrosim.errors import InvalidInputError

MAX_DENSE_ASSEMBLY = 4096


def assemble_Htot(C, grid) -> np.ndarray:
    """Dense -C⊗(D-iI)/2 - C†⊗(D+iI)/2 + I⊗D with D = diag(η_k).

    Component-major ordering |i⟩|k⟩; equals the direct sum of
    generator_blocks under the mode-major permutation.
    """
    C = core.require_square(core.as_matrix(C), "C")
    d1 = C.shape[0]
    if d1 * grid.N > MAX_DENSE_ASSEMBLY:
        raise InvalidInputError(
            f"dense assembly size {d1 * grid.N} exceeds {MAX_DENSE_ASSEMBLY};"
            " use generator_blocks"
        )
    D = np.diag(grid.eta.astype(complex))
    I_N = np.eye(grid.N, dtype=complex)
    I_d = np.eye(d1, dtype=complex)
    H = (
        -np.kron(C, (D - 1j * I_N) / 2)
        - np.kron(C.conj().T, (D + 1j * I_N) / 2)
        + np.kron(I_d, D)
    )
    return H
