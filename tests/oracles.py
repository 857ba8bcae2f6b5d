"""Reference routes for the tests to compare the library against.

``compression_rho`` is the two-grid radius from the symmetric
compression of ``E`` to the A-orthogonal complement of the coarse space.
``Z`` spans that complement, ``AZ = A Z`` and ``K = L^{-1}`` for ``G =
AZ^T Z = L L^T``.  The exact ``E`` maps everything into ``range(Z)``
(plus the constant vector when ``A0`` has a constant kernel), and ``E Z
= Z G^{-1} H`` there with ``H = AZ^T E Z``.  So the nonzero eigenvalues
of ``E`` other than that 1 are those of the symmetric ``C = K H K^T``,
of size J.  It reads ``E`` itself, so unlike ``assembled_mu`` it takes
the coarse solves of ``build_iteration_matrix`` with it; as ``AZ^T P =
0`` they drop out of ``H`` up to rounding.

``pencil_rho`` is the radius that ``assembled_rho`` gives on every mesh
but a Dirichlet fold, written out from ``assembled_mu``.
"""

import numpy as np

from dgtwolevel import assembled_mu, build_iteration_matrix
from dgtwolevel.twolevel import _check_desk_scale, _finite, _inverse_cholesky, _whole_mesh


def complement(A, A0, W, R, P) -> tuple:
    """``(Z, AZ, AZ^H, K)``: ``Z = W - P X`` with ``A0 X = R A W``, ``AZ =
    A Z`` and ``K = L^{-1}`` for the Cholesky factor ``L`` of ``G = AZ^H
    Z``, so that ``K G K^H = I``."""
    Z = W - P @ np.linalg.solve(A0, R @ (A @ W))
    AZ = A @ Z
    AZ_h = AZ.conj().swapaxes(-2, -1)
    return Z, AZ, AZ_h, _inverse_cholesky(AZ_h @ Z)


def compression_rho(tl) -> float:
    """Spectral radius of ``C = K AZ^T E Z K^T`` on the whole mesh of
    ``tl``, whatever its boundary, by ``eigvalsh`` of its symmetric part;
    up to J = 1024.  ``OverflowError`` where ``E`` or ``C`` overflows."""
    _check_desk_scale(tl.A.shape[0] // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        E = _finite(build_iteration_matrix(tl), tl)
    Z, _, AZ_h, K = complement(*_whole_mesh(tl)[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        C = _finite(K @ (AZ_h @ (E @ Z)) @ K.T, tl)
    return float(np.abs(np.linalg.eigvalsh(0.5 * (C + C.T))).max())


def pencil_rho(tl) -> float:
    """``max |1 - alpha mu|`` over ``assembled_mu(tl)``, and at least 1 on a
    constant kernel."""
    rho = np.abs(1.0 - tl.alpha * assembled_mu(tl)).max()
    return max(rho, 1.0) if tl._A0_factor.constant_kernel else rho
