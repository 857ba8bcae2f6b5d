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

``rolled_apply``, ``rolled_solve`` and ``rolled_preconditioner`` are the
column-stack applies written as plain expressions, each term a fresh
array and every cyclic neighbour an ``np.roll``: the same products and
sums, in the same order, as the in-place applies of ``dgtwolevel.blocks``
and ``apply_preconditioner``.  A vector goes through the operators'
bands, as in the library.
"""

import numpy as np

from dgtwolevel import assembled_mu, build_iteration_matrix
from dgtwolevel.blocks import BlockDiagonal, BlockTridiagonal
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


def rolled_apply(op, x):
    """``op @ x``: ``(diag X_j + upper X_{j+1}) + lower X_{j-1}`` for a
    ``BlockTridiagonal``, the product on the unknowns rolled up by one and
    back for a shifted ``BlockDiagonal``, the library's ``@`` otherwise."""
    if x.ndim == 1:
        return op @ x
    if isinstance(op, BlockTridiagonal):
        X = x.reshape(op.cells, 2, -1)
        lower = np.roll(np.swapaxes(op.upper, 1, 2), 1, axis=0)
        Y = op.diag @ X + op.upper @ np.roll(X, -1, axis=0) + lower @ np.roll(X, 1, axis=0)
        return Y.reshape(x.shape)
    if isinstance(op, BlockDiagonal) and op.shift:
        X = np.roll(x, -op.shift, axis=0).reshape(len(op.blocks), 2, -1)
        return np.roll((op.blocks @ X).reshape(x.shape), op.shift, axis=0)
    return op @ x


def rolled_solve(factor, b):
    """``CyclicReduction.solve``: every level's separator sums and
    interior updates as fresh arrays."""

    def once(b):
        B = b.reshape(len(b) // 2, 2, -1)
        if factor.constant_kernel:
            B = B - B.mean(axis=(0, 1))
        interiors = []
        for level in factor.levels:
            c, w = level.interior.shape
            Z = level.gain @ B[level.interior].reshape(c, 2 * w, -1)
            y, h = Z[:, : 2 * w], Z[:, 2 * w :]
            B = B[level.separators] - h[:, :2] - np.roll(h[:, 2:], 1, axis=0)
            interiors.append(y)
        X = factor.remainder_inverse @ B.reshape(len(factor.remainder_inverse), -1)
        X = X.reshape(B.shape)
        for level, y in zip(reversed(factor.levels), reversed(interiors)):
            pairs = np.concatenate((X, np.roll(X, -1, axis=0)), axis=1)
            x = (y - level.W @ pairs).reshape(-1, 2, X.shape[2])
            X = np.concatenate((x, X))[level.place]
        if factor.constant_kernel:
            X -= X.mean(axis=(0, 1))
        return X.reshape(b.shape)

    x = once(b)
    for _ in range(factor.refine_steps):
        x += once(b - rolled_apply(factor.op, x))
    return x


def rolled_preconditioner(tl, g):
    """``apply_preconditioner``: ``x + P A0^{-1} R (g - A x)`` with ``x =
    alpha D^{-1} g``."""
    x = tl.alpha * rolled_apply(tl._D_inverse, g)
    return x + tl.P @ rolled_solve(tl._A0_factor, tl.R @ (g - rolled_apply(tl.A, x)))
