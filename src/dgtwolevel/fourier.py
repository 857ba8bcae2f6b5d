"""Frequency-space (Fourier) analysis of the periodic two-grid operator.

The periodic operator, smoothers and transfers are block circulant, so a
unitary basis of discrete grid functions turns them into small blocks
per frequency: 2x2 for operator and smoother, 2x4 / 4x2 for restriction
and prolongation once the two frequencies that alias on the coarse mesh
are grouped.  The resulting 4x4 two-grid block carries the exact
spectrum of the full iteration matrix.

The block functions take stacked input: the frequency (``t`` or
``c_k``), ``delta0``, ``gamma`` and ``alpha`` broadcast against each
other, and every block carries their leading axes, so one call and one
stacked ``np.linalg.eigvals`` cover all frequencies of a mesh or a batch
of sampled parameters.  Scalar input gives single blocks.

The slabs these blocks transform are the assembled interior blocks
(``assembly._interior_blocks``, ``_pair_blocks`` and ``_shifted_pair``)
and the transfer rows the assembled stencil (``assembly._PAIR_STENCIL``),
so the analysis is of the matrices ``assembly`` builds, not of a second
copy of the stencil.  Printed closed forms are used as cross-checks in
the test suite only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import _PAIR_STENCIL, _interior_blocks, _pair_blocks, _shifted_pair
from .blocks import _inverse_2x2
from .closed_forms import _as_arrays, _check_domain
from .config import CELL, ProblemConfig, check_penalty, check_smoother

_SQRT_HALF = math.sqrt(0.5)

# Fine node offsets of the eight unknowns in cells (j-1 .. j+2), left
# traces at even and right traces at odd positions, and of the coarse
# unknowns of cells (j, j+1), for an even j (taken 0).
_POS_WIDE = np.array([-2, -1, -1, 0, 0, 1, 1, 2], dtype=float)
_POS_COARSE = np.array([-2, 0, 0, 2], dtype=float)


@dataclass(frozen=True)
class Frequency:
    """Integer frequency index k on a mesh of ``cells`` cells.

    The two-grid spectrum depends on k only through
    ``c_k = cos(4 pi k / J)``; indices ``1 <= k <= J/2`` cover it.
    """

    k: int
    cells: int

    def __post_init__(self):
        if not 1 <= self.k <= self.cells // 2:
            raise ValueError(f"need 1 <= k <= cells/2, got k={self.k}, cells={self.cells}")

    @property
    def angle(self) -> float:
        """Phase advance per fine node, ``2 pi k h``."""
        return 2.0 * math.pi * self.k / self.cells

    @property
    def ck(self) -> float:
        return math.cos(2.0 * self.angle)


@dataclass(frozen=True)
class SymbolSet:
    """Per-frequency blocks of the two-grid components.

    ``Ahat`` and ``Dhat`` are 4x4 and block diagonal over the aliasing
    frequency pair, ``Rhat`` is 2x4, ``Phat = 2 Rhat^*`` is 4x2,
    ``A0hat = Rhat Ahat Phat`` is the 2x2 Galerkin coarse block and
    ``Ehat`` the 4x4 error-propagation block.  Stacked input puts its
    leading axes in front of these block shapes.
    """

    Ahat: np.ndarray
    Dhat: np.ndarray
    Rhat: np.ndarray
    Phat: np.ndarray
    A0hat: np.ndarray
    Ehat: np.ndarray


def _stencil_rows(delta0, inv_gamma, kind: str | None) -> np.ndarray:
    """4x8 slab of operator (kind None) or smoother rows of cells j, j+1
    against cells j-1 .. j+2, stacked over the broadcast shape of
    ``delta0`` and ``inv_gamma``: the ``(own, next)`` blocks of a coarse
    cell of the assembled matrix, with ``next^T`` reaching back to cell
    j-1.  Each matrix repeats this pattern on every pair of neighbouring
    cells."""
    if kind is None:
        diag, upper = _interior_blocks(delta0, inv_gamma)
        own, nxt = _pair_blocks(diag, diag, upper, upper)
    else:
        block = _interior_blocks(delta0, inv_gamma, kind)
        own, nxt = _pair_blocks(block, block, 0.0, 0.0) if kind == CELL else _shifted_pair(block, block)
    return np.concatenate((nxt.swapaxes(-1, -2)[..., 2:], own, nxt[..., :2]), axis=-1)


# the transfer stencil over two coarse cells: R's rows on their eight fine
# unknowns, P's on the four either side of their shared node
_RESTRICTION_ROWS = np.kron(np.eye(2), 0.5 * _PAIR_STENCIL)
_PROLONGATION_ROWS = np.kron(np.eye(2), _PAIR_STENCIL.T)[2:6]


def _grid_factors(t) -> tuple:
    """Left/right grid-function factors for the frequency pair (t - pi, t),
    stacked over the shape of ``t``."""
    t = np.asarray(t, dtype=float)
    # (..., node offset, frequency): column 2 f (+ 1) of Qr holds frequency f
    angles = np.stack((t - math.pi, t), axis=-1)[..., None, :]
    Qr = np.zeros(t.shape + (8, 4), dtype=complex)
    Qr[..., 0::2, 0::2] = np.exp(1j * angles * _POS_WIDE[0::2, None])
    Qr[..., 1::2, 1::2] = np.exp(1j * angles * _POS_WIDE[1::2, None])
    Qr *= _SQRT_HALF
    Ql = Qr[..., 2:6, :].conj().swapaxes(-1, -2)
    # coarse factors live on the even nodes, where both frequencies alias to t
    phase = t[..., None]
    Ql0 = np.zeros(t.shape + (2, 4), dtype=complex)
    Ql0[..., 0, 0::2] = np.exp(-1j * phase * _POS_COARSE[0::2])
    Ql0[..., 1, 1::2] = np.exp(-1j * phase * _POS_COARSE[1::2])
    Ql0 *= 0.5
    Qr0 = np.zeros(t.shape + (4, 2), dtype=complex)
    Qr0[..., 0::2, 0] = np.exp(1j * phase * _POS_COARSE[0::2])
    Qr0[..., 1::2, 1] = np.exp(1j * phase * _POS_COARSE[1::2])
    return Ql, Qr, Ql0, Qr0


def _solve_2x2(M: np.ndarray) -> np.ndarray:
    """Inverse of each 2x2 block of ``M`` by ``blocks._inverse_2x2``, which
    does not overflow where the inverse does not, falling back to the
    pseudo-inverse where ``|det| < 1e-12 max(1, m)^2`` (``m`` the largest
    absolute entry): the coarse constant mode makes a block singular
    (pure diffusion at c_k = 1)."""
    inverse, singular = _inverse_2x2(M, 1e-12)
    if singular.any():
        inverse[singular] = np.linalg.pinv(M[singular])
    return inverse


def symbols_at_angle(t, delta0, inv_gamma, kind: str, alpha, scale: float = 1.0) -> SymbolSet:
    """Blocks of every two-grid component at node-phase ``t = 2 pi k h``.

    ``t``, ``delta0``, ``inv_gamma`` and ``alpha`` broadcast against each
    other: each block carries their leading axes (``Rhat`` and ``Phat``
    those of ``t`` only), and scalars give single blocks.  Raises
    ``ValueError`` unless every ``delta0`` is finite and at least 1 and
    every ``inv_gamma`` finite and at least 0.
    """
    check_smoother(kind)
    for value in (np.min(delta0), np.max(delta0)):
        check_penalty(value)
    for value in (np.min(inv_gamma), np.max(inv_gamma)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"inv_gamma must be finite and >= 0, got {value}")
    Ql, Qr, Ql0, Qr0 = _grid_factors(t)
    Ahat = scale * (Ql @ _stencil_rows(delta0, inv_gamma, None) @ Qr)
    Dhat = scale * (Ql @ _stencil_rows(delta0, inv_gamma, kind) @ Qr)
    Rhat = Ql0 @ _RESTRICTION_ROWS @ Qr
    Phat = Ql @ _PROLONGATION_ROWS @ Qr0
    A0hat = Rhat @ Ahat @ Phat
    identity = np.eye(4)
    relax = np.asarray(alpha, dtype=float)[..., None, None]
    smooth = identity - relax * np.linalg.solve(Dhat, Ahat)
    correct = identity - Phat @ _solve_2x2(A0hat) @ Rhat @ Ahat
    return SymbolSet(Ahat, Dhat, Rhat, Phat, A0hat, correct @ smooth)


def symbol_blocks(freq: Frequency, config: ProblemConfig, kind: str, alpha: float) -> SymbolSet:
    """Symbol blocks at integer frequency ``freq`` of the given problem."""
    return symbols_at_angle(
        freq.angle,
        config.delta0,
        config.inv_gamma,
        kind,
        alpha,
        scale=1.0 / config.h**2,
    )


def symbols_at_ck(delta0, gamma, kind: str, alpha, ck) -> SymbolSet:
    """Symbol blocks parameterized by ``c_k`` directly (mesh-free mode);
    the arguments broadcast as in :func:`symbols_at_angle`, a list or
    tuple as the array it spells.  Raises
    ``ValueError`` outside the domain of ``closed_forms._check_domain``."""
    delta0, gamma, alpha = _as_arrays(delta0, gamma, alpha)
    _check_domain(ck, delta0, gamma)
    inv_gamma = 1.0 / np.asarray(gamma, dtype=float)
    t = 0.5 * np.arccos(ck)
    return symbols_at_angle(t, delta0, inv_gamma, kind, alpha)


def two_grid_eigenvalues(config: ProblemConfig, kind: str, alpha: float) -> np.ndarray:
    """Spectrum of the periodic two-grid operator as the union over all
    frequency blocks ``k = 1 .. J/2`` (4 eigenvalues each, k-major)."""
    t = 2.0 * math.pi * np.arange(1, config.cells // 2 + 1) / config.cells
    sym = symbols_at_angle(
        t, config.delta0, config.inv_gamma, kind, alpha, scale=1.0 / config.h**2
    )
    return np.linalg.eigvals(sym.Ehat).reshape(-1)


def fourier_basis(cells: int) -> np.ndarray:
    """Unitary 2J x 2J grid-function basis of the fine mesh.

    Column pair n (0-based) carries frequency ``(n+2)//2 - J/2`` for even
    n and ``(n+1)//2`` for odd n; the first column of each pair holds the
    grid function sampled at left traces, the second at right traces.
    """
    J = cells
    h = 1.0 / J
    Q = np.zeros((2 * J, 2 * J), dtype=complex)
    n = np.arange(J)
    kappa = np.where(n % 2 == 0, (n + 2) // 2 - J // 2, (n + 1) // 2)
    m = n[:, None]
    Q[0::2, 0::2] = np.exp(2j * math.pi * kappa * m * h)
    Q[1::2, 1::2] = np.exp(2j * math.pi * kappa * (m + 1) * h)
    return math.sqrt(h) * Q


def block_circulant(blocks) -> np.ndarray:
    """Assemble the block-circulant matrix whose first block row is
    ``blocks``, shape ``(J, 2, 2)``; a stack ``(..., J, 2, 2)`` of first
    block rows gives a stack of matrices."""
    blocks = np.asarray(blocks, dtype=float)
    J = blocks.shape[-3]
    offset = (np.arange(J) - np.arange(J)[:, None]) % J
    # block (i, j) is blocks[(j - i) % J]
    C = blocks[..., offset, :, :].swapaxes(-3, -2)
    return C.reshape(blocks.shape[:-3] + (2 * J, 2 * J))


def verify_block_diagonalization(blocks, cells: int) -> tuple:
    """Residuals of the block-diagonalization of a block-circulant matrix.

    ``blocks`` is the first block row, shape ``(cells, 2, 2)``, or a stack
    ``(..., cells, 2, 2)`` of them: one basis and one stacked ``Q* C Q``
    serve the whole stack.  Returns ``(off_block_residual,
    unitarity_residual)`` where the first is the largest modulus of
    ``Q* C Q`` outside its 2x2 diagonal blocks over the stack, the same
    bits as the largest of one call per matrix, and the second is
    ``max|Q* Q - I|``.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim < 3 or blocks.shape[-3] != cells:
        raise ValueError(f"need {cells} blocks for a {2 * cells}x{2 * cells} circulant")
    C = block_circulant(blocks)
    Q = fourier_basis(cells)
    M = Q.conj().T @ C @ Q
    off = M.reshape(M.shape[:-2] + (cells, 2, cells, 2)).copy()
    diagonal = np.arange(cells)
    off[..., diagonal, :, diagonal, :] = 0.0
    unitarity = np.abs(Q.conj().T @ Q - np.eye(2 * cells)).max()
    return float(np.abs(off).max()), float(unitarity)
