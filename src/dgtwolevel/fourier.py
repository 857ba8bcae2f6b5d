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

Everything here is built numerically from the grid-function products;
printed closed forms are used as cross-checks in the test suite only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import _inverse_2x2
from .config import CELL, ProblemConfig, check_smoother

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
    """4x8 slab of operator (kind None) or smoother rows for two cells,
    stacked over the broadcast shape of ``delta0`` and ``inv_gamma``."""
    d = np.asarray(delta0 + inv_gamma / 3.0, dtype=float)
    mu = np.asarray(inv_gamma / 6.0, dtype=float)
    w = np.asarray(1.0 - delta0, dtype=float)
    d, mu, w = np.broadcast_arrays(d, mu, w)
    half = np.full(d.shape, -0.5)
    T = np.zeros(d.shape + (4, 8))
    if kind is None:
        T[..., 0, :5] = np.stack([half, w, d, mu, half], axis=-1)
        T[..., 1, 1:6] = np.stack([half, mu, d, w, half], axis=-1)
        T[..., 2, 2:7] = np.stack([half, w, d, mu, half], axis=-1)
        T[..., 3, 3:8] = np.stack([half, mu, d, w, half], axis=-1)
    elif kind == CELL:
        T[..., 0, 2:4] = np.stack([d, mu], axis=-1)
        T[..., 1, 2:4] = np.stack([mu, d], axis=-1)
        T[..., 2, 4:6] = np.stack([d, mu], axis=-1)
        T[..., 3, 4:6] = np.stack([mu, d], axis=-1)
    else:  # point: blocks pair the unknowns meeting at a node
        T[..., 0, 1:3] = np.stack([w, d], axis=-1)
        T[..., 1, 3:5] = np.stack([d, w], axis=-1)
        T[..., 2, 3:5] = np.stack([w, d], axis=-1)
        T[..., 3, 5:7] = np.stack([d, w], axis=-1)
    return T


_RESTRICTION_ROWS = 0.5 * np.array(
    [
        [1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0],
    ]
)

_PROLONGATION_ROWS = np.array(
    [
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
    ]
)


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
    those of ``t`` only), and scalars give single blocks.
    """
    check_smoother(kind)
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
    the arguments broadcast as in :func:`symbols_at_angle`."""
    inv_gamma = 1.0 / np.asarray(gamma, dtype=float)
    t = 0.5 * np.arccos(np.clip(ck, -1.0, 1.0))
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
    """Assemble the block-circulant matrix whose first block row is ``blocks``."""
    blocks = np.asarray(blocks, dtype=float)
    J = len(blocks)
    offset = (np.arange(J) - np.arange(J)[:, None]) % J
    # block (i, j) is blocks[(j - i) % J]
    return blocks[offset].transpose(0, 2, 1, 3).reshape(2 * J, 2 * J)


def verify_block_diagonalization(blocks, cells: int) -> tuple:
    """Residuals of the block-diagonalization of a block-circulant matrix.

    Returns ``(off_block_residual, unitarity_residual)`` where the first
    is the largest modulus of ``Q* C Q`` outside its 2x2 diagonal blocks
    and the second is ``max|Q* Q - I|``.
    """
    if len(blocks) != cells:
        raise ValueError(f"need {cells} blocks for a {2 * cells}x{2 * cells} circulant")
    C = block_circulant(blocks)
    Q = fourier_basis(cells)
    M = Q.conj().T @ C @ Q
    off = M.reshape(cells, 2, cells, 2).copy()
    diagonal = np.arange(cells)
    off[diagonal, :, diagonal, :] = 0.0
    unitarity = np.abs(Q.conj().T @ Q - np.eye(2 * cells)).max()
    return float(np.abs(off).max()), float(unitarity)
