"""Assembly of the interior-penalty operator, smoothers and transfers.

Unknowns are ordered cell by cell, ``(u_0^+, u_0^-, u_1^+, u_1^-, ...)``,
where ``u_j^+`` is the trace at the left end of cell ``j`` and ``u_j^-``
the trace at its right end.  All operators carry the ``1/h**2`` scaling
of the discrete problem, so their spectra depend on ``(delta0, gamma)``
only.

Every operator is stored by its 2x2 blocks per cell (``dgtwolevel.blocks``)
and applied in O(n) work; nothing builds an n x n array:

* ``assemble_operator`` and ``assemble_coarse`` return a symmetric
  ``BlockTridiagonal``: diagonal blocks, blocks coupling each cell to the
  next, and a wrap block from the last cell to the first that is zero
  on Dirichlet meshes.
* ``assemble_smoother`` returns the ``BlockDiagonal`` of the block-Jacobi
  smoother.  Point blocks are shifted by one unknown, so the Dirichlet
  point smoother's two unpaired boundary unknowns share one diagonal
  block.
* ``assemble_transfer`` returns ``CellStencil`` transfers that apply the
  fixed 2x4 restriction stencil per coarse cell.

The interior stencil is written once, in ``_interior_blocks``, and the
transfer weights once, in ``_PAIR_STENCIL``; ``fourier`` transforms
these, and with ``_pair_blocks`` and ``_shifted_pair`` it and
``twolevel`` lay them out per coarse cell.

``toarray()`` gives the dense matrix of each.  It is the oracle the tests
compare against at desk scale and feeds the dense iteration matrix; no
solve goes through it.
"""

import numpy as np

from .blocks import BlockDiagonal, BlockTridiagonal, CellStencil, _inverse_2x2
from .config import CELL, DIRICHLET, PERIODIC, POINT, ProblemConfig, check_smoother

# Linear interpolation weights over the four fine unknowns of a coarse
# cell; R applies half of them, P = 2 R^T their transpose.
_PAIR_STENCIL = np.array([[1.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0]])


class SingularBlockError(ValueError):
    """A smoother block cannot be inverted."""

    def __init__(self, block_index: int, message: str):
        self.block_index = block_index
        super().__init__(f"block {block_index}: {message}")


def symmetry_defect(A: np.ndarray) -> float:
    """Return ``max|A - A^T|`` relative to ``max|A|`` (0 for symmetric A)."""
    scale = np.abs(A).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(A - A.T).max() / scale)


def _interior_blocks(delta0, inv_gamma, kind=None):
    """Unscaled interior 2x2 blocks over the broadcast shape of ``delta0``
    and ``inv_gamma``, with no validation: the operator's ``(diag,
    upper)``, rows ``(u_j^+, u_j^-)`` against columns ``(u_j^+, u_j^-)``
    and ``(u_{j+1}^+, u_{j+1}^-)``, for ``kind`` None, else the ``kind``
    smoother's block (a point block pairs ``u_j^-`` with ``u_{j+1}^+``)."""
    d, mu, cross = np.broadcast_arrays(delta0 + inv_gamma / 3.0, inv_gamma / 6.0, 1.0 - delta0)

    def block(*entries):
        return np.stack(entries, axis=-1).reshape(d.shape + (2, 2))

    if kind is None:
        half, zero = np.full(d.shape, -0.5), np.zeros(d.shape)
        return block(d, mu, mu, d), block(half, zero, cross, half)
    off = mu if kind == CELL else cross
    return block(d, off, off, d)


def _dirichlet_corner(config: ProblemConfig) -> float:
    """Unscaled diagonal entry of the Dirichlet operator at a boundary unknown."""
    return 2.0 * config.delta0 - 1.0 + config.inv_gamma / 3.0


def assemble_operator(config: ProblemConfig) -> BlockTridiagonal:
    """Assemble the 2J x 2J interior-penalty reaction-diffusion matrix.

    Interior rows follow the five-point pattern
    ``(1/h^2) * [-1/2, 1/(6 gamma), delta0 + 1/(3 gamma), 1 - delta0, -1/2]``
    (row parity decides which off-diagonal carries the mass coupling and
    which the cross-node penalty coupling).  In periodic mode the pattern
    wraps block-circulantly.  In Dirichlet mode the boundary value is
    imposed weakly: jump and derivative average degenerate to the
    single-sided trace and the boundary face carries penalty weight
    ``2 delta0 / h`` (the doubled weight reproduces the measured Dirichlet
    spectra; a one-sided trace inequality needs twice the interior
    constant).

    The form is coercive for ``delta0 > 1``.  At ``delta0 = 1`` the pure
    diffusion operator is singular for either boundary treatment: the
    alternating mode lies in its kernel, next to the constants in
    periodic mode.  Any finite ``gamma`` adds a mass term that removes
    both.
    """
    J = config.cells
    interior = _interior_blocks(config.delta0, config.inv_gamma)
    diag, upper = (np.tile(block, (J, 1, 1)) for block in interior)
    if config.bc == DIRICHLET:
        (d, mu), corner = diag[0, 0], _dirichlet_corner(config)
        edge = 0.5 + mu
        upper[-1] = 0.0
        diag[0] = [[corner, edge], [edge, d]]
        diag[-1] = [[d, edge], [edge, corner]]
    return BlockTridiagonal(diag / config.h**2, upper / config.h**2)


def smoother_partition(config: ProblemConfig, kind: str) -> list:
    """Index groups of the block-Jacobi partition, in mesh order.

    Cell blocks pair the two unknowns of each cell.  Point blocks pair
    the two unknowns meeting at a node; under Dirichlet conditions the
    two boundary nodes carry a single unknown each, so the first and
    last groups degenerate to singletons.
    """
    J = config.cells
    n = 2 * J
    check_smoother(kind)
    if kind == CELL:
        return [np.array([2 * j, 2 * j + 1]) for j in range(J)]
    if config.bc == PERIODIC:
        return [np.array([2 * j + 1, (2 * j + 2) % n]) for j in range(J)]
    groups = [np.array([0])]
    groups += [np.array([2 * j + 1, 2 * j + 2]) for j in range(J - 1)]
    groups.append(np.array([n - 1]))
    return groups


def assemble_smoother(config: ProblemConfig, kind: str) -> BlockDiagonal:
    """Assemble the block-diagonal smoother D (not its inverse).

    Cell blocks are ``(1/h^2) * [[delta0 + 1/(3 gamma), 1/(6 gamma)],
    [1/(6 gamma), delta0 + 1/(3 gamma)]]`` for every cell; point blocks
    couple the node pair with off-diagonal ``1 - delta0`` and are shifted
    by one unknown.  The Dirichlet point smoother keeps 1x1 corner blocks
    holding the operator's diagonal entry at the unpaired boundary
    unknowns; in the shifted layout both sit in the last block, with a
    zero coupling.

    Raises ``SingularBlockError`` when a block has ``|ad - bc| < 1e-14
    max(1, m)^2``, ``m`` its largest absolute entry, tested by
    ``blocks._inverse_2x2`` without forming the square, so that blocks
    past ``1e154`` are judged like any other;
    ``SingularBlockError.block_index`` counts blocks in
    ``smoother_partition`` order.
    """
    J = config.cells
    blocks = np.tile(_interior_blocks(config.delta0, config.inv_gamma, check_smoother(kind)), (J, 1, 1))
    corners = kind == POINT and config.bc == DIRICHLET
    if corners:
        # unpaired boundary unknowns: diagonal entry of the Dirichlet matrix
        corner = _dirichlet_corner(config)
        blocks[-1] = [[corner, 0.0], [0.0, corner]]
    blocks /= config.h**2
    singular = np.flatnonzero(_inverse_2x2(blocks, 1e-14)[1])
    if singular.size:
        j = int(singular[0])
        # shifted Dirichlet point blocks: block j is group j + 1, and the
        # last block holds the corner groups 0 and J
        index = (j + 1) % J if corners else j
        raise SingularBlockError(index, f"singular smoother block {blocks[j].tolist()}")
    return BlockDiagonal(blocks, shift=0 if kind == CELL else 1)


def assemble_transfer(cells: int) -> tuple:
    """Restriction R (J x 2J) and prolongation P = 2 R^T (2J x J).

    Each coarse cell joins two neighboring fine cells; restriction rows
    are ``(1/2) [1, 1/2, 1/2]`` and ``(1/2) [1/2, 1/2, 1]`` over the four
    fine unknowns of the pair, and P interpolates linearly.  The pattern
    is identical for periodic and Dirichlet meshes (no coupling crosses
    the pairing boundary, so the periodic wrap is vacuous).
    """
    if cells % 2 != 0:
        raise ValueError("cells must be even to coarsen by pairing")
    R = CellStencil(0.5 * _PAIR_STENCIL, cells // 2)
    return R, CellStencil(2.0 * R.stencil.T, cells // 2)


def _pair_blocks(first, second, inner, outer) -> tuple:
    """``(own, next)`` 4x4 blocks of coarse cells that each join two fine
    cells with diagonal blocks ``first``, ``second`` coupled by ``inner``,
    and couple their second fine cell to the next coarse cell's first by
    ``outer``; 2x2 blocks give 4x4 blocks, stacks of them stacks, and
    ``inner`` and ``outer`` may be scalars."""
    own, nxt = np.zeros((2,) + np.shape(first)[:-2] + (4, 4))
    own[..., :2, :2], own[..., 2:, 2:], own[..., :2, 2:] = first, second, inner
    own[..., 2:, :2] = np.swapaxes(own[..., :2, 2:], -1, -2)
    nxt[..., 2:, :2] = outer
    return own, nxt


def _shifted_pair(even, odd) -> tuple:
    """``(own, next)`` 4x4 blocks, as in ``_pair_blocks``, of the point
    smoother's layout shifted by one unknown: ``even`` pairs unknowns 1
    and 2 of a coarse cell, ``odd`` its unknown 3 with unknown 0 of the
    next coarse cell; stacks of symmetric 2x2 blocks give stacks."""
    own, nxt = np.zeros((2,) + np.shape(even)[:-2] + (4, 4))
    own[..., 1:3, 1:3] = even
    own[..., 3, 3], nxt[..., 3, 0], own[..., 0, 0] = odd[..., 0, 0], odd[..., 0, 1], odd[..., 1, 1]
    return own, nxt


def assemble_coarse(A: BlockTridiagonal, R: CellStencil, P: CellStencil) -> BlockTridiagonal:
    """Galerkin coarse operator ``A0 = R A P`` on the J/2 paired cells.

    Coarse cell M joins fine cells 2M and 2M + 1, so its blocks are
    ``R own P`` and ``R next P`` for the ``_pair_blocks`` of the pair:
    only the fine coupling from cell 2M + 1 to 2M + 2 reaches the next
    coarse cell.
    """
    n = A.shape[0]
    if R.shape != (n // 2, n) or P.shape != (n, n // 2) or R.stencil.shape != (2, 4):
        raise ValueError(
            f"incompatible shapes: A {A.shape}, R {R.shape}, P {P.shape}"
        )
    own, nxt = _pair_blocks(A.diag[0::2], A.diag[1::2], A.upper[0::2], A.upper[1::2])
    return BlockTridiagonal(R.stencil @ own @ P.stencil, R.stencil @ nxt @ P.stencil)
