"""A Dirichlet mesh of J cells is the odd subspace of the periodic mesh of
2J cells, and ``assembled_rho`` reads Dirichlet radii off the sine blocks
that this reflection gives ``E``.

``Q = [I; -reverse(I)]`` extends a Dirichlet vector oddly to the periodic
mesh: the mirrored cells carry the traces of their images, swapped and
negated.  The assembled operators commute with it (``M_per Q = 4 Q
M_dir``, the 4 being the ``1/h^2`` of the halved cell), so the
orthonormal sine basis ``F`` splits ``E`` into one 4x4 block per coarse
frequency, ``twolevel._sine_blocks`` forms those blocks, and
``twolevel._odd_fold`` recognizes the meshes where that holds.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dgtwolevel import (
    CELL,
    DIRICHLET,
    PERIODIC,
    POINT,
    ProblemConfig,
    build_iteration_matrix,
    spectral_radius_dense,
    two_level_components,
)
from dgtwolevel import twolevel
from dgtwolevel.assembly import assemble_operator, assemble_smoother, assemble_transfer
from dgtwolevel.blocks import BlockDiagonal, BlockTridiagonal
from dgtwolevel.optimal import _alpha_formula
from dgtwolevel.twolevel import TwoLevelComponents, _fold_rho, _odd_fold, assembled_rho
from oracles import compression_rho, pencil_rho

EPS = np.finfo(float).eps
GAMMAS = (math.inf, 1e8, 1e4, 1.0, 0.05, 1e-3)
# the meshes of tests/test_extreme_inputs.py
EXTREME_GAMMAS = (5e-324, 1e-300, 1e-200, 1e-155, 1e-3, 1.0, 1e300, math.inf)
EXTREME_DELTAS = (1.0, 1.5, 3.0, 1e15)


def odd_extension(n):
    """``Q = [I; -reverse(I)]``: ``n`` unknowns to ``2n``."""
    return np.vstack((np.eye(n), -np.eye(n)[::-1]))


@pytest.mark.parametrize("cells", [4, 6, 16, 64])
def test_assembled_operators_commute_with_the_odd_reflection(cells):
    Q, Qc = odd_extension(2 * cells), odd_extension(cells)
    R, P = (op.toarray() for op in assemble_transfer(cells))
    R_per, P_per = (op.toarray() for op in assemble_transfer(2 * cells))
    # quarter and half weights: exact
    assert np.array_equal(R_per @ Q, Qc @ R)
    assert np.array_equal(P_per @ Qc, Q @ P)
    builds = (
        assemble_operator,
        lambda config: assemble_smoother(config, CELL),
        lambda config: assemble_smoother(config, POINT),
    )
    worst = 0.0
    for gamma in GAMMAS:
        for delta0 in (1.05, 1.5, 2.0, 3.0, 10.0):
            dirichlet = ProblemConfig(cells, delta0, gamma, DIRICHLET)
            periodic = ProblemConfig(2 * cells, delta0, gamma, PERIODIC)
            for build in builds:
                folded = 4.0 * Q @ build(dirichlet).toarray()
                gap = np.abs(build(periodic).toarray() @ Q - folded).max()
                worst = max(worst, gap / np.abs(folded).max())
    # measured: eps, from the corner 2 delta0 - 1 + tau/3 against
    # (delta0 + tau/3) - (1 - delta0)
    assert worst <= 2 * EPS


def sine_basis_by_its_formula(cells):
    """``F`` written out entry by entry, as ``(2J, 4 (J/2 + 1))`` with the
    columns of each frequency together."""
    coarse = cells // 2
    F = np.zeros((2 * cells, coarse + 1, 4))
    for k in range(coarse + 1):
        # theta M taken mod 2 pi first: the cosine of an angle near 1000 is
        # off by about 1e-13
        cos, sin = (
            [f(2.0 * math.pi * (k * M % cells) / cells) for M in range(coarse + 1)]
            for f in (math.cos, math.sin)
        )
        for M in range(coarse):
            for l in (0, 1):
                F[4 * M + l, k, 2 * l] = cos[M]
                F[4 * M + 3 - l, k, 2 * l] = -cos[M + 1]
                if 0 < k < coarse:
                    F[4 * M + l, k, 2 * l + 1] = sin[M]
                    F[4 * M + 3 - l, k, 2 * l + 1] = sin[M + 1]
    norms = np.linalg.norm(F, axis=0)
    return (F / np.where(norms > 0, norms, 1.0)).reshape(2 * cells, -1)


@pytest.mark.parametrize("cells", [4, 6, 8, 16, 64, 192])
def test_sine_basis_is_orthonormal_with_ranks_2_4_2(cells):
    F = sine_basis_by_its_formula(cells)
    assert F.shape == (2 * cells, 2 * cells + 4)
    # the sine columns of k = 0 and k = J/2 are zero, every other is a unit
    # vector orthogonal to the rest
    zero = ~F.any(axis=0)
    assert np.flatnonzero(zero).tolist() == [1, 3, 2 * cells + 1, 2 * cells + 3]
    G = F[:, ~zero]
    assert np.abs(G.T @ G - np.eye(2 * cells)).max() <= 1e-14


def diagonal_blocks(F, M):
    """The 4x4 diagonal blocks of ``F^T M F``, as a stack."""
    blocks = len(F[0]) // 4
    full = (F.T @ M @ F).reshape(blocks, 4, blocks, 4)
    k = np.arange(blocks)
    return full[k, :, k, :]


@pytest.mark.parametrize("cells", [4, 6, 8, 16, 64, 192])
def test_sine_blocks_of_a_random_matrix_are_the_diagonal_blocks(cells):
    # no structure of E to hide an index slip: every plane, diagonal and
    # anti-diagonal sum of M enters
    M = np.random.default_rng(cells).standard_normal((2 * cells, 2 * cells))
    F = sine_basis_by_its_formula(cells)
    gap = np.abs(twolevel._sine_blocks(M) - diagonal_blocks(F, M)).max()
    # measured: below 3e-16 |M|
    assert gap <= 1e-14 * np.linalg.norm(M, 2)


def test_sine_route_holds_one_square_array():
    # E is the only n x n array of a Dirichlet row: no dense A beside it,
    # and the sine blocks read it through one (J/2, J) buffer, an eighth
    # of E
    cells = 512
    n = 2 * cells
    config = ProblemConfig(cells, 2.0, 1.0, DIRICHLET)
    tl = two_level_components(config, CELL, _alpha_formula(CELL, 2.0, 1.0))
    tracemalloc.start()
    try:
        assembled_rho(tl)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: 1.35 (2.29 with a dense A and the sine tables' products)
    assert peak < 1.75 * 8 * n * n


def off_block(F, M):
    """Largest entry of ``F^T M F`` outside its 4x4 diagonal blocks."""
    blocks = len(F[0]) // 4
    B = (F.T @ M @ F).reshape(blocks, 4, blocks, 4)
    B[np.arange(blocks), :, np.arange(blocks), :] = 0.0
    return np.abs(B).max()


@pytest.mark.parametrize("cells", [4, 6, 16, 64])
@pytest.mark.parametrize("kind", [CELL, POINT])
def test_sine_basis_block_diagonalizes_the_dirichlet_cycle(kind, cells):
    F = sine_basis_by_its_formula(cells)
    for gamma in GAMMAS:
        for delta0 in (1.05, 1.5, 2.0, 3.0, 10.0):
            config = ProblemConfig(cells, delta0, gamma, DIRICHLET)
            tl = two_level_components(config, kind, _alpha_formula(kind, delta0, gamma))
            A = tl.A.toarray()
            assert off_block(F, A) <= 4 * EPS * np.linalg.norm(A, 2)
            E = build_iteration_matrix(tl)
            # E = I - B A rounds relative to I, not to its own norm (5e-3 at
            # gamma = 1e-3), and carries the rounding of its coarse solves:
            # measured up to 0.62 eps cond(A0) max(1, |E|), that is 2.9e-14
            # at J = 16 and 4.3e-13 at J = 64, both at gamma = inf
            scale = max(1.0, np.linalg.norm(E, 2))
            cond = np.linalg.cond(tl.A0.toarray())
            assert off_block(F, E) <= max(1e-14, EPS * cond) * scale, (gamma, delta0)
            # and the library's blocks are the diagonal ones of F^T E F
            gap = np.abs(twolevel._sine_blocks(E) - diagonal_blocks(F, E)).max()
            assert gap <= 1e-14 * scale


@pytest.mark.parametrize("cells", [4, 6, 8, 16, 64, 192])
@pytest.mark.parametrize("kind", [CELL, POINT])
def test_sine_route_is_the_dense_compression(kind, cells):
    worst = 0.0
    for gamma in GAMMAS:
        for delta0 in (1.05, 2.0, 10.0):
            config = ProblemConfig(cells, delta0, gamma, DIRICHLET)
            for alpha in (_alpha_formula(kind, delta0, gamma), 1.1):
                tl = two_level_components(config, kind, alpha)
                assert _odd_fold(tl)
                worst = max(worst, abs(_fold_rho(tl) - compression_rho(tl)))
    # measured: 3.0e-15
    assert worst <= 1e-13


def test_fold_check_takes_every_uniform_dirichlet_mesh_and_no_periodic_one():
    meshes = [
        (cells, delta0, gamma)
        for cells in (4, 6, 8, 16, 64, 192)
        for delta0 in (1.05, 2.0, 10.0)
        for gamma in GAMMAS
    ] + [
        (cells, delta0, gamma)
        for cells in (4, 6, 8, 64)
        for delta0 in EXTREME_DELTAS
        for gamma in EXTREME_GAMMAS
    ]
    folded = 0
    for cells, delta0, gamma in meshes:
        for kind in (CELL, POINT):
            for bc in (DIRICHLET, PERIODIC):
                try:
                    tl = two_level_components(ProblemConfig(cells, delta0, gamma, bc), kind, 1.0)
                except ValueError:
                    continue  # refused for headroom or at delta0 = 1, gamma = inf
                # a periodic mesh fails on its wrap block even at gamma =
                # 1e-300, where its couplings are below the rounding of d
                assert _odd_fold(tl) == (bc == DIRICHLET), (cells, delta0, gamma, kind, bc)
                folded += bc == DIRICHLET
    assert folded == 420


def one_block_scaled(tl, factor):
    """Copies of ``tl`` with one block of ``A`` or ``D`` scaled by ``factor``,
    for every nonzero block."""
    A, D = tl.A, tl.D
    for cell in range(A.cells):
        for upper in (False, True):
            diag, coupling = A.diag.copy(), A.upper.copy()
            blocks = coupling if upper else diag
            if blocks[cell].any():
                blocks[cell] *= factor
                yield TwoLevelComponents(BlockTridiagonal(diag, coupling), D, tl.alpha)
        blocks = D.blocks.copy()
        blocks[cell] *= factor
        yield TwoLevelComponents(A, BlockDiagonal(blocks, D.shift), tl.alpha)


@pytest.mark.parametrize("kind", [CELL, POINT])
def test_fold_check_refuses_one_block_scaled_by_1e_10(kind):
    for cells in (4, 6, 16):
        for gamma in GAMMAS:
            for delta0 in (1.05, 2.0, 10.0):
                config = ProblemConfig(cells, delta0, gamma, DIRICHLET)
                tl = two_level_components(config, kind, 0.9)
                for bent in one_block_scaled(tl, 1.0 + 1e-10):
                    assert not _odd_fold(bent), (cells, gamma, delta0)
    # such a mesh takes the whole pencil, bit for bit
    bent = next(one_block_scaled(tl, 1.0 + 1e-3))
    assert assembled_rho(bent) == pencil_rho(bent)
    assert assembled_rho(bent) == pytest.approx(compression_rho(bent), abs=1e-14)
    assert abs(assembled_rho(bent) - assembled_rho(tl)) > 1e-6


@pytest.mark.parametrize("kind", [CELL, POINT])
def test_fold_check_needs_a_mirror_symmetric_pattern(kind):
    # interior blocks with unequal diagonals, boundary blocks folded from
    # them: every relation but d = S d S holds, and the sine blocks of E are
    # not those of its spectrum
    tl = two_level_components(ProblemConfig(16, 2.0, 1.0, DIRICHLET), kind, 0.9)
    diag = tl.A.diag.copy()
    diag[:, 0, 0] *= 1.5
    d, u = diag[1], tl.A.upper[0]
    diag[0], diag[-1] = d - u.T[:, ::-1], d - u[:, ::-1]
    bent = TwoLevelComponents(BlockTridiagonal(diag, tl.A.upper), tl.D, tl.alpha)
    assert not _odd_fold(bent)
    sine = spectral_radius_dense(twolevel._sine_blocks(build_iteration_matrix(bent)))
    assert abs(sine - compression_rho(bent)) > 1e-3
    assert assembled_rho(bent) == pencil_rho(bent)
    assert assembled_rho(bent) == pytest.approx(compression_rho(bent), abs=1e-14)


def test_spectral_radius_of_a_stack_of_blocks():
    rng = np.random.default_rng(7)
    blocks = rng.standard_normal((5, 4, 4))
    rho = max(np.abs(np.linalg.eigvals(block)).max() for block in blocks)
    assert spectral_radius_dense(blocks) == pytest.approx(rho, abs=1e-14)
    symmetric = blocks + blocks.swapaxes(1, 2)
    rho = max(np.abs(np.linalg.eigvalsh(block)).max() for block in symmetric)
    assert spectral_radius_dense(symmetric) == pytest.approx(rho, abs=1e-14)
    # shape checks apply to the blocks: many small ones are fine, large
    # ones or non-square ones are not
    assert spectral_radius_dense(np.broadcast_to(np.eye(2), (4000, 2, 2))) == 1.0
    with pytest.raises(ValueError, match="desk scale"):
        spectral_radius_dense(np.broadcast_to(0.0, (2, 1100, 1100)))
    with pytest.raises(ValueError, match="square"):
        spectral_radius_dense(np.ones((3, 4, 5)))
    with pytest.raises(ValueError, match="square"):
        spectral_radius_dense(np.ones(4))
