import math

import numpy as np
import pytest

from dgtwolevel import (
    BlockTridiagonal,
    CELL,
    DIRICHLET,
    PERIODIC,
    POINT,
    ProblemConfig,
    assemble_coarse,
    assemble_operator,
    assemble_smoother,
    assemble_transfer,
    smoother_partition,
    symmetry_defect,
)


def test_interior_stencil_poisson_periodic():
    # every row of h^2 * A: diagonal 2, off-diagonals {-1, -1/2, -1/2}
    cfg = ProblemConfig(4, 2.0, math.inf, PERIODIC)
    S = assemble_operator(cfg).toarray() * cfg.h**2
    for i in range(8):
        assert S[i, i] == 2.0
        off = sorted(S[i, j] for j in range(8) if j != i and S[i, j] != 0.0)
        assert off == [-1.0, -0.5, -0.5]


def test_symmetry_exact():
    for bc in (PERIODIC, DIRICHLET):
        for gamma in (math.inf, 1.0, 1 / 16):
            A = assemble_operator(ProblemConfig(8, 2.5, gamma, bc)).toarray()
            assert symmetry_defect(A) == 0.0


def test_row_sums_vanish_only_where_stencil_complete():
    # pure diffusion: complete stencil rows annihilate constants
    ones = np.ones(8)
    A = assemble_operator(ProblemConfig(4, 2.0, math.inf, PERIODIC)).toarray()
    assert np.abs(A @ ones).max() == 0.0
    A = assemble_operator(ProblemConfig(4, 2.0, math.inf, DIRICHLET)).toarray()
    sums = A @ ones
    assert np.abs(sums[2:-2]).max() == 0.0  # interior rows complete
    assert np.all(np.abs(sums[[0, 1, -2, -1]]) > 0.0)  # boundary rows are not


@pytest.mark.parametrize(
    "cells,delta0,gamma,bc",
    [
        (5, 2.0, 1.0, PERIODIC),
        (2, 2.0, 1.0, PERIODIC),
        (8, 0.9, 1.0, PERIODIC),
        (8, math.inf, 1.0, PERIODIC),
        (8, math.nan, 1.0, PERIODIC),
        (8, 2.0, 0.0, PERIODIC),
        (8, 2.0, -1.0, PERIODIC),
        (8, 2.0, 1.0, "neumann"),
    ],
)
def test_config_rejected(cells, delta0, gamma, bc):
    with pytest.raises(ValueError):
        ProblemConfig(cells, delta0, gamma, bc)


@pytest.mark.parametrize("cells", [8.0, np.float64(8.0), "8"])
def test_config_rejects_non_integral_cells(cells):
    with pytest.raises(ValueError, match="integer"):
        ProblemConfig(cells, 2.0)


def test_config_accepts_numpy_integer_cells():
    assert ProblemConfig(np.int64(8), 2.0).h == 1 / 8


def test_positive_definite_dirichlet():
    # dense factorization oracle
    A = assemble_operator(ProblemConfig(64, 2.0, 1.0, DIRICHLET)).toarray()
    np.linalg.cholesky(A)


@pytest.mark.parametrize("delta0", [1.0, 1.5, 2.0, 10.0, 50.0])
@pytest.mark.parametrize("gamma", [1 / 16, 1.0, 16.0, math.inf])
def test_definiteness_lattice(delta0, gamma):
    A = assemble_operator(ProblemConfig(16, delta0, gamma, DIRICHLET)).toarray()
    smallest = np.linalg.eigvalsh(A)[0]
    if delta0 == 1.0 and math.isinf(gamma):
        # boundary coercivity equality: exactly one zero eigenvalue
        assert abs(smallest) < 1e-10 * np.abs(A).max()
    else:
        assert smallest > 0.0


@pytest.mark.parametrize(
    "gamma,bc,delta0,zeros",
    [
        (math.inf, DIRICHLET, 1.0, 1),  # the alternating mode
        (math.inf, DIRICHLET, 1.01, 0),
        (math.inf, PERIODIC, 1.0, 2),  # the alternating mode and the constants
        (math.inf, PERIODIC, 1.01, 1),  # the constants
        (1.0, DIRICHLET, 1.0, 0),
        (1.0, PERIODIC, 1.0, 0),
    ],
)
def test_kernel_dimension_at_the_penalty_edge(gamma, bc, delta0, zeros):
    ev = np.abs(np.linalg.eigvalsh(assemble_operator(ProblemConfig(16, delta0, gamma, bc)).toarray()))
    assert np.count_nonzero(ev < 1e-10 * ev.max()) == zeros


def test_cell_smoother_poisson_blocks():
    # every block equals (1/h^2) * [[2, 0], [0, 2]], under both boundary modes
    for bc in (PERIODIC, DIRICHLET):
        cfg = ProblemConfig(8, 2.0, math.inf, bc)
        D = assemble_smoother(cfg, CELL).toarray() * cfg.h**2
        expected = np.kron(np.eye(8), 2.0 * np.eye(2))
        assert np.array_equal(D, expected)


def test_point_smoother_poisson_blocks():
    cfg = ProblemConfig(8, 2.0, math.inf, PERIODIC)
    D = assemble_smoother(cfg, POINT).toarray() * cfg.h**2
    block = np.array([[2.0, -1.0], [-1.0, 2.0]])
    for group in smoother_partition(cfg, POINT):
        assert np.array_equal(D[np.ix_(group, group)], block)
    # Dirichlet: interior blocks unchanged, unpaired corners carry the
    # operator's diagonal entry
    cfg = ProblemConfig(8, 2.0, math.inf, DIRICHLET)
    D = assemble_smoother(cfg, POINT).toarray() * cfg.h**2
    A = assemble_operator(cfg).toarray() * cfg.h**2
    groups = smoother_partition(cfg, POINT)
    assert len(groups[0]) == len(groups[-1]) == 1
    assert D[0, 0] == A[0, 0] and D[-1, -1] == A[-1, -1]
    for group in groups[1:-1]:
        assert np.array_equal(D[np.ix_(group, group)], block)


def test_cell_smoother_reaction_block():
    cfg = ProblemConfig(8, 1.0, 1.0, PERIODIC)
    D = assemble_smoother(cfg, CELL).toarray() * cfg.h**2
    block = D[0:2, 0:2]
    assert np.allclose(block, [[4 / 3, 1 / 6], [1 / 6, 4 / 3]], rtol=0, atol=1e-15)
    assert np.linalg.det(block) == pytest.approx(16 / 9 - 1 / 36, rel=1e-14)


def test_transfer_operators():
    R, P = (T.toarray() for T in assemble_transfer(4))
    assert R.shape == (4, 8) and P.shape == (8, 4)
    assert np.array_equal(P, 2.0 * R.T)
    # rows of the printed pattern sum to 1: R maps constants to constants
    assert np.allclose(R @ np.ones(8), np.ones(4), rtol=0, atol=0)
    R8 = assemble_transfer(8)[0].toarray()
    assert all(np.count_nonzero(R8[i]) == 3 for i in range(8))
    with pytest.raises(ValueError):
        assemble_transfer(5)


def test_coarse_identity_matrix():
    R, P = assemble_transfer(4)
    identity = BlockTridiagonal(np.tile(np.eye(2), (4, 1, 1)), np.zeros((4, 2, 2)))
    A0 = assemble_coarse(identity, R, P).toarray()
    R = R.toarray()
    assert np.array_equal(A0, 2.0 * R @ R.T)
    assert symmetry_defect(A0) == 0.0


@pytest.mark.parametrize("gamma", [math.inf, 1.0, 0.25])
def test_coarse_equals_doubled_penalty_assembly(gamma):
    # R A P is the same discretization on the paired mesh: penalty doubles
    # and the reaction scaling divides by four (H = 2h).
    fine = ProblemConfig(8, 2.0, gamma, PERIODIC)
    A = assemble_operator(fine)
    R, P = assemble_transfer(8)
    A0 = assemble_coarse(A, R, P).toarray()
    coarse_gamma = math.inf if math.isinf(gamma) else gamma / 4.0
    C = assemble_operator(ProblemConfig(4, 4.0, coarse_gamma, PERIODIC)).toarray()
    assert np.abs(A0 - C).max() < 1e-12 * np.abs(C).max()


def test_coarse_spectrum_positive():
    # dense eigensolver oracle
    cfg = ProblemConfig(64, 1.5, 1.0, DIRICHLET)
    A = assemble_operator(cfg)
    R, P = assemble_transfer(64)
    A0 = assemble_coarse(A, R, P).toarray()
    assert np.linalg.eigvalsh(A0).min() > 0.0


def test_galerkin_identity_reverified():
    cfg = ProblemConfig(16, 1.7, 2.0, PERIODIC)
    A = assemble_operator(cfg)
    R, P = assemble_transfer(16)
    A0 = assemble_coarse(A, R, P).toarray()
    A, R, P = A.toarray(), R.toarray(), P.toarray()
    # independent association and an elementwise triple sum
    assert np.abs(A0 - (R @ A) @ P).max() == 0.0
    probe = np.einsum("ik,kl,lj->ij", R[:4], A, P[:, :4])
    assert np.allclose(A0[:4, :4], probe, rtol=0, atol=1e-12 * np.abs(A0).max())


def test_coarse_shape_mismatch():
    R, P = assemble_transfer(4)
    with pytest.raises(ValueError):
        assemble_coarse(np.eye(6), R, P)
