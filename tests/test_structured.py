"""Structured block operators against dense oracles.

The dense references below are the loop assemblies the structured ones
replaced; ``toarray()`` must reproduce them exactly.  Everything the
two-level method applies is then compared with plain dense linear
algebra on those matrices.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dgtwolevel
from dgtwolevel.blocks import _inverse_2x2
from dgtwolevel import (
    CELL,
    DIRICHLET,
    PERIODIC,
    POINT,
    BlockDiagonal,
    BlockTridiagonal,
    CyclicReduction,
    ProblemConfig,
    alpha_opt,
    apply_preconditioner,
    assemble_operator,
    assemble_smoother,
    assemble_transfer,
    build_iteration_matrix,
    lfa_spectral_radius,
    smoother_partition,
    spectral_radius_dense,
    stationary_solve,
    two_level_components,
)
from dgtwolevel.cli import main
from oracles import rolled_apply, rolled_preconditioner, rolled_solve

EPS = np.finfo(float).eps


def dense_operator(config):
    J = config.cells
    d = config.delta0 + config.inv_gamma / 3.0
    mu = config.inv_gamma / 6.0
    cross = 1.0 - config.delta0
    n = 2 * J
    A = np.zeros((n, n))
    for j in range(J):
        p, m = 2 * j, 2 * j + 1
        A[p, p] = d
        A[m, m] = d
        A[p, m] = A[m, p] = mu
        if j + 1 < J or config.bc == PERIODIC:
            q, r = (2 * j + 2) % n, (2 * j + 3) % n
            A[m, q] = A[q, m] = cross
            A[p, q] = A[q, p] = -0.5
            A[m, r] = A[r, m] = -0.5
    if config.bc == DIRICHLET:
        corner = 2.0 * config.delta0 - 1.0 + config.inv_gamma / 3.0
        edge = 0.5 + mu
        A[0, 0] = corner
        A[0, 1] = A[1, 0] = edge
        A[-1, -1] = corner
        A[-1, -2] = A[-2, -1] = edge
    return A / config.h**2


def dense_smoother(config, kind):
    d = config.delta0 + config.inv_gamma / 3.0
    off = config.inv_gamma / 6.0 if kind == CELL else 1.0 - config.delta0
    D = np.zeros((2 * config.cells, 2 * config.cells))
    for group in smoother_partition(config, kind):
        if len(group) == 1:
            D[group[0], group[0]] = 2.0 * config.delta0 - 1.0 + config.inv_gamma / 3.0
        else:
            a, b = group
            D[a, a] = D[b, b] = d
            D[a, b] = D[b, a] = off
    return D / config.h**2


def dense_transfer(cells):
    R = np.zeros((cells, 2 * cells))
    for M in range(cells // 2):
        c = 4 * M
        R[2 * M, c] = 1.0
        R[2 * M, c + 1] = R[2 * M, c + 2] = 0.5
        R[2 * M + 1, c + 1] = R[2 * M + 1, c + 2] = 0.5
        R[2 * M + 1, c + 3] = 1.0
    R *= 0.5
    return R, 2.0 * R.T


def gap(x, ref):
    """Largest entry of ``x - ref`` relative to the largest of ``ref``."""
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def coarse_oracle(A0, constant_kernel):
    """Dense A0^{-1} from the eigendecomposition, dropping the constant
    mode when A0 is singular on it, and the condition number it inverts."""
    w, V = np.linalg.eigh(A0)
    if constant_kernel:
        w, V = w[1:], V[:, 1:]
    return (V / w) @ V.T, w[-1] / w[0]


GRID = [
    (cells, bc, kind, gamma)
    for cells in (8, 16, 64, 96, 192, 512)
    for bc in (PERIODIC, DIRICHLET)
    for kind in (CELL, POINT)
    for gamma in (math.inf, 1.0, 0.05)
]


@pytest.mark.parametrize("cells,bc,kind,gamma", GRID)
def test_structured_matches_dense_oracle(cells, bc, kind, gamma):
    config = ProblemConfig(cells, 1.7, gamma, bc)
    alpha = 0.8
    tl = two_level_components(config, kind, alpha)
    A, D = dense_operator(config), dense_smoother(config, kind)
    R, P = dense_transfer(cells)
    assert np.array_equal(tl.A.toarray(), A)
    assert np.array_equal(tl.D.toarray(), D)
    assert np.array_equal(tl.R.toarray(), R) and np.array_equal(tl.P.toarray(), P)
    A0 = R @ A @ P
    assert gap(tl.A0.toarray(), A0) < 1e-12

    rng = np.random.default_rng(cells)
    n = 2 * cells
    for g in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        gc = g[: n // 2]
        for op, dense, x in ((tl.A, A, g), (tl.D, D, g), (tl.R, R, g), (tl.P, P, gc), (tl.A0, A0, gc)):
            assert (op @ x).shape == (dense @ x).shape
            assert gap(op @ x, dense @ x) < 1e-12
        assert gap(tl.smooth(g), np.linalg.solve(D, g)) < 1e-12

        # Two float64 solves of a system with condition number kappa agree
        # to about kappa * eps, not better: at J = 512 pure diffusion
        # (kappa 2.3e4) two dense LAPACK routes already differ by 6e-12.
        constant_kernel = math.isinf(gamma) and bc == PERIODIC
        A0inv, kappa = coarse_oracle(A0, constant_kernel)
        tol = max(1e-12, 10.0 * EPS * kappa)
        y = tl.coarse_solve(gc)
        assert gap(y, A0inv @ gc) < tol
        # residual of the projected system: kappa-free
        projected = gc - gc.mean(axis=0) if constant_kernel else gc
        assert gap(A0 @ y, projected) < 1e-12
        if constant_kernel:
            assert np.abs(y.sum(axis=0)).max() < 1e-12 * np.abs(y).max()

        x = alpha * np.linalg.solve(D, g)
        expected = x + P @ A0inv @ R @ (g - A @ x)
        assert gap(apply_preconditioner(tl, g), expected) < tol

    # the oracle goes through A0^{-1} too, so the same kappa-scaled bound
    # holds (gap 1.06e-12 at J = 512 Dirichlet pure diffusion, one BLAS
    # thread)
    E = (np.eye(n) - P @ A0inv @ R @ A) @ (np.eye(n) - alpha * np.linalg.solve(D, A))
    assert gap(build_iteration_matrix(tl), E) < tol


def random_cycle(rng, cells, wrap):
    """Random symmetric, strictly diagonally dominant block-tridiagonal
    matrix (so SPD), with or without a wrap block."""
    upper = rng.uniform(-1.0, 1.0, (cells, 2, 2))
    if not wrap:
        upper[-1] = 0.0
    diag = rng.uniform(-1.0, 1.0, (cells, 2, 2))
    diag = diag + np.swapaxes(diag, 1, 2)
    diag += 6.0 * np.eye(2)
    return BlockTridiagonal(diag, upper)


def sparse_solve(op, b):
    """Direct sparse LU solve with the cycle ``op`` (three or more cells)."""
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    cells = np.arange(op.cells)
    nxt = (cells + 1) % op.cells
    rows, cols, values = [], [], []
    for r, c, blocks in ((cells, cells, op.diag), (cells, nxt, op.upper), (nxt, cells, np.swapaxes(op.upper, 1, 2))):
        for i in (0, 1):
            for j in (0, 1):
                rows.append(2 * r + i)
                cols.append(2 * c + j)
                values.append(blocks[:, i, j])
    n = 2 * op.cells
    A = sparse.csc_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return linalg.spsolve(A, b)


@pytest.mark.parametrize("cells", [1, 2, 3, 64])
@pytest.mark.parametrize("wrap", [False, True])
def test_block_tridiagonal_vector_apply_matches_dense(cells, wrap):
    # a vector goes through the seven bands; with one or two cells both
    # couplings land in the same block and must add up
    rng = np.random.default_rng(cells)
    op = random_cycle(rng, cells, wrap)
    x = rng.standard_normal(2 * cells)
    assert gap(op @ x, op.toarray() @ x) < 1e-14
    # and agrees with the stacked route on the same column
    assert gap(op @ x, (op @ np.column_stack((x, -x)))[:, 0]) < 1e-14


@pytest.mark.parametrize("cells", [1, 2, 3, 64])
@pytest.mark.parametrize("wrap", [False, True])
def test_block_tridiagonal_columns_are_those_of_the_dense_matrix(cells, wrap):
    op = random_cycle(np.random.default_rng(cells), cells, wrap)
    dense = op.toarray()
    n = 2 * cells
    for start in range(n):
        for stop in (start + 1, start + 2, start + 7, start + 64):
            columns = op.columns(start, stop)
            assert np.array_equal(columns, dense[:, start:stop]), (start, stop)
            # whole cells, or the last ones: one contiguous batch
            if start % 2 == 0 and (stop % 2 == 0 or stop >= n):
                assert columns.flags.c_contiguous


def written_out(blocks, x, shift):
    """``D @ x`` as the plain 2x2 product per block."""
    X = np.roll(x, -shift).reshape(-1, 2)
    y = np.empty_like(X)
    y[:, 0] = blocks[:, 0, 0] * X[:, 0] + blocks[:, 0, 1] * X[:, 1]
    y[:, 1] = blocks[:, 1, 0] * X[:, 0] + blocks[:, 1, 1] * X[:, 1]
    return np.roll(y.ravel(), shift)


@pytest.mark.parametrize("cells", [1, 2, 3, 64])
@pytest.mark.parametrize("shift", [0, 1])
def test_block_diagonal_vector_apply_is_the_written_out_product(cells, shift):
    rng = np.random.default_rng(cells)
    D = BlockDiagonal(rng.uniform(-1.0, 1.0, (cells, 2, 2)), shift)
    x = rng.standard_normal(2 * cells)
    # the bands add the same two products per row, so bit for bit
    assert np.array_equal(D @ x, written_out(D.blocks, x, shift))
    assert gap(D @ x, D.toarray() @ x) < 1e-15
    assert gap(D @ x, (D @ np.column_stack((x, x)))[:, 1]) < 1e-15


@pytest.mark.parametrize("cells", [8, 130, 260, 512])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("gamma", [math.inf, 1.0, 0.05])
def test_vector_preconditioner_equals_stacked_column(cells, bc, kind, gamma):
    # the coarse counts 65 (from 130 fine cells), 130 and 256 are reduced
    # to 5, 9 and 16 separators, with chains of 12, 13-14 and 15 cells
    # between them; 4 is solved densely
    tl = two_level_components(ProblemConfig(cells, 1.7, gamma, bc), kind, 0.8)
    G = np.random.default_rng(cells).standard_normal((2 * cells, 2))
    for j in range(2):
        assert gap(apply_preconditioner(tl, G[:, j]), apply_preconditioner(tl, G)[:, j]) < 1e-14


def assert_rolled(apply, rolled, x):
    """``apply(x)`` equals ``rolled(x)`` bit for bit and leaves ``x`` as it
    was."""
    before = x.copy()
    assert np.array_equal(apply(x), rolled(x))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("cells", [4, 6, 8, 16, 64, 130, 192])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("gamma", [math.inf, 0.05, 1e9])
def test_applies_are_the_rolled_expressions_and_keep_their_input(cells, bc, kind, gamma):
    # the stacked applies sum into their result in the order of the
    # written-out expressions; a vector is stationary_solve's residual.
    # Periodic pure diffusion projects the coarse constants out, gamma =
    # 1e9 refines periodic coarse solves, 130 and 192 cells reduce once
    tl = two_level_components(ProblemConfig(cells, 1.7, gamma, bc), kind, 0.9)
    n = 2 * cells
    rng = np.random.default_rng(cells)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 3)), tl.A.columns(0, 64)):
        for op in (tl.A, tl._D_inverse):
            assert_rolled(op.__matmul__, lambda v: rolled_apply(op, v), x)
        assert_rolled(lambda v: apply_preconditioner(tl, v), lambda v: rolled_preconditioner(tl, v), x)
        g = tl.R @ x
        assert_rolled(tl._A0_factor.solve, lambda v: rolled_solve(tl._A0_factor, v), g)


@pytest.mark.parametrize("cells", [3, 65, 130, 1100])
@pytest.mark.parametrize("wrap", [False, True])
def test_cyclic_reduction_solve_is_the_rolled_expression(cells, wrap):
    # 1100 cells reduce twice (69, then 5 separators)
    rng = np.random.default_rng(cells)
    factor = CyclicReduction(random_cycle(rng, cells, wrap))
    for b in (rng.standard_normal(2 * cells), rng.standard_normal((2 * cells, 5))):
        assert_rolled(factor.solve, lambda v: rolled_solve(factor, v), b)
        assert_rolled(factor.op.__matmul__, lambda v: rolled_apply(factor.op, v), b)


# The remainder is inverted densely at 64 cells or fewer; above that a
# level keeps one cell in 16 and eliminates the chains between.  65
# reduces to 5 separators, 97 -> 7 (chains of 12 and 13 cells, so the
# short ones are padded), 130 -> 9, 258 -> 17 and 260 -> 17 (chains of 14
# and 15), 1000 -> 63, and 1100 -> 69 -> 5 and 4100 -> 257 -> 17 take two
# levels; 3 takes the dense path alone.
@pytest.mark.parametrize("cells", [3, 65, 97, 130, 258, 260, 1000, 1100, 4100])
@pytest.mark.parametrize("wrap", [False, True])
def test_cyclic_reduction_odd_and_even_counts(cells, wrap):
    rng = np.random.default_rng(cells)
    op = random_cycle(rng, cells, wrap)
    b = rng.standard_normal((2 * cells, 4))
    x = CyclicReduction(op).solve(b)
    assert gap(op @ x, b) < 1e-12
    if cells <= 1100:
        dense = op.toarray()
        assert np.array_equal(dense, dense.T)
        assert gap(x, np.linalg.solve(dense, b)) < 1e-12
    else:  # a dense matrix of 4100 cells takes 0.5 GiB: sparse LU instead
        assert gap(x, sparse_solve(op, b)) < 1e-12
    # a vector goes through the same levels as a column stack
    assert gap(CyclicReduction(op).solve(b[:, 1]), x[:, 1]) < 1e-14


def test_cyclic_reduction_stores_linear_memory():
    # 32768 cells reduce to 2048, 128 and 8 separators.  Every chunk of 16
    # cells stores its 30x30 chain inverse with 4 rows more and W (30 x
    # 4): about 39 float64 per unknown in all levels, bounded here by 48,
    # where a square array would hold 65536 per unknown.  The build's
    # peak adds one more chain stack.
    cells = 32768
    n = 2 * cells
    op = random_cycle(np.random.default_rng(0), cells, wrap=True)
    tracemalloc.start()
    try:
        factor = CyclicReduction(op)
        stored, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(factor.levels) == 3
    assert stored < 48 * 8 * n
    assert peak < 96 * 8 * n


@pytest.mark.parametrize("cells", [260, 516, 2100])
def test_cyclic_reduction_constant_kernel_matches_pseudo_inverse(cells):
    # periodic pure diffusion on 130, 258 and 1050 coarse cells, reduced
    # to 9, 17 and 66 -> 5 separators
    tl = two_level_components(ProblemConfig(cells, 2.0, math.inf, PERIODIC), CELL, 1.0)
    factor = CyclicReduction(tl.A0)
    assert factor.constant_kernel and factor.refine_steps == 0
    A0 = tl.A0.toarray()
    A0inv, kappa = coarse_oracle(A0, constant_kernel=True)
    g = np.random.default_rng(3).standard_normal(cells)
    y = factor.solve(g)
    assert gap(y, A0inv @ g) < max(1e-12, 10.0 * EPS * kappa)


@pytest.mark.parametrize("cells", [16, 192, 1024])
@pytest.mark.parametrize("gamma", [1e4, 1e9])
def test_weak_reaction_keeps_the_constant_mode(cells, gamma):
    # however small 1/gamma is, A0 is nonsingular and its constant mode is
    # solved, not projected out
    config = ProblemConfig(cells, 2.0, gamma, PERIODIC)
    tl = two_level_components(config, CELL, 1.0)
    assert not CyclicReduction(tl.A0).constant_kernel
    A0 = tl.A0.toarray()
    g = np.random.default_rng(cells).standard_normal((cells, 2))
    kappa = np.linalg.cond(A0)
    assert gap(tl.coarse_solve(g), np.linalg.solve(A0, g)) < max(1e-12, 10.0 * EPS * kappa)


def solver_rho_gap(kind, delta0, gamma, cells):
    """``|rho(E) - rho_lfa|`` on a periodic mesh at the optimal alpha, for
    the iteration matrix ``E`` assembled through the solver's own smoother
    and coarse solve (``sweep --dense`` does not see the coarse solve: its
    similarity cancels the coarse correction)."""
    config = ProblemConfig(cells, delta0, gamma, PERIODIC)
    alpha = alpha_opt(config, kind).alpha_opt
    rho = spectral_radius_dense(build_iteration_matrix(two_level_components(config, kind, alpha)))
    return abs(rho - lfa_spectral_radius(config, kind, alpha))


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("gamma,cells", [(1e9, 192), (1e12, 64)])
def test_nearly_singular_periodic_coarse_solve_is_refined(kind, gamma, cells):
    # A0 has condition number about 4 gamma; without refinement the radius
    # of the solver's E was 7.7e-7 off LFA at gamma = 1e12 (cell smoother,
    # J = 64, delta0 = 2) and 2.8e-12 off at gamma = 1e9 (J = 192, delta0
    # = 1.2); with one step only, 1.9e-11 off at gamma = 1e12
    for delta0 in (1.2, 2.0):
        assert solver_rho_gap(kind, delta0, gamma, cells) <= 1e-12
    # the factorization reads the near-singularity off A0: a periodic weak
    # reaction is refined, while Dirichlet boundary rows (which carry the
    # penalty) and a balanced reaction are not
    for bc, g, steps in ((PERIODIC, gamma, 2), (DIRICHLET, gamma, 0), (PERIODIC, 1e4, 0)):
        A0 = two_level_components(ProblemConfig(64, 2.0, g, bc), kind, 1.0).A0
        factor = CyclicReduction(A0)
        assert not factor.constant_kernel and factor.refine_steps == steps


def sweep_rows(capsys, kind, delta0, gamma, cells):
    """``(rho_lfa, rho_dense)`` of every row of a periodic dense sweep."""
    code = main([
        "sweep", "--smoother", kind, "--dense", "--bc", PERIODIC, "--gamma", gamma,
        "--delta0", delta0, "--alpha", "opt", "--cells", str(cells),
    ])
    assert code == 0
    return [tuple(float(v) for v in row.split(",")[3:]) for row in capsys.readouterr().out.splitlines()[1:]]


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("cells", [64, 192])
def test_periodic_weak_reaction_dense_matches_lfa(capsys, kind, cells):
    # LFA is exact on periodic meshes.  The radius of the solver's own E
    # is held to it as well: its worst gap seen is 1.0e-13 (point
    # smoother, J = 64, gamma = 1e13, delta0 = 2).  A0 is refined where its
    # row sums fall below 1e-8 of its absolute row sums, here from gamma
    # about 1e7 to 1e8 on; refined only above gamma = 1e8, it left E's
    # radius 9.7e-11 off at gamma = 1e8 (cell, J = 64, delta0 = 10)
    gammas = (1e8, 1e9, 1e12, 1e13)
    rows = sweep_rows(capsys, kind, "1.2,2,10", ",".join(map(repr, gammas)), cells)
    assert len(rows) == 12
    for rho_lfa, rho_dense in rows:
        assert abs(rho_dense - rho_lfa) <= 1e-12
    for delta0 in (1.2, 2.0, 10.0):
        for gamma in gammas:
            assert solver_rho_gap(kind, delta0, gamma, cells) <= 1e-12


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("cells", [4, 8, 64, 192])
def test_periodic_dense_matches_lfa_up_to_the_constant_kernel_switch(capsys, kind, cells):
    # gamma 1e13 to 1e15.5: A0's row sums lie within a few hundred eps of
    # its absolute row sums, and the eigenvalues of the iteration matrix,
    # whose coarse solves lose digits there, were up to 6.6e-8 off LFA
    # (point smoother, J = 64, gamma = 1e14.75, delta0 = 2).  The
    # half-size similarity cancels that error: worst 1.0e-15.  Rows past
    # the switch to a constant kernel print the pure-diffusion 1.0.
    gammas = [10.0 ** (13.0 + 0.25 * i) for i in range(11)]
    rows = sweep_rows(capsys, kind, "1.2,2,10", ",".join(map(repr, gammas)), cells)
    configs = [(delta0, gamma) for delta0 in (1.2, 2.0, 10.0) for gamma in gammas]
    assert len(rows) == len(configs)
    checked = 0
    for (delta0, gamma), (rho_lfa, rho_dense) in zip(configs, rows):
        A0 = two_level_components(ProblemConfig(cells, delta0, gamma, PERIODIC), kind, 1.0).A0
        if CyclicReduction(A0).constant_kernel:
            assert rho_dense == 1.0
        else:
            checked += 1
            assert abs(rho_dense - rho_lfa) <= 1e-12
    assert checked >= 20


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize(
    "delta0,gamma,cells", [("1.2,2", "1e16", 64), ("2", "1e20", 64), ("1e8", "1e12", 16)]
)
def test_periodic_dense_without_reaction_term_is_pure_diffusion(capsys, kind, delta0, gamma, cells):
    # the reaction term is below the rounding of A0's rows here, so A0 is
    # singular on the constants as at gamma = inf; inverting it as if
    # nonsingular gave rho_dense 10.51, 2902.9 and 11.57 (cell smoother)
    rows = sweep_rows(capsys, kind, delta0, gamma, cells)
    reference = sweep_rows(capsys, kind, delta0, "inf", cells)
    assert len(rows) == len(reference) == len(delta0.split(","))
    for (_, rho_dense), (_, rho_inf) in zip(rows, reference):
        assert rho_dense == pytest.approx(rho_inf, abs=1e-12)


@pytest.mark.parametrize("kind,rho", [(CELL, 0.35), (POINT, 0.8)])
def test_weak_reaction_dense_spectrum_matches_lfa(kind, rho):
    # LFA is exact on periodic meshes with finite gamma
    config = ProblemConfig(16, 2.0, 1e9, PERIODIC)
    tl = two_level_components(config, kind, 0.9)
    dense = spectral_radius_dense(build_iteration_matrix(tl))
    assert dense == pytest.approx(lfa_spectral_radius(config, kind, 0.9), abs=1e-12)
    assert dense == pytest.approx(rho, abs=1e-8)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("kind", [CELL, POINT])
def test_sweep_dense_column_matches_dense_reference(capsys, bc, kind):
    # The structured route changes rounding, so the rho_dense column is
    # not byte-identical to a dense computation; it is held to 1e-12
    # absolute (about 5e-14 seen at J = 16 and 64).  The column does not
    # see the coarse solve; test_structured_matches_dense_oracle holds
    # the solver's own E to the same reference.  The two-level method
    # rejects delta0 = 1 at gamma = inf, so that penalty runs at finite
    # gamma only.
    cells = 16
    rows = []
    for delta0, gamma in (("1,1.5,2.5", "1,0.05"), ("1.5,2.5", "inf")):
        code = main([
            "sweep", "--smoother", kind, "--delta0", delta0, "--gamma", gamma,
            "--alpha", "opt", "--cells", str(cells), "--bc", bc, "--dense",
        ])
        assert code == 0
        rows += capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 8
    R, P = dense_transfer(cells)
    n = 2 * cells
    for row in rows:
        delta0, gamma, alpha, _, rho_dense = (float(v) for v in row.split(","))
        config = ProblemConfig(cells, delta0, gamma, bc)
        A, D = dense_operator(config), dense_smoother(config, kind)
        A0inv, _ = coarse_oracle(R @ A @ P, math.isinf(gamma) and bc == PERIODIC)
        E = (np.eye(n) - P @ A0inv @ R @ A) @ (np.eye(n) - alpha * np.linalg.solve(D, A))
        assert rho_dense == pytest.approx(np.abs(np.linalg.eigvals(E)).max(), abs=1e-12)


@pytest.mark.parametrize("cells", [64, 256])
@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("gamma,delta0", [(math.inf, 1.5), (1.0, 3.0), (0.05, 1.5)])
def test_iteration_counts_equal_dense_reference(cells, kind, gamma, delta0):
    config = ProblemConfig(cells, delta0, gamma, DIRICHLET)
    alpha = alpha_opt(config, kind).alpha_opt
    tl = two_level_components(config, kind, alpha)
    A, D = dense_operator(config), dense_smoother(config, kind)
    R, P = dense_transfer(cells)
    n = 2 * cells
    Dinv = np.linalg.inv(D)
    Minv = alpha * Dinv + P @ np.linalg.inv(R @ A @ P) @ R @ (np.eye(n) - alpha * A @ Dinv)
    rng = np.random.default_rng(cells)
    for _ in range(3):
        f = rng.standard_normal(n)
        hist = stationary_solve(tl, f, 1e-10, 300)
        u, norms = np.zeros(n), [np.linalg.norm(f)]
        while norms[-1] > 1e-10 * norms[0]:
            u += Minv @ (f - A @ u)
            norms.append(np.linalg.norm(f - A @ u))
        assert hist.converged and hist.iterations == len(norms) - 1
        assert np.abs(np.array(hist.residual_norms) - norms).max() < 1e-12 * norms[0]


@pytest.mark.parametrize("bc,gamma", [(DIRICHLET, math.inf), (PERIODIC, math.inf), (DIRICHLET, 1.0)])
def test_large_mesh_solve_allocates_no_square_array(bc, gamma):
    cells = 4096
    n = 2 * cells
    config = ProblemConfig(cells, 1.5, gamma, bc)
    alpha = alpha_opt(config, CELL).alpha_opt
    f = np.random.default_rng(0).standard_normal(n)
    if bc == PERIODIC:
        f -= f.mean()  # the singular periodic problem needs f orthogonal to constants
    tracemalloc.start()
    try:
        tl = two_level_components(config, CELL, alpha)
        hist = stationary_solve(tl, f, 1e-10, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.converged
    # an n x n float64 array is 512 MiB; the whole build and solve stays
    # within 64 vectors of length n (4 MiB)
    assert peak < 64 * n * 8


def test_import_pulls_in_no_scipy():
    src = str(Path(dgtwolevel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, dgtwolevel; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"


def test_block_diagonal_inverse_is_the_adjugate():
    rng = np.random.default_rng(5)
    blocks = rng.uniform(-1.0, 1.0, (1000, 2, 2))
    D = BlockDiagonal(blocks, shift=1)
    reference = np.linalg.inv(blocks)
    error = np.abs(D.inverse().blocks - reference).max(axis=(1, 2)) / np.abs(reference).max(axis=(1, 2))
    assert (error < 2.0 * EPS * np.linalg.cond(blocks)).all()
    blocks[7] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(np.linalg.LinAlgError, match="singular block 7"):
        BlockDiagonal(blocks).inverse()


def _random_blocks(seed: int, count: int = 2000) -> np.ndarray:
    """Blocks whose entries have random signs and magnitudes in [1e-50, 1e50]."""
    rng = np.random.default_rng(seed)
    return rng.choice((-1.0, 1.0), (count, 2, 2)) * 10.0 ** rng.uniform(-50.0, 50.0, (count, 2, 2))


def test_inverse_2x2_is_the_adjugate_bit_for_bit():
    # dividing each block by a power of two is exact, so in range the
    # scaled adjugate formula rounds like the plain one
    M = _random_blocks(7)
    (a, b), (c, d) = np.moveaxis(M, 0, -1)
    det = a * d - b * c
    plain = np.stack((d, -b, -c, a), axis=-1).reshape(M.shape) / det[:, None, None]
    inverse, singular = _inverse_2x2(M)
    assert not singular.any()
    assert np.array_equal(inverse, plain)
    complex_blocks = M * np.exp(1j * np.random.default_rng(8).uniform(0.0, 6.3, M.shape))
    (a, b), (c, d) = np.moveaxis(complex_blocks, 0, -1)
    plain = np.stack((d, -b, -c, a), axis=-1).reshape(M.shape) / (a * d - b * c)[:, None, None]
    assert np.array_equal(_inverse_2x2(complex_blocks)[0], plain)


@pytest.mark.parametrize("power", [-600, 600])
def test_inverse_2x2_stays_accurate_far_from_one(power):
    # at 2^600 the plain determinant overflows, at 2^-600 it underflows
    M = _random_blocks(9)
    with np.errstate(all="ignore"):
        inverse = _inverse_2x2(np.ldexp(M, power))[0]
    assert np.isfinite(inverse).all()
    reference = np.linalg.inv(M)
    error = np.abs(np.ldexp(inverse, power) - reference).max(axis=(1, 2))
    assert (error <= 4.0 * EPS * np.linalg.cond(M) * np.abs(reference).max(axis=(1, 2))).all()


def test_operators_reject_mismatched_columns():
    R, P = assemble_transfer(8)
    with pytest.raises(ValueError):
        R @ np.ones(12)
    A = assemble_operator(ProblemConfig(8, 2.0))
    with pytest.raises(ValueError):
        BlockTridiagonal(A.diag, A.upper[:-1])
    D = assemble_smoother(ProblemConfig(8, 2.0), POINT)
    assert D.shift == 1 and D.inverse().shift == 1
