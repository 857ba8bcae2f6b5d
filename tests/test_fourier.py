import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgtwolevel import (
    CELL,
    PERIODIC,
    POINT,
    ProblemConfig,
    assemble_operator,
    assemble_smoother,
    assemble_transfer,
    block_circulant,
    build_iteration_matrix,
    eigenvalue_pair,
    fourier_basis,
    symbol_blocks,
    symbols_at_ck,
    two_grid_eigenvalues,
    two_level_components,
    verify_block_diagonalization,
)
from dgtwolevel import fourier
from dgtwolevel.assembly import _shifted_pair
from dgtwolevel.fourier import Frequency, symbols_at_angle


@pytest.mark.parametrize("cells", [8, 16, 64])
def test_basis_unitarity(cells):
    Q = fourier_basis(cells)
    assert np.abs(Q.conj().T @ Q - np.eye(2 * cells)).max() < 1e-12


def test_identity_block_diagonalizes_exactly():
    blocks = [np.eye(2)] + [np.zeros((2, 2))] * 7
    off, unit = verify_block_diagonalization(blocks, 8)
    assert off < 1e-14 and unit < 1e-13


def test_operator_block_diagonalizes():
    A = assemble_operator(ProblemConfig(8, 2.0, math.inf, PERIODIC)).toarray()
    blocks = [A[0:2, 2 * j : 2 * j + 2] for j in range(8)]
    off, unit = verify_block_diagonalization(blocks, 8)
    assert off < 1e-10 * np.abs(A).max() and unit < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_circulant_block_diagonalizes(seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in range(8)]
    off, unit = verify_block_diagonalization(blocks, 8)
    assert off < 1e-10 and unit < 1e-12


def test_block_circulant_layout():
    blocks = [np.full((2, 2), float(j)) for j in range(4)]
    C = block_circulant(blocks)
    assert C.shape == (8, 8)
    assert np.array_equal(C[0:2, 6:8], blocks[3])
    assert np.array_equal(C[6:8, 0:2], blocks[1])  # offset (0 - 3) mod 4


def test_block_count_mismatch():
    with pytest.raises(ValueError):
        verify_block_diagonalization([np.eye(2)] * 4, 8)
    with pytest.raises(ValueError):
        verify_block_diagonalization(np.zeros((8, 2)), 8)


@pytest.mark.parametrize("cells", [2, 4, 8, 16])
def test_stacked_block_diagonalization_is_the_largest_single_call(cells):
    # one basis and one stacked Q* C Q: the residual is the largest of one
    # call per circulant, bit for bit, whatever the leading axes
    rng = np.random.default_rng(cells)
    stack = rng.uniform(-1.0, 1.0, size=(3, 5, cells, 2, 2))
    C = block_circulant(stack)
    assert C.shape == (3, 5, 2 * cells, 2 * cells)
    singles = []
    for blocks, matrix in zip(stack.reshape(-1, cells, 2, 2), C.reshape(-1, 2 * cells, 2 * cells)):
        assert np.array_equal(matrix, loop_block_circulant(list(blocks)))
        singles.append(verify_block_diagonalization(list(blocks), cells))
    off, unit = verify_block_diagonalization(stack, cells)
    assert off == max(o for o, _ in singles)
    assert all(u == unit for _, u in singles)
    assert verify_block_diagonalization(stack.reshape(-1, cells, 2, 2), cells) == (off, unit)


def test_frequency_validation():
    with pytest.raises(ValueError):
        Frequency(0, 16)
    with pytest.raises(ValueError):
        Frequency(9, 16)
    assert Frequency(4, 16).ck == pytest.approx(math.cos(math.pi), abs=1e-15)


def test_symbol_shapes_and_invariants():
    cfg = ProblemConfig(16, 2.0, 1.0, PERIODIC)
    sym = symbol_blocks(Frequency(3, 16), cfg, POINT, 0.8)
    assert sym.Ahat.shape == (4, 4) and sym.Dhat.shape == (4, 4)
    assert sym.Rhat.shape == (2, 4) and sym.Phat.shape == (4, 2)
    assert sym.A0hat.shape == (2, 2) and sym.Ehat.shape == (4, 4)
    assert np.abs(sym.Phat - 2.0 * sym.Rhat.conj().T).max() < 1e-12
    assert np.abs(sym.A0hat - sym.Rhat @ sym.Ahat @ sym.Phat).max() == 0.0


@pytest.mark.parametrize("gamma", [math.inf, 1.0, 1e-3])
def test_slabs_and_transfer_rows_are_the_assembled_entries(gamma):
    # the slabs hold the unscaled rows 2j .. 2j+3 of each assembled matrix
    # against columns 2j-2 .. 2j+5, bit for bit, at every coarse cell
    cfg = ProblemConfig(8, 1.7, gamma, PERIODIC)
    n = 2 * cfg.cells
    matrices = {None: assemble_operator(cfg)}
    matrices.update((kind, assemble_smoother(cfg, kind)) for kind in (CELL, POINT))
    R, P = (M.toarray() for M in assemble_transfer(cfg.cells))
    for j in range(0, cfg.cells, 2):
        rows, cols = np.arange(2 * j, 2 * j + 4), np.arange(2 * j - 2, 2 * j + 6) % n
        for kind, matrix in matrices.items():
            slab = fourier._stencil_rows(cfg.delta0, cfg.inv_gamma, kind)
            assert slab.tobytes() == (matrix.toarray()[np.ix_(rows, cols)] * cfg.h**2).tobytes()
        # coarse cells j/2 and j/2 + 1: R on their eight fine unknowns, P on
        # the four of the fine cells either side of their shared node
        coarse, fine = np.arange(j, j + 4) % cfg.cells, np.arange(2 * j, 2 * j + 8) % n
        assert fourier._RESTRICTION_ROWS.tobytes() == R[np.ix_(coarse, fine)].tobytes()
        assert fourier._PROLONGATION_ROWS.tobytes() == P[np.ix_(fine[2:6], coarse)].tobytes()
    D = matrices[POINT]
    dense = D.toarray()
    for M in range(cfg.cells // 2):
        own, nxt = _shifted_pair(D.blocks[2 * M], D.blocks[2 * M + 1])
        rows = np.arange(4 * M, 4 * M + 4)
        assert own.tobytes() == dense[np.ix_(rows, rows)].tobytes()
        assert nxt.tobytes() == dense[np.ix_(rows, (rows + 4) % n)].tobytes()


def test_operator_symbol_matches_corrected_print():
    # both diagonal sub-blocks carry -cos of their own frequency angle;
    # the off-diagonal couples mass and penalty terms
    cfg = ProblemConfig(16, 2.0, 0.5, PERIODIC)
    k = 5
    sym = symbol_blocks(Frequency(k, 16), cfg, CELL, 1.0)
    scale = cfg.cells**2
    d = cfg.delta0 + cfg.inv_gamma / 3.0
    mu = cfg.inv_gamma / 6.0
    t = 2.0 * math.pi * k / 16
    for block, ang in ((sym.Ahat[:2, :2], t - math.pi), (sym.Ahat[2:, 2:], t)):
        expected = scale * np.array(
            [
                [d - math.cos(ang), 1 - cfg.delta0 + mu * np.exp(1j * ang)],
                [1 - cfg.delta0 + mu * np.exp(-1j * ang), d - math.cos(ang)],
            ]
        )
        assert np.abs(block - expected).max() < 1e-10 * scale
    assert np.abs(sym.Ahat[:2, 2:]).max() < 1e-10 * scale


def test_smoother_symbols_match_print():
    cfg = ProblemConfig(16, 1.5, 2.0, PERIODIC)
    k = 3
    t = 2.0 * math.pi * k / 16
    scale = cfg.cells**2
    d = cfg.delta0 + cfg.inv_gamma / 3.0
    mu = cfg.inv_gamma / 6.0
    sym_c = symbol_blocks(Frequency(k, 16), cfg, CELL, 1.0)
    for block, ang in ((sym_c.Dhat[:2, :2], t - math.pi), (sym_c.Dhat[2:, 2:], t)):
        expected = scale * np.array(
            [[d, mu * np.exp(1j * ang)], [mu * np.exp(-1j * ang), d]]
        )
        assert np.abs(block - expected).max() < 1e-10 * scale
    sym_p = symbol_blocks(Frequency(k, 16), cfg, POINT, 1.0)
    w = 1.0 - cfg.delta0
    expected = scale * np.array([[d, w], [w, d]])
    assert np.abs(sym_p.Dhat[:2, :2] - expected).max() < 1e-10 * scale
    assert np.abs(sym_p.Dhat[2:, 2:] - expected).max() < 1e-10 * scale


def test_restriction_symbol_matches_print():
    # printed two-row pattern, halved by the transform normalization
    cfg = ProblemConfig(16, 2.0, math.inf, PERIODIC)
    for k in (3, 8):
        sym = symbol_blocks(Frequency(k, 16), cfg, CELL, 1.0)
        t = 2.0 * math.pi * k / 16
        sig, om = np.exp(1j * (t - math.pi)), np.exp(1j * t)
        printed = np.array(
            [
                [2 + sig, sig, 2 + om, om],
                [np.conj(sig), 2 + np.conj(sig), np.conj(om), 2 + np.conj(om)],
            ]
        ) / (2.0 * math.sqrt(2.0))
        assert np.abs(sym.Rhat - printed / 2.0).max() < 1e-12


def test_two_zero_eigenvalues():
    # rank-2 coarse correction leaves two exact zeros per block at every
    # frequency where the coarse block is invertible (all of them except
    # pure diffusion at c_k = 1, covered below)
    for kind, delta0, gamma, alpha in [
        (CELL, 2.0, math.inf, 0.7),
        (POINT, 1.3, 0.5, 1.2),
        (CELL, 4.0, 4.0, 1.0),
    ]:
        for ck in (-0.9, 0.2, 0.99, 1.0):
            if math.isinf(gamma) and ck == 1.0:
                continue
            sym = symbols_at_ck(delta0, gamma, kind, alpha, ck)
            mods = np.sort(np.abs(np.linalg.eigvals(sym.Ehat)))
            assert mods[1] < 1e-10


def test_nonzero_eigenvalues_are_real():
    rng = np.random.default_rng(11)
    for _ in range(40):
        delta0 = rng.uniform(1.0, 10.0)
        gamma = math.exp(rng.uniform(math.log(1 / 16), math.log(16)))
        alpha = rng.uniform(0.0, 2.0)
        ck = rng.uniform(-1.0, 1.0)
        for kind in (CELL, POINT):
            ev = np.linalg.eigvals(symbols_at_ck(delta0, gamma, kind, alpha, ck).Ehat)
            assert np.abs(ev.imag).max() < 1e-10


def test_degenerate_coarse_block_at_ck_one():
    # pure diffusion at c_k = 1: the aliasing pair contains the constant
    # mode, the coarse block drops to rank one and is handled by
    # pseudo-inverse.  The correction then annihilates a single direction
    # and the constant mode passes through with eigenvalue 1, exactly as
    # in the assembled periodic matrix (no rank-2 annihilation exists).
    sym = symbols_at_ck(2.0, math.inf, CELL, 0.9, 1.0)
    assert abs(np.linalg.det(sym.A0hat)) < 1e-10 * np.abs(sym.A0hat).max() ** 2
    ev = np.linalg.eigvals(sym.Ehat)
    assert np.all(np.isfinite(ev))
    assert np.sort(np.abs(ev))[0] < 1e-12
    assert np.abs(ev - 1.0).min() < 1e-12


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("gamma", [1e-155, 1e-200, 1e-300])
def test_symbols_at_tiny_gamma_give_the_closed_form_pair(gamma, kind):
    # the coarse blocks pass 1.3e154 here, where a plain ad - bc overflows
    ck = np.linspace(-1.0, 1.0, 9)
    ev = np.linalg.eigvals(symbols_at_ck(2.0, gamma, kind, 1.0, ck).Ehat)
    # two eigenvalues per block are the zeros of the coarse correction
    pair = np.take_along_axis(ev, np.argsort(np.abs(ev), axis=-1)[:, 2:], axis=-1)
    assert np.abs(pair.imag).max() < 1e-14
    closed = np.sort(np.stack(eigenvalue_pair(ck, 2.0, gamma, 1.0, kind), axis=-1), axis=-1)
    assert np.abs(np.sort(pair.real, axis=-1) - closed).max() < 1e-14


def test_two_grid_eigenvalues_stay_finite_at_tiny_gamma():
    assert np.isfinite(two_grid_eigenvalues(ProblemConfig(1024, 2.0, 1e-150), POINT, 1.0)).all()


@pytest.mark.parametrize(
    "delta0,gamma,kind,alpha",
    [
        (2.0, math.inf, POINT, 1.0),
        (2.0, 1.0, CELL, 0.7),
        (1.2, 1 / 16, POINT, 1.3),
        (4.0, math.inf, CELL, 0.9),
    ],
)
def test_block_union_equals_dense_spectrum(delta0, gamma, kind, alpha):
    cfg = ProblemConfig(16, delta0, gamma, PERIODIC)
    dense = np.linalg.eigvals(build_iteration_matrix(two_level_components(cfg, kind, alpha)))
    blockwise = two_grid_eigenvalues(cfg, kind, alpha)
    assert np.abs(dense.imag).max() < 1e-10
    assert np.abs(blockwise.imag).max() < 1e-10
    assert np.abs(np.sort(dense.real) - np.sort(blockwise.real)).max() < 1e-9


def loop_fourier_basis(cells):
    """Column-by-column reference of :func:`fourier_basis`."""
    J = cells
    h = 1.0 / J
    Q = np.zeros((2 * J, 2 * J), dtype=complex)
    m = np.arange(J)
    for n in range(J):
        kappa = (n + 2) // 2 - J // 2 if n % 2 == 0 else (n + 1) // 2
        Q[2 * m, 2 * n] = np.exp(2j * math.pi * kappa * m * h)
        Q[2 * m + 1, 2 * n + 1] = np.exp(2j * math.pi * kappa * (m + 1) * h)
    return math.sqrt(h) * Q


def loop_block_circulant(blocks):
    """Block-by-block reference of :func:`block_circulant`."""
    J = len(blocks)
    C = np.zeros((2 * J, 2 * J))
    for i in range(J):
        for j in range(J):
            C[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blocks[(j - i) % J]
    return C


@pytest.mark.parametrize("cells", [2, 8, 16, 192])
def test_basis_and_circulant_equal_loop_references(cells):
    assert np.array_equal(fourier_basis(cells), loop_fourier_basis(cells))
    rng = np.random.default_rng(cells)
    blocks = [rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in range(cells)]
    C = loop_block_circulant(blocks)
    assert np.array_equal(block_circulant(blocks), C)
    # the off-block residual masks exactly the 2x2 diagonal blocks
    Q = loop_fourier_basis(cells)
    M = Q.conj().T @ C @ Q
    for n in range(cells):
        M[2 * n : 2 * n + 2, 2 * n : 2 * n + 2] = 0.0
    assert verify_block_diagonalization(blocks, cells)[0] == np.abs(M).max()


SYMBOL_FIELDS = ("Ahat", "Dhat", "Rhat", "Phat", "A0hat", "Ehat")


def assert_close(stacked, scalar):
    assert stacked.shape == scalar.shape
    assert np.abs(stacked - scalar).max() <= 1e-14 * max(1.0, np.abs(scalar).max())


@pytest.mark.parametrize("kind", [CELL, POINT])
def test_stacked_symbols_equal_scalar_calls(kind):
    rng = np.random.default_rng(5)
    n = 12
    delta0 = rng.uniform(1.0, 10.0, n)
    gamma = np.exp(rng.uniform(math.log(1 / 32), math.log(32), n))
    alpha = rng.uniform(0.3, 2.0, n)
    ck = rng.uniform(-1.0, 1.0, n)
    # pure diffusion at c_k = 1 (singular coarse block, pseudo-inverse),
    # the other end c_k = -1 and a finite gamma at c_k = 1
    delta0[:3], gamma[:3], ck[:3] = 2.0, (math.inf, math.inf, 1.0), (1.0, -1.0, 1.0)
    stacked = symbols_at_ck(delta0, gamma, kind, alpha, ck)
    for i in range(n):
        scalar = symbols_at_ck(delta0[i], gamma[i], kind, alpha[i], ck[i])
        for name in SYMBOL_FIELDS:
            assert_close(getattr(stacked, name)[i], getattr(scalar, name))
    singular = symbols_at_ck(2.0, math.inf, kind, alpha[0], 1.0).A0hat
    assert abs(np.linalg.det(singular)) < 1e-10 * np.abs(singular).max() ** 2

    # leading axes broadcast: penalties down, frequencies across
    grid = symbols_at_ck(delta0[:, None], 1.5, kind, 0.9, ck)
    assert grid.Ehat.shape == (n, n, 4, 4) and grid.Rhat.shape == (n, 2, 4)
    for i, j in ((0, 0), (3, 7), (n - 1, 2)):
        assert_close(grid.Ehat[i, j], symbols_at_ck(delta0[i], 1.5, kind, 0.9, ck[j]).Ehat)


@pytest.mark.parametrize(
    "delta0,gamma,kind,alpha",
    [(2.0, math.inf, CELL, 0.7), (1.2, 1 / 16, POINT, 1.3), (4.0, 4.0, CELL, 1.0)],
)
def test_stacked_angles_equal_scalar_blocks(delta0, gamma, kind, alpha):
    cfg = ProblemConfig(32, delta0, gamma, PERIODIC)
    ks = range(1, cfg.cells // 2 + 1)
    t = np.array([Frequency(k, cfg.cells).angle for k in ks])
    stacked = symbols_at_angle(t, delta0, cfg.inv_gamma, kind, alpha, scale=1.0 / cfg.h**2)
    for i, k in enumerate(ks):
        scalar = symbol_blocks(Frequency(k, cfg.cells), cfg, kind, alpha)
        for name in SYMBOL_FIELDS:
            assert_close(getattr(stacked, name)[i], getattr(scalar, name))

    blockwise = two_grid_eigenvalues(cfg, kind, alpha)
    assert blockwise.shape == (cfg.cells * 2,)
    per_k = [
        np.linalg.eigvals(symbol_blocks(Frequency(k, cfg.cells), cfg, kind, alpha).Ehat)
        for k in ks
    ]
    # k-major, four eigenvalues per block
    tol = 1e-12 * max(1.0, np.abs(blockwise).max())
    for block, ref in zip(blockwise.reshape(-1, 4), per_k):
        assert np.abs(np.sort(block.real) - np.sort(ref.real)).max() <= tol
        assert np.abs(block.imag).max() <= tol and np.abs(ref.imag).max() <= tol
    assert np.abs(np.sort(blockwise.real) - np.sort(np.concatenate(per_k).real)).max() <= tol
