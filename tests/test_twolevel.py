import math
import warnings

import numpy as np
import pytest

from dgtwolevel import (
    CELL,
    DIRICHLET,
    PERIODIC,
    POINT,
    IterationHistory,
    ProblemConfig,
    alpha_opt_poisson,
    apply_preconditioner,
    assembled_mu,
    assembled_rho,
    build_iteration_matrix,
    convergence_factor,
    eigenvalue_pair,
    lfa_spectral_radius,
    spectral_radius_dense,
    stationary_solve,
    two_level_components,
)
from dgtwolevel import twolevel
from dgtwolevel.blocks import BlockDiagonal, BlockTridiagonal
from dgtwolevel.cli import main
from dgtwolevel.closed_forms import mesh_ck
from dgtwolevel.fourier import Frequency, symbol_blocks
from dgtwolevel.optimal import _alpha_formula
from dgtwolevel.twolevel import (
    TwoLevelComponents,
    _coarse_cell_blocks,
    _pencil_mu,
)
from oracles import compression_rho, pencil_rho


def explicit_preconditioner(tl):
    """Dense M^{-1} = alpha D^{-1} + P A0^+ R (I - alpha A D^{-1})."""
    A, D, R, P, A0 = (op.toarray() for op in (tl.A, tl.D, tl.R, tl.P, tl.A0))
    Dinv = np.linalg.inv(D)
    A0inv = np.linalg.pinv(A0)
    return tl.alpha * Dinv + P @ A0inv @ R @ (np.eye(len(A)) - tl.alpha * A @ Dinv)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
def test_components_reject_singular_pure_diffusion(bc):
    with pytest.raises(ValueError, match="singular on the alternating mode"):
        two_level_components(ProblemConfig(16, 1.0, math.inf, bc), CELL, 0.9)
    # any finite gamma makes the operator definite again
    hist = stationary_solve(
        two_level_components(ProblemConfig(16, 1.0, 1.0, bc), CELL, 0.9),
        np.random.default_rng(1).standard_normal(32), 1e-10, 500,
    )
    assert hist.converged


def test_apply_zero_residual():
    tl = two_level_components(ProblemConfig(8, 2.0, 1.0, PERIODIC), CELL, 0.7)
    assert np.array_equal(apply_preconditioner(tl, np.zeros(16)), np.zeros(16))


def test_apply_alpha_zero_is_pure_coarse_correction():
    tl = two_level_components(ProblemConfig(8, 2.0, 1.0, DIRICHLET), POINT, 0.0)
    rng = np.random.default_rng(7)
    g = rng.standard_normal(16)
    expected = tl.P @ tl.coarse_solve(tl.R @ g)
    assert np.allclose(apply_preconditioner(tl, g), expected, rtol=0, atol=1e-14)


def test_apply_matches_explicit_matrix_column():
    tl = two_level_components(ProblemConfig(8, 2.0, math.inf, PERIODIC), CELL, 2 / 3)
    M = explicit_preconditioner(tl)
    e1 = np.zeros(16)
    e1[0] = 1.0
    assert np.abs(apply_preconditioner(tl, e1) - M[:, 0]).max() < 1e-12


def test_coarse_correction_is_projector():
    tl = two_level_components(ProblemConfig(16, 2.0, 1.0, DIRICHLET), CELL, 1.0)
    n = tl.A.shape[0]
    proj = np.eye(n) - tl.P @ tl.coarse_solve(tl.R @ tl.A.toarray())
    assert np.abs(proj @ proj - proj).max() < 1e-10


def test_projector_annihilates_coarse_space():
    tl = two_level_components(ProblemConfig(8, 1.5, 4.0, PERIODIC), CELL, 0.0)
    E = build_iteration_matrix(tl)
    P = tl.P.toarray()
    assert np.abs(E @ P).max() < 1e-12 * np.abs(P).max()


def test_iteration_matrix_vs_preconditioner_columns():
    tl = two_level_components(ProblemConfig(8, 1.3, 0.5, DIRICHLET), POINT, 0.9)
    A = tl.A.toarray()
    n = A.shape[0]
    E = build_iteration_matrix(tl)
    for j in range(0, n, 3):
        col = np.eye(n)[:, j] - apply_preconditioner(tl, A[:, j])
        assert np.abs(E[:, j] - col).max() < 1e-12


@pytest.mark.parametrize("cells", [4, 6, 8, 16, 64, 130, 192])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
def test_iteration_matrix_is_the_loop_over_dense_columns(bc, cells):
    # the batches of A's columns come from its blocks, not from a dense A:
    # the same E, bit for bit, as batches cut from A.toarray()
    for kind in (CELL, POINT):
        for gamma in (math.inf, 1.0, 0.05):
            tl = two_level_components(ProblemConfig(cells, 1.7, gamma, bc), kind, 0.9)
            A = tl.A.toarray()
            E = np.eye(len(A))
            for j in range(0, len(A), 64):
                E[:, j : j + 64] -= apply_preconditioner(tl, A[:, j : j + 64])
            assert np.array_equal(build_iteration_matrix(tl), E), (kind, gamma)


@pytest.mark.parametrize("columns", [1, 7, 80, 1000])
def test_iteration_matrix_does_not_depend_on_its_column_batches(monkeypatch, columns):
    # J = 40: 80 columns, so the default batches of 64 leave a part batch;
    # batches narrower than numpy's vector width may round differently
    tl = two_level_components(ProblemConfig(40, 1.7, 0.5, PERIODIC), CELL, 0.9)
    E = build_iteration_matrix(tl)
    monkeypatch.setattr(twolevel, "_E_COLUMNS", columns)
    assert np.abs(build_iteration_matrix(tl) - E).max() <= 4 * np.finfo(float).eps


def test_unrelaxed_point_dirichlet_converges():
    tl = two_level_components(ProblemConfig(64, 2.0, math.inf, DIRICHLET), POINT, 1.0)
    rho = spectral_radius_dense(build_iteration_matrix(tl))
    assert math.isfinite(rho) and rho < 1.0


def test_spectral_radius_basics():
    assert spectral_radius_dense(np.eye(8)) == 1.0
    assert spectral_radius_dense(np.diag([1.0, -3.0, 2.0])) == 3.0


def test_spectral_radius_companion_golden_ratio():
    companion = np.array([[1.0, 1.0], [1.0, 0.0]])  # x^2 - x - 1
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert spectral_radius_dense(companion) == pytest.approx(golden, abs=1e-12)


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_radius_dense(np.ones((3, 4)))
    with pytest.raises(ValueError):
        spectral_radius_dense(np.eye(1100))
    # assembled_rho refuses a Dirichlet mesh above desk scale before building E
    with pytest.raises(ValueError, match="desk scale"):
        assembled_rho(two_level_components(ProblemConfig(1026, 2.0, bc=DIRICHLET), CELL, 1.0))


def test_spectral_radius_of_a_symmetric_matrix_is_its_extreme_modulus():
    # the extreme eigenvalue here is negative, so the radius is its modulus
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    M = (Q * np.linspace(-3.0, 2.0, 40)) @ Q.T
    M = 0.5 * (M + M.T)
    assert np.array_equal(M, M.T)
    rho = spectral_radius_dense(M)
    assert rho == pytest.approx(float(np.abs(np.linalg.eigvals(M)).max()), abs=1e-12)
    assert rho == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("cells", [4, 6, 8, 16, 64])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("kind", [CELL, POINT])
def test_assembled_rho_is_the_iteration_matrix_radius(kind, bc, cells):
    # the similarity of half size against the full nonsymmetric eigensolve;
    # gamma stays where the coarse solve inside E is accurate (near the
    # constant-kernel switch E itself is off, see test_structured)
    for gamma in (math.inf, 1e8, 1e4, 1.0, 1e-3):
        for delta0 in (1.2, 2.0, 10.0):
            for alpha in (0.7, 1.1):
                tl = two_level_components(ProblemConfig(cells, delta0, gamma, bc), kind, alpha)
                rho = assembled_rho(tl)
                assert rho == pytest.approx(spectral_radius_dense(build_iteration_matrix(tl)), abs=1e-12)
                if bc == PERIODIC and math.isinf(gamma):
                    assert rho >= 1.0  # the constant vector is left untouched


@pytest.mark.parametrize("cells", [4, 6, 8, 16, 64, 192])
@pytest.mark.parametrize("kind", [CELL, POINT])
def test_frequency_route_equals_dense_compression(kind, cells):
    # the frequency route called directly, past the dispatch of
    # assembled_rho, against the compression oracle; the gammas reach past
    # the constant-kernel switch (1e14 at delta0 = 10)
    worst = 0.0
    for gamma in (math.inf, 1e14, 1e13, 1e12, 1e8, 1e4, 1.0, 0.05, 1e-3):
        for delta0 in (1.05, 1.2, 2.0, 3.0, 10.0):
            config = ProblemConfig(cells, delta0, gamma, PERIODIC)
            for alpha in (_alpha_formula(kind, config.delta0, config.gamma), 0.7, 1.1):
                tl = two_level_components(config, kind, alpha)
                stacks = _coarse_cell_blocks(tl)
                assert stacks is not None
                rho = np.abs(1.0 - alpha * _pencil_mu(*stacks)).max()
                worst = max(worst, abs(rho - compression_rho(tl)))
    assert worst <= 1e-14


def dense_pencil_mu(tl):
    """The ``mu`` of the pencil ``(Z^T A D^{-1} A Z, Z^T A Z)`` from dense
    matrices, by eigvals, on any mesh: ``Z = W - P A0^{-1} R A W`` for
    ``W`` the orthonormal complement of ``range(P)`` by one QR, and ``A0``
    shifted off the constants on a constant kernel."""
    A, Dinv, R, P, A0 = (op.toarray() for op in (tl.A, tl._D_inverse, tl.R, tl.P, tl.A0))
    if tl._A0_factor.constant_kernel:
        A0 += np.abs(A0).max() / len(A0)
    W = np.linalg.qr(P, mode="complete")[0][:, P.shape[1] :]
    Z = W - P @ np.linalg.solve(A0, R @ A @ W)
    AZ = A @ Z
    return np.sort(np.linalg.eigvals(np.linalg.solve(AZ.T @ Z, AZ.T @ Dinv @ AZ)).real)


def assert_whole_mesh_pencil(tl):
    """``assembled_mu`` on a mesh without coarse-cell symmetry against the
    eigvals oracle, and ``max |1 - alpha mu|`` over it against the dense
    compression of ``E`` (``oracles.compression_rho``)."""
    assert _coarse_cell_blocks(tl) is None
    mu = assembled_mu(tl)
    assert mu.shape == (tl.A.cells,) and np.all(np.diff(mu) >= 0.0)
    assert np.abs(mu - dense_pencil_mu(tl)).max() <= 1e-13
    assert np.abs(1.0 - tl.alpha * mu).max() == pytest.approx(compression_rho(tl), abs=1e-14)


@pytest.mark.parametrize("cells", [4, 6, 8, 16, 64, 192])
@pytest.mark.parametrize("kind", [CELL, POINT])
def test_periodic_assembled_mu_is_the_dense_pencil(kind, cells):
    # the frequency route, sorted, against the whole pencil; gamma = inf
    # and 1e14 take the constant-kernel shift of A0
    worst = 0.0
    for gamma in (math.inf, 1e14, 1e13, 1e12, 1e8, 1e4, 1.0, 0.05, 1e-3):
        for delta0 in (1.05, 1.2, 2.0, 3.0, 10.0):
            tl = two_level_components(ProblemConfig(cells, delta0, gamma, PERIODIC), kind, 1.0)
            mu = assembled_mu(tl)
            assert mu.shape == (cells,) and np.all(np.diff(mu) >= 0.0)
            worst = max(worst, np.abs(mu - dense_pencil_mu(tl)).max())
    assert worst <= 1e-13


@pytest.mark.parametrize("kind", [CELL, POINT])
def test_dirichlet_assembled_mu_is_the_dense_pencil(kind):
    tl = two_level_components(ProblemConfig(16, 1.5, 1.0, DIRICHLET), kind, 0.9)
    # 1 - alpha mu are the nonzero eigenvalues of E
    rho = np.abs(1.0 - tl.alpha * assembled_mu(tl)).max()
    assert rho == pytest.approx(spectral_radius_dense(build_iteration_matrix(tl)), abs=1e-12)
    for cells in (4, 6, 16, 64):
        for gamma in (math.inf, 1e8, 1e4, 1.0, 0.05, 1e-3):
            for delta0 in (1.05, 2.0, 10.0):
                config = ProblemConfig(cells, delta0, gamma, DIRICHLET)
                for alpha in (_alpha_formula(kind, delta0, gamma), 1.1):
                    assert_whole_mesh_pencil(two_level_components(config, kind, alpha))


@pytest.mark.parametrize("kind", [CELL, POINT])
def test_dense_optimum_on_a_periodic_65536_cell_mesh_is_the_closed_form_one(kind):
    # assembled_mu's frequency route is O(J): no dense matrix at this size
    config = ProblemConfig(65536, 2.0, 1.0, PERIODIC)
    plus, minus = eigenvalue_pair(mesh_ck(config.cells), config.delta0, config.gamma, 1.0, kind)
    mu = 1.0 - np.concatenate((plus, minus))
    expected = 2.0 / (mu.min() + mu.max())
    mu = assembled_mu(two_level_components(config, kind, 1.0))
    assert 2.0 / (mu[0] + mu[-1]) == pytest.approx(expected, abs=1e-12)


def test_dense_optimum_refuses_large_dirichlet_meshes_before_building():
    with pytest.raises(ValueError, match="desk scale"):
        assembled_mu(two_level_components(ProblemConfig(1026, 2.0, 1.0, DIRICHLET), CELL, 1.0))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
def test_components_reject_a_non_finite_relaxation(bc, alpha):
    with pytest.raises(ValueError, match=f"relaxation alpha must be finite, got {alpha}"):
        two_level_components(ProblemConfig(16, 2.0, 1.0, bc), CELL, alpha)


# gamma across the end of the float range, down to the smallest subnormal
HEADROOM_GAMMAS = [float(g) for g in np.geomspace(1e-310, 1e-290, 21)] + [5e-324]


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize(
    "bc, cells, tol",
    [(PERIODIC, J, 1e-9) for J in (4, 64, 1024)] + [(DIRICHLET, J, 5e-4) for J in (4, 64, 192)],
)
def test_tiny_gamma_answers_or_refuses_for_headroom(bc, cells, tol, kind):
    # each gamma either matches the closed forms or is refused up front:
    # never a warning, a LAPACK error or a wrong radius
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in HEADROOM_GAMMAS:
            alpha = float(_alpha_formula(kind, 2.0, gamma))
            rho_lfa = float(lfa_spectral_radius(ProblemConfig(cells, 2.0, gamma), kind, alpha))
            config = ProblemConfig(cells, 2.0, gamma, bc)
            try:
                tl = two_level_components(config, kind, alpha)
            except ValueError as exc:
                assert str(exc) == (
                    f"gamma={gamma} at J={cells}: the assembled operators leave no "
                    "floating-point headroom; the closed forms (sweep without --dense) still answer"
                )
                refused += 1
                continue
            assert abs(assembled_rho(tl) - rho_lfa) <= tol, gamma
    # the smallest gammas are refused at every mesh, the largest at none
    assert 2 <= refused < len(HEADROOM_GAMMAS) - 5


def perturbed(tl, operator, cell, factor):
    """A copy of the cycle ``tl`` whose ``A`` diagonal block or ``D`` block
    ``cell`` is scaled by ``factor`` (every block when ``cell`` is None)."""
    blocks = (tl.A.diag if operator == "A" else tl.D.blocks).copy()
    blocks[slice(None) if cell is None else cell] *= factor
    if operator == "A":
        return TwoLevelComponents(BlockTridiagonal(blocks, tl.A.upper), tl.D, tl.alpha)
    return TwoLevelComponents(tl.A, BlockDiagonal(blocks, tl.D.shift), tl.alpha)


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("operator,cell", [("A", 6), ("A", 7), ("D", 4), ("D", 15)])
def test_one_perturbed_cell_falls_back_to_the_dense_route(kind, operator, cell):
    # D block 15 of the point smoother is the cross-cell one that closes
    # the cycle
    tl = two_level_components(ProblemConfig(16, 2.0, 1.0, PERIODIC), kind, 0.9)
    assert _coarse_cell_blocks(tl) is not None
    bent = perturbed(tl, operator, cell, 1.01)
    assert _coarse_cell_blocks(bent) is None
    rho = assembled_rho(bent)
    assert rho == pencil_rho(bent)
    assert rho == pytest.approx(compression_rho(bent), abs=1e-14)
    assert rho == pytest.approx(spectral_radius_dense(build_iteration_matrix(bent)), abs=1e-12)
    assert abs(rho - assembled_rho(tl)) > 1e-6


def bent_off_the_coarse_space(tl):
    """A copy of the cycle ``tl`` with ``c v v^T``, ``v = (0, 1, -1, 0)``,
    added on the pair block of coarse cell 3: ``P^T v = 0`` and ``v`` is
    off the constants, so ``A0`` and the kernel of ``A`` stay the same."""
    diag, upper = tl.A.diag.copy(), tl.A.upper.copy()
    diag[6, 1, 1] += 64.0
    diag[7, 0, 0] += 64.0
    upper[6, 1, 0] -= 64.0
    return TwoLevelComponents(BlockTridiagonal(diag, upper), tl.D, tl.alpha)


@pytest.mark.parametrize("kind", [CELL, POINT])
def test_operator_bent_off_the_coarse_space_falls_back(kind):
    # A0 stays the same bit for bit, so only the check of A's own blocks
    # sees the bend
    tl = two_level_components(ProblemConfig(16, 2.0, 1.0, PERIODIC), kind, 0.9)
    bent = bent_off_the_coarse_space(tl)
    assert np.array_equal(bent.A0.diag, tl.A0.diag) and np.array_equal(bent.A0.upper, tl.A0.upper)
    assert _coarse_cell_blocks(bent) is None
    assert assembled_rho(bent) == pencil_rho(bent)
    assert assembled_rho(bent) == pytest.approx(compression_rho(bent), abs=1e-14)


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("gamma", [math.inf, 1e4, 1.0, 0.05])
def test_assembled_mu_on_perturbed_periodic_meshes_is_the_whole_pencil(kind, gamma):
    # a perturbed smoother keeps A, so at gamma = inf the dense A0 takes
    # the all-ones shift; so does the bend of A off the coarse space
    tl = two_level_components(ProblemConfig(16, 2.0, gamma, PERIODIC), kind, 0.9)
    bents = [perturbed(tl, "D", cell, 1.01) for cell in (4, 15)] + [bent_off_the_coarse_space(tl)]
    if math.isfinite(gamma):
        bents += [perturbed(tl, "A", cell, 1.01) for cell in (6, 7)]
    for bent in bents:
        assert bent._A0_factor.constant_kernel == math.isinf(gamma)
        assert_whole_mesh_pencil(bent)


@pytest.mark.parametrize("cells", [4, 6, 16, 64])
@pytest.mark.parametrize("kind", [CELL, POINT])
def test_assembled_rho_builds_e_only_on_a_dirichlet_fold(monkeypatch, kind, cells):
    # every other mesh, periodic or perturbed, reads assembled_mu bit for
    # bit; the fold reads the sine blocks of E, as the eigvals of the stack
    built = []
    build = twolevel.build_iteration_matrix
    monkeypatch.setattr(twolevel, "build_iteration_matrix", lambda tl: built.append(tl) or build(tl))
    for gamma in (math.inf, 1e14, 1.0, 1e-3):
        for delta0 in (1.05, 2.0, 10.0):
            for alpha in (_alpha_formula(kind, delta0, gamma), 1.1):
                periodic, fold = (
                    two_level_components(ProblemConfig(cells, delta0, gamma, bc), kind, alpha)
                    for bc in (PERIODIC, DIRICHLET)
                )
                others = [periodic, bent_off_the_coarse_space(periodic)] if cells >= 8 else [periodic]
                others += [perturbed(tl, op, 1, 1.01) for tl in (periodic, fold) for op in ("A", "D")]
                for tl in others:
                    assert assembled_rho(tl) == pencil_rho(tl)
                assert not built
                blocks = twolevel._sine_blocks(build_iteration_matrix(fold))
                assert assembled_rho(fold) == np.abs(np.linalg.eigvals(blocks)).max()
                assert built.pop() is fold and not built


@pytest.mark.parametrize("kind", [CELL, POINT])
def test_uniformly_perturbed_smoother_moves_rho_dense_off_lfa(kind):
    # the frequency route reads the assembled blocks, not the closed forms
    # or the analytic symbols: a slip in every smoother block shows
    config = ProblemConfig(64, 2.0, 1.0, PERIODIC)
    alpha = _alpha_formula(kind, config.delta0, config.gamma)
    rho_lfa = lfa_spectral_radius(config, kind, alpha)
    tl = two_level_components(config, kind, alpha)
    assert assembled_rho(tl) == pytest.approx(rho_lfa, abs=1e-14)
    bent = perturbed(tl, "D", None, 1.001)
    assert _coarse_cell_blocks(bent) is not None
    rho = assembled_rho(bent)
    assert abs(rho - rho_lfa) > 1e-5
    assert rho == pytest.approx(compression_rho(bent), abs=1e-14)


def test_periodic_sweep_dense_at_65536_cells_matches_lfa(capsys):
    for kind in (CELL, POINT):
        code = main([
            "sweep", "--smoother", kind, "--dense", "--bc", PERIODIC, "--gamma", "1",
            "--delta0", "1.2,3", "--cells", "65536",
        ])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            _, _, _, rho_lfa, rho_dense = (float(v) for v in row.split(","))
            assert abs(rho_dense - rho_lfa) <= 1e-12


def test_stationary_zero_rhs():
    tl = two_level_components(ProblemConfig(8, 2.0, 1.0, DIRICHLET), CELL, 0.9)
    hist = stationary_solve(tl, np.zeros(16), tol=1e-10, maxit=5)
    assert hist.converged and hist.iterations == 0
    assert hist.residual_norms == [0.0]


def test_stationary_solve_stopped_by_maxit_returns_its_last_iterate():
    tl = two_level_components(ProblemConfig(64, 2.0, 1.0, DIRICHLET), CELL, 0.9)
    f = np.random.default_rng(1).standard_normal(128)
    hist = stationary_solve(tl, f, tol=1e-14, maxit=3)
    assert not (hist.converged or hist.diverged or hist.stagnated)
    assert hist.iterations == 3 and len(hist.residual_norms) == 4
    u = np.zeros(128)
    for _ in range(3):
        u += apply_preconditioner(tl, f - tl.A @ u)
    assert np.array_equal(hist.solution, u)
    assert hist.residual_norms[-1] == np.linalg.norm(f - tl.A @ u)


@pytest.mark.parametrize("norms", [[], [0.0], [2.0], [0.0, 0.0], [2.0, 0.0]])
def test_convergence_factor_needs_two_positive_residuals(norms):
    assert convergence_factor(IterationHistory(norms, max(len(norms) - 1, 0), False)) == 0.0


def test_stationary_invalid_arguments():
    tl = two_level_components(ProblemConfig(8, 2.0, 1.0, DIRICHLET), CELL, 0.9)
    with pytest.raises(ValueError):
        stationary_solve(tl, np.ones(16), tol=0.0, maxit=5)
    with pytest.raises(ValueError):
        stationary_solve(tl, np.ones(16), tol=1e-8, maxit=0)


def test_observed_rate_matches_prediction():
    # relaxation from the closed form; measured reduction factor tracks
    # the predicted spectral radius
    result = alpha_opt_poisson(CELL, 1.5)
    cfg = ProblemConfig(64, 1.5, math.inf, DIRICHLET)
    tl = two_level_components(cfg, CELL, result.alpha_opt)
    hist = stationary_solve(tl, np.ones(128), tol=1e-10, maxit=200)
    assert hist.converged
    assert convergence_factor(hist) == pytest.approx(result.rho_predicted, abs=0.05)


def test_divergence_detected():
    # alpha far above optimal: spectral radius exceeds one
    cfg = ProblemConfig(64, 2.0, math.inf, DIRICHLET)
    tl = two_level_components(cfg, POINT, 3.0)
    assert spectral_radius_dense(build_iteration_matrix(tl)) > 1.0
    hist = stationary_solve(tl, np.ones(128), tol=1e-10, maxit=100)
    assert hist.diverged and not hist.converged


def test_smoothed_spectrum_mesh_invariance():
    # eigenvalues of D^{-1} A at matched frequencies agree across meshes
    for kind in (CELL, POINT):
        spectra = {}
        for cells in (8, 16):
            cfg = ProblemConfig(cells, 1.8, 2.0, PERIODIC)
            eigs = []
            for k in range(1, cells // 2 + 1):
                sym = symbol_blocks(Frequency(k, cells), cfg, kind, 1.0)
                eigs.append(np.linalg.eigvals(np.linalg.solve(sym.Dhat, sym.Ahat)))
            spectra[cells] = np.concatenate(eigs)
        for ev in spectra[8]:
            assert np.abs(spectra[16] - ev).min() < 1e-9


def test_rho_dense_equals_max_block_rho_periodic():
    cfg = ProblemConfig(16, 2.5, 2.0, PERIODIC)
    tl = two_level_components(cfg, POINT, 0.8)
    rho = spectral_radius_dense(build_iteration_matrix(tl))
    assert rho == pytest.approx(lfa_spectral_radius(cfg, POINT, 0.8), abs=1e-9)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
def test_stationary_returns_its_solution(bc):
    cfg = ProblemConfig(64, 1.5, math.inf, bc)
    tl = two_level_components(cfg, CELL, alpha_opt_poisson(CELL, 1.5).alpha_opt)
    f = np.random.default_rng(1).standard_normal(128)
    f -= f.mean()  # orthogonal to the periodic kernel
    hist = stationary_solve(tl, f, tol=1e-10, maxit=200)
    assert hist.converged
    assert np.linalg.norm(f - tl.A @ hist.solution) == hist.residual_norms[-1]
    zero = stationary_solve(tl, np.zeros(128), tol=1e-10, maxit=5)
    assert np.array_equal(zero.solution, np.zeros(128))


def test_iteration_history_positional_fields_unchanged():
    hist = IterationHistory([1.0, 0.5], 1, False, True)
    assert hist.diverged and not hist.stagnated and hist.solution is None


def test_constant_component_stagnates_on_periodic_pure_diffusion():
    # A u is mean-zero, so the constant part of f stays in the residual
    cfg = ProblemConfig(64, 1.5, math.inf, PERIODIC)
    tl = two_level_components(cfg, CELL, alpha_opt_poisson(CELL, 1.5).alpha_opt)
    f = np.random.default_rng(1).standard_normal(128)
    hist = stationary_solve(tl, f, tol=1e-10, maxit=1000)
    assert hist.stagnated and not hist.converged and not hist.diverged
    norms = hist.residual_norms
    assert hist.iterations == int(np.argmin(norms)) + 50 < 1000
    assert norms[-1] == pytest.approx(abs(f.mean()) * math.sqrt(128), rel=1e-10)


def test_tolerance_below_the_rounding_floor_stagnates():
    cfg = ProblemConfig(64, 3.0, math.inf, DIRICHLET)
    tl = two_level_components(cfg, POINT, alpha_opt_poisson(POINT, 3.0).alpha_opt)
    f = np.random.default_rng(1).standard_normal(128)
    hist = stationary_solve(tl, f, tol=1e-18, maxit=1000)
    assert hist.stagnated and not hist.converged and not hist.diverged
    norms = hist.residual_norms
    assert hist.iterations == int(np.argmin(norms)) + 50 < 1000
    assert min(norms) < 1e-12 * norms[0]


def test_non_finite_residual_stops_as_diverged():
    tl = two_level_components(ProblemConfig(8, 2.0, 1.0, DIRICHLET), CELL, 0.9)
    tl.alpha = math.nan  # past the constructor, which refuses it
    hist = stationary_solve(tl, np.ones(16), tol=1e-10, maxit=50)
    assert hist.diverged and not hist.converged
    assert hist.iterations == 1 and not math.isfinite(hist.residual_norms[-1])
