"""Two-level preconditioner, stationary iteration and dense spectra.

``build_iteration_matrix`` assembles the dense error propagation ``E =
I - B A`` from ``apply_preconditioner``, the preconditioner ``B`` that
``stationary_solve`` applies, on batches of columns of ``A``.
``assembled_mu`` gives the assembled two-grid spectrum without ``E``:
the nonzero eigenvalues of ``E`` with exact coarse solves are ``1 -
alpha mu`` for the ``mu`` of one symmetric-definite pencil of half its
size, on the A-orthogonal complement of the coarse space (Falgout,
Vassilevski and Zikatanov, NLAA 12, 2005), which ``_complement_gram``
spans.  The pencil cancels the coarse correction, so it does not depend
on how accurate ``coarse_solve`` is.  Where the assembled operators
repeat one block pattern on every coarse cell (periodic meshes), the
pencil splits into one 2x2 pencil per coarse frequency, read off those
blocks and solved for all frequencies at once, at any mesh size; other
meshes (Dirichlet) take it densely, up to desk scale.
``assembled_rho`` is the exact two-grid spectral radius from the same
compression.
"""

import errno
import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    _pair_blocks,
    assemble_coarse,
    assemble_operator,
    assemble_smoother,
    assemble_transfer,
)
from .blocks import (
    BlockDiagonal,
    BlockTridiagonal,
    CellStencil,
    CyclicReduction,
    _shift_off_constants,
)
from .config import ProblemConfig

# Residual ratios averaged by ``convergence_factor``.
_RATE_STEPS = 10
# Steps without a new smallest residual after which a solve has stagnated.
_STAGNATION_STEPS = 50
# Largest matrix the dense eigensolvers take.
_DESK_SCALE = 1024
# Columns per batched apply in build_iteration_matrix.
_E_COLUMNS = 64


class EigenSolverError(RuntimeError):
    """The dense eigenvalue iteration did not converge."""


@dataclass
class IterationHistory:
    residual_norms: list
    iterations: int
    converged: bool
    diverged: bool = False
    stagnated: bool = False
    solution: np.ndarray = field(default=None, repr=False)


class TwoLevelComponents:
    """The two-level method's operators, built from ``(A, D, alpha)``.

    ``A`` is the fine operator, ``D`` the block-diagonal smoother and
    ``alpha`` the smoother relaxation; the transfers ``R``/``P`` and the
    Galerkin coarse operator ``A0 = R A P`` follow from ``A``, all in the
    structured forms of ``dgtwolevel.blocks``.  The block inverses of
    ``D`` and the cyclic reduction of ``A0`` are prepared once here; the
    reduction reads off ``A0`` whether it is singular on the constants
    (then the coarse solve projects that mode out) or so nearly singular
    that every coarse solve is refined.  Raises ``ValueError`` for a
    non-finite ``alpha``.
    """

    def __init__(self, A: BlockTridiagonal, D: BlockDiagonal, alpha: float):
        if not math.isfinite(alpha):
            raise ValueError(f"the relaxation alpha must be finite, got {alpha}")
        self.A, self.D, self.alpha = A, D, alpha
        self.R, self.P = assemble_transfer(A.cells)
        self.A0 = assemble_coarse(A, self.R, self.P)
        self._D_inverse = D.inverse()
        self._A0_factor = CyclicReduction(self.A0)

    def smooth(self, g: np.ndarray) -> np.ndarray:
        """Apply D^{-1} to a vector or to every column of a matrix."""
        return self._D_inverse @ g

    def coarse_solve(self, g: np.ndarray) -> np.ndarray:
        """Apply A0^{-1} (the pseudo-inverse when A0 is singular on
        constants) to a vector or to every column of a matrix."""
        return self._A0_factor.solve(g)


def two_level_components(config: ProblemConfig, kind: str, alpha: float) -> TwoLevelComponents:
    """Build every operator of the two-level method for ``config``.

    Raises ``ValueError`` for pure diffusion at ``delta0 = 1``, where the
    operator is singular on the alternating mode and no iteration
    converges, for a non-finite ``alpha``, and where the assembled
    entries leave no floating-point headroom: ``16 (delta0 + 1/(3 gamma))
    J^2``, sixteen times the interior diagonal entry, is not finite.  That
    is gamma below about ``3e-308 J^2``, and every subnormal gamma, whose
    ``1/gamma`` overflows.
    """
    if config.is_poisson and config.delta0 == 1.0:
        raise ValueError(
            "the two-level method needs delta0 > 1 at gamma = inf: at delta0 = 1 the "
            "pure diffusion operator is singular on the alternating mode"
        )
    if not math.isfinite(16.0 * (config.delta0 + config.inv_gamma / 3.0) * config.cells**2):
        raise ValueError(
            f"gamma={config.gamma} at J={config.cells}: the assembled operators leave no "
            "floating-point headroom; the closed forms (sweep without --dense) still answer"
        )
    return TwoLevelComponents(assemble_operator(config), assemble_smoother(config, kind), alpha)


def apply_preconditioner(tl: TwoLevelComponents, g: np.ndarray) -> np.ndarray:
    """One application of the two-level preconditioner to a residual g.

    Smooths with the relaxed block solve, then corrects on the coarse
    space: ``y = x + P A0^{-1} R (g - A x)`` with ``x = alpha D^{-1} g``.
    """
    g = np.asarray(g, dtype=float)
    x = tl.alpha * tl.smooth(g)
    return x + tl.P @ tl.coarse_solve(tl.R @ (g - tl.A @ x))


def build_iteration_matrix(tl: TwoLevelComponents) -> np.ndarray:
    """Dense error-propagation matrix ``E = I - B A`` of one step of
    :func:`stationary_solve`, ``B`` the preconditioner of
    :func:`apply_preconditioner`: that is ``E = (I - P A0^{-1} R A)(I -
    alpha D^{-1} A)``.

    ``B`` acts on ``_E_COLUMNS`` columns of the dense ``A`` per batched
    apply, which bounds the apply's temporaries to a few ``n x
    _E_COLUMNS`` blocks beside ``A`` and ``E``.
    """
    A = tl.A.toarray()
    E = np.eye(len(A))
    for j in range(0, len(A), _E_COLUMNS):
        E[:, j : j + _E_COLUMNS] -= apply_preconditioner(tl, A[:, j : j + _E_COLUMNS])
    return E


def _check_desk_scale(size: int) -> None:
    if size > _DESK_SCALE:
        raise ValueError(f"matrix larger than the supported desk scale ({_DESK_SCALE})")


def spectral_radius_dense(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a dense square matrix.

    An exactly symmetric matrix goes to the symmetric eigensolver
    (``eigvalsh``), any other to the nonsymmetric one (Hessenberg
    reduction plus shifted QR); matrices are restricted to desk scale.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"need a square matrix, got shape {M.shape}")
    _check_desk_scale(M.shape[0])
    solver = np.linalg.eigvalsh if np.array_equal(M, M.T) else np.linalg.eigvals
    try:
        return float(np.abs(solver(M)).max())
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc


def _stencil_complement(P: CellStencil) -> np.ndarray:
    """Orthonormal complement (4 x 2) of the prolongation stencil, by QR."""
    stencil = P.stencil
    return np.linalg.qr(stencil, mode="complete")[0][:, stencil.shape[1] :]


def _complement_gram(tl: TwoLevelComponents) -> tuple:
    """``(Z, AZ, K)``: a basis ``Z`` (n x n/2, dense) of the A-orthogonal
    complement of the coarse space, ``AZ = A Z`` and ``K = L^{-1}`` for
    the Cholesky factor ``L`` of ``Z^T A Z``, so that ``K Z^T A Z K^T =
    I``.

    ``Z = W - P X``.  The ``CellStencil`` ``W`` holds, per coarse cell,
    the orthonormal complement of the prolongation stencil, so ``W^T P =
    0`` and ``W^T Z = I``; ``A0 X = R A W`` makes ``P^T A Z = 0``.  ``X``
    comes from LAPACK's LU on the dense ``A0``, which keeps ``|P^T A Z|``
    below 1e-15 of ``|A|`` even where ``A0`` is nearly singular (with the
    cyclic reduction it reached 5.6e-10 at gamma = 1e13 and 1.6e-6 at
    1e14.5, periodic, J 64 and 192).  On a constant kernel
    ``A0`` gets ``CyclicReduction``'s all-ones shift, the columns of ``Z``
    stay off the constant vector, and ``Z^T A Z`` is still definite.
    Raises ``ValueError`` when it is not (an operator singular or
    indefinite off the coarse space).
    """
    W = CellStencil(_stencil_complement(tl.P), tl.P.groups).toarray()
    A0 = tl.A0.toarray()
    if tl._A0_factor.constant_kernel:
        A0 = _shift_off_constants(A0)
    Z = W - tl.P @ np.linalg.solve(A0, tl.R @ (tl.A @ W))
    AZ = tl.A @ Z
    return Z, AZ, _inverse_cholesky(AZ.T @ Z)


def _inverse_cholesky(G: np.ndarray) -> np.ndarray:
    """``L^{-1}`` for ``G = L L^H``, of one matrix or of a stack; raises
    ``ValueError`` when ``G`` is not definite."""
    try:
        return np.linalg.inv(np.linalg.cholesky(G))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"operator is singular or indefinite off the coarse space: {exc}") from exc


def _dense_rho(tl: TwoLevelComponents) -> float:
    """Two-grid radius over the complement from the dense compression
    ``C = K Z^T A E Z K^T`` of size J (see ``assembled_rho``)."""
    _check_desk_scale(tl.A.shape[0] // 2)
    # H from the assembled E rather than from the smoother alone: only the
    # benchmark's per-layer metrics, which time build_iteration_matrix and
    # spectral_radius_dense through sweep --dense, keep this route until
    # ROADMAP item 1; then assembled_rho is max |1 - alpha mu| of
    # assembled_mu on every mesh.  E is built first: beside Z, AZ and K its
    # build would raise the peak memory.  A huge alpha overflows E (alpha
    # D^{-1} A times the columns of A) or C where the radius is finite:
    # an error, not numpy warnings and a failing eigensolve
    with np.errstate(over="ignore", invalid="ignore"):
        E = _finite(build_iteration_matrix(tl), tl)
    Z, AZ, K = _complement_gram(tl)
    with np.errstate(over="ignore", invalid="ignore"):
        C = _finite(K @ (AZ.T @ (E @ Z)) @ K.T, tl)
    return spectral_radius_dense(0.5 * (C + C.T))


def _finite(M: np.ndarray, tl: TwoLevelComponents) -> np.ndarray:
    """``M``, or ``OverflowError`` when an entry is not finite."""
    if not np.isfinite(M).all():
        raise OverflowError(errno.ERANGE, f"the iteration matrix E at alpha={tl.alpha!r} overflows")
    return M


def _uniform(*stacks: np.ndarray) -> bool:
    """Whether each stack repeats its first block along its leading axis."""
    return all((stack == stack[:1]).all() for stack in stacks)


def _coarse_cell_blocks(tl: TwoLevelComponents):
    """The ``(own, next)`` blocks per coarse cell of ``A``, ``D^{-1}``
    (4x4) and ``A0`` (2x2), or ``None`` unless each is the same, bit for
    bit, on every coarse cell.

    Row block ``M`` of such an operator holds ``own`` on the diagonal,
    ``next`` in column block ``M + 1`` and ``next^T`` in ``M - 1``, modulo
    the coarse cells: a periodic mesh.  A Dirichlet mesh fails the test
    on its boundary blocks and its zero wrap coupling.
    """
    A, Dinv, A0 = tl.A, tl._D_inverse, tl.A0
    even, odd = Dinv.blocks[0::2], Dinv.blocks[1::2]
    fine = (A.diag[0::2], A.diag[1::2], A.upper[0::2], A.upper[1::2])
    if not _uniform(*fine, even, odd, A0.diag, A0.upper):
        return None
    if Dinv.shift:
        # block 2M pairs unknowns 1 and 2 of coarse cell M, block 2M + 1
        # its unknown 3 with unknown 0 of cell M + 1
        own, nxt = np.zeros((4, 4)), np.zeros((4, 4))
        own[1:3, 1:3] = even[0]
        (own[3, 3], nxt[3, 0]), (_, own[0, 0]) = odd[0]
        smoother = own, nxt
    else:
        smoother = _pair_blocks(even[0], odd[0], 0.0, 0.0)
    return _pair_blocks(*(block[0] for block in fine)), smoother, (A0.diag[0], A0.upper[0])


def _frequency_mu(tl: TwoLevelComponents, blocks: tuple) -> np.ndarray:
    """The ``mu`` of ``assembled_mu`` from the coarse-cell Fourier blocks
    ``blocks`` of ``_coarse_cell_blocks``, as ``(J/2, 2)``: one 2x2
    Hermitian pencil per coarse frequency, all frequencies stacked.

    At ``z = exp(2 pi i k / (J/2))`` an operator with blocks ``(S, N)``
    has the symbol ``S + N z + N^T conj(z)``.  Per frequency, as in
    ``_complement_gram``: ``Z = W - P X`` with ``A0 X = R A W``, ``G =
    (A Z)^H Z = L L^H`` and ``F = (A Z)^H D^{-1} (A Z)``; the ``mu`` are
    the eigenvalues of ``K F K^H``, ``K = L^{-1}``.  On a constant kernel
    only the ``k = 0`` block of ``A0`` is singular, and it gets the
    all-ones shift.
    """
    cells = tl.A0.cells
    z = np.exp(2j * np.pi * np.arange(cells) / cells)[:, None, None]
    A, Dinv, A0 = (own + nxt * z + nxt.T * z.conj() for own, nxt in blocks)
    if tl._A0_factor.constant_kernel:
        A0[0] = _shift_off_constants(A0[0])
    W = _stencil_complement(tl.P)
    Z = W - tl.P.stencil @ np.linalg.solve(A0, tl.R.stencil @ (A @ W))
    AZ = A @ Z
    AZ_h = AZ.conj().swapaxes(1, 2)
    K = _inverse_cholesky(AZ_h @ Z)
    return np.linalg.eigvalsh(K @ (AZ_h @ Dinv @ AZ) @ K.conj().swapaxes(1, 2))


def assembled_mu(tl: TwoLevelComponents) -> np.ndarray:
    """The J eigenvalues ``mu``, ascending, of the symmetric-definite
    pencil ``(Z^T A D^{-1} A Z, Z^T A Z)`` of the assembled operators:
    ``1 - alpha mu`` are the nonzero eigenvalues of the exact two-grid
    ``E`` (Falgout, Vassilevski and Zikatanov, "On two-grid convergence
    estimates", NLAA 12, 2005).  ``alpha`` does not enter.  When ``A0``
    has a constant kernel (periodic pure diffusion, or a reaction term
    lost to rounding against the penalty), ``E`` also has the eigenvalue
    1 of the constant vector, which is not among these ``mu``.

    ``Z`` spans the A-orthogonal complement of the coarse space
    (``_complement_gram``).  Where ``A``, ``D^{-1}`` and ``A0`` repeat the
    same blocks on every coarse cell (every periodic mesh) the pencil
    splits into one 2x2 pencil per coarse frequency (``_frequency_mu``):
    O(J) work and memory at any J.  Every other mesh (Dirichlet) takes
    ``K Z^T A D^{-1} A Z K^T`` densely, up to J = 1024; larger meshes
    raise ``ValueError`` before anything dense is built.  Raises
    ``ValueError`` also when ``Z^T A Z`` is not definite.
    """
    blocks = _coarse_cell_blocks(tl)
    if blocks is not None:
        return np.sort(_frequency_mu(tl, blocks), axis=None)
    _check_desk_scale(tl.A.shape[0] // 2)
    _, AZ, K = _complement_gram(tl)
    C = K @ (AZ.T @ tl.smooth(AZ)) @ K.T
    return np.linalg.eigvalsh(0.5 * (C + C.T))


def assembled_rho(tl: TwoLevelComponents) -> float:
    """Exact two-grid spectral radius: that of ``E =
    build_iteration_matrix(tl)`` with exact coarse solves, through a
    similarity of half its size.

    With ``Z``, ``AZ`` and ``K = L^{-1}``, ``G = Z^T A Z = L L^T``, from
    ``_complement_gram``, the exact ``E`` maps everything into
    ``range(Z)`` (plus the constant vector on a constant kernel), and
    ``E Z = Z M`` there with ``M = G^{-1} H``, ``H = AZ^T E Z``.  As
    ``AZ^T P = 0``, ``H = AZ^T (I - alpha D^{-1} A) Z``: the coarse
    correction inside ``E``, and with it any error of ``coarse_solve``,
    drops out, so this radius does not check the coarse solve.  ``H`` is
    symmetric, and the exact ``E`` has the eigenvalues of the symmetric
    ``C = K H K^T = I - alpha K Z^T A D^{-1} A Z K^T``, that is ``1 -
    alpha mu`` for the ``mu`` of ``assembled_mu``, plus n/2 zeros, and
    plus the eigenvalue 1 of the untouched constant vector (``E 1 = 1``)
    when ``A0`` has a constant kernel.

    Periodic meshes take ``max |1 - alpha mu|`` over ``assembled_mu``,
    from its frequency route: O(J) work at any J.  Over J 4 to 192, gamma inf to 1e-3, delta0 1.05 to
    10, alpha 0.7, 1.1 and the optimum, and both smoothers, that is
    within 4.4e-15 of the dense ``C``; with finite gamma, up to the
    constant-kernel switch, it is within 3.6e-15 of the closed-form
    frequency analysis (J 4 to 1024), where ``eigvals(E)`` is up to
    6.6e-8 off.  Every other cycle (Dirichlet meshes) takes ``C``
    densely (``_dense_rho``), from ``E``, up to J = 1024; over J 4 to
    192, both smoothers, delta0 1.01 to 10 and alpha 0.6 to 1.1 it
    agrees with ``spectral_radius_dense(E)`` to 1.1e-14.  There an
    ``alpha`` so large that ``E`` or ``C`` overflows (from about 1e307)
    raises ``OverflowError``; a periodic radius beyond the float range is
    ``inf``.
    """
    if _coarse_cell_blocks(tl) is None:
        rho = _dense_rho(tl)
    else:
        mu = assembled_mu(tl)
        # a radius beyond the float range rounds to inf, without a warning
        with np.errstate(over="ignore"):
            rho = float(np.abs(1.0 - tl.alpha * mu).max())
    return max(rho, 1.0) if tl._A0_factor.constant_kernel else rho


def stationary_solve(
    tl: TwoLevelComponents, f: np.ndarray, tol: float, maxit: int
) -> IterationHistory:
    """Run ``u <- u + M^{-1}(f - A u)`` from u = 0, recording residuals.

    Converged when the 2-norm residual drops below ``tol`` relative to
    the initial one; flagged as diverged when it grows beyond 1e8 times
    the initial residual or stops being finite, and as stagnated when
    ``_STAGNATION_STEPS`` steps in a row bring no new smallest residual
    (data outside the range of a singular operator, or a tolerance below
    the rounding floor).  Each of the three stops the iteration.  The
    final iterate is returned as ``solution``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if maxit < 1:
        raise ValueError("maxit must be at least 1")
    f = np.asarray(f, dtype=float)
    u = np.zeros_like(f)
    r = f.copy()
    norms = [float(np.linalg.norm(r))]
    if norms[0] == 0.0:
        return IterationHistory(norms, 0, True, solution=u)
    best = 0  # step of the smallest residual so far
    for it in range(1, maxit + 1):
        u += apply_preconditioner(tl, r)
        r = f - tl.A @ u
        norms.append(float(np.linalg.norm(r)))
        if norms[-1] <= tol * norms[0]:
            return IterationHistory(norms, it, True, solution=u)
        if not math.isfinite(norms[-1]) or norms[-1] > 1e8 * norms[0]:
            return IterationHistory(norms, it, False, diverged=True, solution=u)
        if norms[-1] < norms[best]:
            best = it
        elif it - best >= _STAGNATION_STEPS:
            return IterationHistory(norms, it, False, stagnated=True, solution=u)
    return IterationHistory(norms, maxit, False, solution=u)


def convergence_factor(history: IterationHistory) -> float:
    """Asymptotic residual reduction per step, as the geometric mean of
    the last ``_RATE_STEPS`` recorded ratios (damps transient effects)."""
    norms = [n for n in history.residual_norms if n > 0.0]
    if len(norms) < 2:
        return 0.0
    w = min(_RATE_STEPS, len(norms) - 1)
    return (norms[-1] / norms[-1 - w]) ** (1.0 / w)
