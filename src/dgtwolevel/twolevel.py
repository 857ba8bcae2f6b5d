"""Two-level preconditioner, stationary iteration and dense spectra.

``build_iteration_matrix`` assembles the dense error propagation ``E =
I - B A`` from ``apply_preconditioner``, the preconditioner ``B`` that
``stationary_solve`` applies, on batches of columns of ``A`` written out
from its blocks: ``E`` is the one array of the mesh's full size.

``assembled_mu`` and ``assembled_rho`` give the exact two-grid spectrum
without ``E``, from one symmetric-definite pencil ``(Z^T A D^{-1} A Z,
Z^T A Z)`` of half its size (Falgout, Vassilevski and Zikatanov, "On
two-grid convergence estimates", NLAA 12, 2005).  ``Z`` spans the
A-orthogonal complement of the coarse space.  The exact ``E`` maps
everything into ``range(Z)`` (plus the constant vector when ``A0`` has a
constant kernel), and ``E Z = Z (Z^T A Z)^{-1} Z^T A E Z`` there.  As
``Z^T A P = 0``, ``Z^T A E Z = Z^T A (I - alpha D^{-1} A) Z``: the
coarse correction, and with it any error of ``coarse_solve``, drops
out.  So ``E`` has the eigenvalues ``1 - alpha mu`` for the ``mu`` of
the pencil, plus n/2 zeros, plus the eigenvalue 1 of the untouched
constant vector (``E 1 = 1``) on a constant kernel.

One evaluator, ``_pencil_mu``, solves the pencil on two kinds of input.
Where the assembled operators repeat one block pattern on every coarse
cell (periodic meshes), ``_coarse_cell_blocks`` gives their coarse-cell
Fourier symbols, and the pencil splits into one 2x2 pencil per coarse
frequency, all solved at once, at any mesh size.  Other meshes take the
whole mesh (``_whole_mesh``), up to desk scale.

A Dirichlet mesh of J cells is the odd subspace of the periodic mesh of
2J cells: with ``Q = [I; -reverse(I)]``, ``A_per Q = 4 Q A_dir``, the same
for both smoothers, and ``R_per Q = Q_c R_dir``, ``P_per Q_c = Q P_dir``
for ``Q_c`` the same map on coarse unknowns (the 4 is the ``1/h^2`` of
the halved cell).  The boundary face's doubled penalty and the point
smoother's 1x1 corners are exactly the couplings to the mirrored cells.
So the sine form of the frequency analysis (Stueben and Trottenberg
1982; Trottenberg, Oosterlee and Schueller, *Multigrid*, 2001) splits the
Dirichlet ``E`` into one 4x4 block per coarse frequency ``k = 0 .. J/2``
in an orthonormal basis of cosines and sines over the coarse cells.
``_sine_blocks`` forms those blocks in O(J^2) work from the diagonal and
anti-diagonal sums of ``E``'s 16 planes of one unknown per coarse cell.
``assembled_rho`` reads the Dirichlet radius off the blocks where
``_odd_fold`` finds the mesh to be such a fold, and takes ``max |1 -
alpha mu|`` over the pencil on every other mesh.
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
    _EPS,
    BlockDiagonal,
    BlockTridiagonal,
    CellStencil,
    CyclicReduction,
    _shift_off_constants,
)
from .closed_forms import _rho_of_extremes
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

    ``B`` acts on ``_E_COLUMNS`` columns of ``A`` per batched apply, each
    batch written out from ``A``'s blocks (``BlockTridiagonal.columns``),
    so that beside ``E`` only a few ``n x _E_COLUMNS`` blocks are held:
    no dense ``A``.
    """
    n = tl.A.shape[0]
    E = np.eye(n)
    for j in range(0, n, _E_COLUMNS):
        E[:, j : j + _E_COLUMNS] -= apply_preconditioner(tl, tl.A.columns(j, j + _E_COLUMNS))
    return E


def _check_desk_scale(size: int) -> None:
    if size > _DESK_SCALE:
        raise ValueError(f"matrix larger than the supported desk scale ({_DESK_SCALE})")


def spectral_radius_dense(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a dense square matrix, or over a
    stack ``(..., m, m)`` of square blocks, by the nonsymmetric
    eigensolver (Hessenberg reduction plus shifted QR); blocks are
    restricted to desk scale.
    """
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"need a square matrix or a stack of them, got shape {M.shape}")
    _check_desk_scale(M.shape[-1])
    try:
        return float(np.abs(np.linalg.eigvals(M)).max())
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc


def _stencil_complement(P: CellStencil) -> np.ndarray:
    """Orthonormal complement (4 x 2) of the prolongation stencil, by QR."""
    stencil = P.stencil
    return np.linalg.qr(stencil, mode="complete")[0][:, stencil.shape[1] :]


def _inverse_cholesky(G: np.ndarray) -> np.ndarray:
    """``L^{-1}`` for ``G = L L^H``, of one matrix or of a stack; raises
    ``ValueError`` when ``G`` is not definite."""
    try:
        return np.linalg.inv(np.linalg.cholesky(G))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"operator is singular or indefinite off the coarse space: {exc}") from exc


def _pencil_mu(Dinv, A, A0, W, R, P) -> np.ndarray:
    """The ``mu`` of ``assembled_mu``, ascending, per frequency or at once.

    ``Z = W - P X`` with ``A0 X = R A W`` is a basis of the A-orthogonal
    complement of the coarse space: ``W`` spans, per coarse cell, the
    orthonormal complement of the prolongation stencil, so ``W^H P = 0``
    and ``W^H Z = I``, and ``P^H A Z = 0``.  With ``AZ = A Z`` and ``K =
    L^{-1}`` for the Cholesky factor ``L`` of ``G = AZ^H Z``, the ``mu``
    are the eigenvalues of the Hermitian ``K AZ^H D^{-1} AZ K^H``.  Only
    ``@`` and ``np.linalg.solve`` act, so the operators are either the
    coarse-frequency stacks of ``_coarse_cell_blocks`` (one small pencil
    per frequency) or those of ``_whole_mesh``; either way ``A0`` is
    shifted off the constants on a constant kernel (only its ``k = 0``
    block is singular there), the columns of ``Z`` stay off the constant
    vector, and ``G`` is still definite.  Raises ``ValueError`` when it is
    not (an operator singular or indefinite off the coarse space).
    """
    Z = W - P @ np.linalg.solve(A0, R @ (A @ W))
    AZ = A @ Z
    AZ_h = AZ.conj().swapaxes(-2, -1)
    K = _inverse_cholesky(AZ_h @ Z)
    mu = np.linalg.eigvalsh(K @ (AZ_h @ (Dinv @ AZ)) @ K.conj().swapaxes(-2, -1))
    return np.sort(mu, axis=None)


def _whole_mesh(tl: TwoLevelComponents) -> tuple:
    """``(D^{-1}, A, A0, W, R, P)`` of the whole mesh, for ``_pencil_mu``:
    the structured ``D^{-1}``, ``A``, ``R`` and ``P``, the dense ``A0``
    (shifted off the constants on a constant kernel) and ``W``.  Raises
    ``ValueError`` above desk scale, before anything dense is built.

    ``X`` of ``_pencil_mu`` comes from LAPACK's LU on this dense ``A0``,
    which keeps ``|P^T A Z|`` below 1e-15 of ``|A|`` even where ``A0`` is
    nearly singular (with the cyclic reduction it reached 5.6e-10 at gamma
    = 1e13 and 1.6e-6 at 1e14.5, periodic, J 64 and 192).
    """
    _check_desk_scale(tl.A.shape[0] // 2)
    A0 = tl.A0.toarray()
    if tl._A0_factor.constant_kernel:
        A0 = _shift_off_constants(A0)
    W = CellStencil(_stencil_complement(tl.P), tl.P.groups).toarray()
    return tl._D_inverse, tl.A, A0, W, tl.R, tl.P


def _fold_rho(tl: TwoLevelComponents) -> float:
    """Two-grid radius of ``E`` on the odd fold of a uniform pattern (a
    Dirichlet mesh that passes ``_odd_fold``), from its ``J/2 + 1`` sine
    blocks (``_sine_blocks``)."""
    _check_desk_scale(tl.A.shape[0] // 2)
    # E rather than assembled_mu: only the benchmark's per-layer metrics,
    # which time build_iteration_matrix and spectral_radius_dense through
    # sweep --dense on Dirichlet meshes, keep this route until ROADMAP
    # item 1.  A huge alpha overflows E (alpha D^{-1} A times the columns
    # of A) or its blocks where the radius is finite: an error, not numpy
    # warnings and a failing eigensolve
    with np.errstate(over="ignore", invalid="ignore"):
        E = _finite(build_iteration_matrix(tl), tl)
        return spectral_radius_dense(_finite(_sine_blocks(E), tl))


def _sine_blocks(E: np.ndarray) -> np.ndarray:
    """The ``(J/2 + 1, 4, 4)`` stack of ``F_k^T E F_k`` for the
    odd-reflection sine basis ``F`` of ``E``'s mesh of J cells, in O(J^2)
    work.

    ``F`` has four orthonormal columns per coarse frequency ``k = 0 ..
    J/2``, ``theta = 2 pi k / J``.  On coarse cell ``M`` (unknowns ``4M
    .. 4M + 3``, those of fine cells ``2M`` and ``2M + 1``) column ``2l +
    t`` puts ``trig_t(theta M)`` on unknown ``l`` and ``s_t trig_t(theta
    (M + 1))`` on unknown ``3 - l``, for ``l = 0, 1``, with ``trig_0 =
    cos``, ``s_0 = -1``, ``trig_1 = sin``, ``s_1 = 1``, and norm
    ``sqrt(J/2)`` (``sqrt(J)`` for the cosines of ``k = 0`` and ``J/2``,
    whose sines vanish and are taken as zero columns).  These are the
    mesh's vectors whose odd extension to the periodic mesh of 2J cells
    lies in its coarse frequencies ``+-k``.

    Unknown ``u`` of a cell is ``l`` (``a = 0``) or ``3 - l`` (``a = 1``),
    and so the plane ``P = E[u::4, v::4]`` enters the block entry ``(2l +
    t, 2l' + t')`` as ``sum_{M, M'} trig_t(theta (M + a)) P[M, M']
    trig_t'(theta (M' + b))``, times ``s_t^a s_t'^b`` and the norms.  By
    product to sum, that needs only ``sum_{M - M' = d} P`` and ``sum_{M +
    M' = e} P``, at the angles ``theta (d + a - b)`` and ``theta (e + a +
    b)``: O(J^2) additions per plane, read through one padded ``(J/2,
    J)`` buffer, then one real FFT of length J per sum (the angles are
    periodic in ``d`` and ``e`` with period J).
    """
    cells = len(E) // 2
    coarse = cells // 2
    buffer = np.zeros((coarse, cells))
    item = buffer.itemsize
    # entry (M, M') of a plane goes to row M, column c - 1 - d (d = M - M')
    # or column e (e = M + M') of the buffer, whose other entries stay 0
    layouts = (
        (((cells - 1) * item, item), (coarse - 1) * item),
        (((cells + 1) * item, item), 0),
    )
    # entry r of a sum is d + a - b (e + a + b) mod J: column c - 1 - d (e)
    r = np.arange(cells)
    source = [[((coarse - 1 + a - b - r) % cells, (r - a - b) % cells) for b in (0, 1)] for a in (0, 1)]
    # (l, a, l', b, difference or sum, r)
    sums = np.empty((2, 2, 2, 2, 2, cells))
    for which, (strides, offset) in enumerate(layouts):
        view = np.ndarray((coarse, coarse), buffer=buffer, offset=offset, strides=strides)
        buffer.fill(0.0)
        for l, a, m, b in np.ndindex(2, 2, 2, 2):
            view[...] = E[3 * a + (1 - 2 * a) * l :: 4, 3 * b + (1 - 2 * b) * m :: 4]
            sums[l, a, m, b, which] = buffer.sum(axis=0)[source[a][b][which]]
    # sum_r x_r cos(theta r) and sum_r x_r sin(theta r), k = 0 .. J/2
    spectrum = np.fft.rfft(sums)
    cos_d, cos_e = spectrum.real[..., 0, :], spectrum.real[..., 1, :]
    sin_d, sin_e = -spectrum.imag[..., 0, :], -spectrum.imag[..., 1, :]
    sign = np.array([1.0, -1.0])
    s_a, s_b = sign[:, None, None, None], sign[:, None]
    # (t, t'), each (l, l', k) after the sum over a and b
    parts = (
        ((s_a * s_b * (cos_d + cos_e)).sum((1, 3)), (s_a * (sin_e - sin_d)).sum((1, 3))),
        ((s_b * (sin_e + sin_d)).sum((1, 3)), (cos_d - cos_e).sum((1, 3))),
    )
    blocks = np.array(parts).transpose(4, 2, 0, 3, 1).reshape(coarse + 1, 4, 4)
    k = np.arange(coarse + 1)
    ends = (k == 0) | (k == coarse)
    norm = np.empty((coarse + 1, 4))
    norm[:, 0::2] = np.sqrt(np.where(ends, 1.0 / cells, 1.0 / coarse))[:, None]
    norm[:, 1::2] = np.sqrt(np.where(ends, 0.0, 1.0 / coarse))[:, None]
    return 0.5 * blocks * norm[:, :, None] * norm[:, None, :]


def _odd_fold(tl: TwoLevelComponents) -> bool:
    """Whether ``tl`` is a Dirichlet mesh that is the odd fold of a uniform
    pattern, to within 8 eps of the largest interior entry of ``A`` and of
    ``D``: then ``E`` is block diagonal in the sine basis of
    ``_sine_blocks``.

    The interior blocks of ``A`` repeat one diagonal block ``d`` and one
    coupling ``u`` with ``d = S d S`` and ``u^T = S u S`` (``S`` the 2x2
    swap: the pattern is its own mirror image), the boundary blocks are
    ``d - u^T S`` and ``d - u S`` (the couplings to the mirrored cells,
    whose traces are those of the boundary cells swapped and negated), and
    the wrap block is exactly zero: a periodic mesh fails there even where
    its couplings are below the rounding of ``d`` (gamma near 1e-300).
    The cell smoother repeats one block ``b = S b S``; the point smoother
    repeats one node block ``b = S b S``, and its corner block, the two
    boundary unknowns, is ``diag(b00 - b01, b11 - b10)``.
    """
    A, D = tl.A, tl.D.blocks
    d, u = A.diag[1], A.upper[0]
    swap = np.s_[..., ::-1, ::-1]
    b = D[0]
    if tl.D.shift:
        corner = np.diag([b[0, 0] - b[0, 1], b[1, 1] - b[1, 0]])
        smoother = (D[:-1] - b, D[-1] - corner, b - b[swap])
    else:
        smoother = (D - b, b - b[swap])
    operator = (
        A.diag[1:-1] - d, A.upper[:-1] - u, d - d[swap], u.T - u[swap],
        A.diag[0] - (d - u.T[:, ::-1]), A.diag[-1] - (d - u[:, ::-1]),
    )
    scales = (max(np.abs(d).max(), np.abs(u).max()), np.abs(b).max())
    return not A.upper[-1].any() and all(
        max(np.abs(gap).max() for gap in gaps) <= 8.0 * _EPS * scale
        for gaps, scale in zip((operator, smoother), scales)
    )


def _finite(M: np.ndarray, tl: TwoLevelComponents) -> np.ndarray:
    """``M``, or ``OverflowError`` when an entry is not finite."""
    if not np.isfinite(M).all():
        raise OverflowError(errno.ERANGE, f"the iteration matrix E at alpha={tl.alpha!r} overflows")
    return M


def _uniform(*stacks: np.ndarray) -> bool:
    """Whether each stack repeats its first block along its leading axis."""
    return all((stack == stack[:1]).all() for stack in stacks)


def _coarse_cell_blocks(tl: TwoLevelComponents):
    """``(D^{-1}, A, A0, W, R, P)`` per coarse frequency, for
    ``_pencil_mu``, or ``None`` unless ``A``, ``D^{-1}`` and ``A0`` repeat
    the same blocks, bit for bit, on every coarse cell.

    Row block ``M`` of such an operator holds ``own`` on the diagonal,
    ``next`` in column block ``M + 1`` and ``next^T`` in ``M - 1``, modulo
    the coarse cells: a periodic mesh.  A Dirichlet mesh fails the test
    on its boundary blocks and its zero wrap coupling.  At ``z = exp(2 pi
    i k / (J/2))`` the operator has the symbol ``own + next z + next^T
    conj(z)``: ``(J/2, 4, 4)`` stacks for ``D^{-1}`` and ``A``, ``(J/2,
    2, 2)`` for ``A0``, whose ``k = 0`` block takes the all-ones shift on a
    constant kernel, and the stencils of ``W``, ``R`` and ``P``.
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
    pairs = (smoother, _pair_blocks(*(block[0] for block in fine)), (A0.diag[0], A0.upper[0]))
    z = np.exp(2j * np.pi * np.arange(A0.cells) / A0.cells)[:, None, None]
    Dinv, A, A0 = (own + nxt * z + nxt.T * z.conj() for own, nxt in pairs)
    if tl._A0_factor.constant_kernel:
        A0[0] = _shift_off_constants(A0[0])
    return Dinv, A, A0, _stencil_complement(tl.P), tl.R.stencil, tl.P.stencil


def assembled_mu(tl: TwoLevelComponents) -> np.ndarray:
    """The J eigenvalues ``mu``, ascending, of the pencil of the module
    docstring; ``alpha`` does not enter.  When ``A0`` has a constant
    kernel (periodic pure diffusion, or a reaction term lost to rounding
    against the penalty), ``E`` also has the eigenvalue 1 of the constant
    vector, which is not among these ``mu``.

    Periodic meshes solve it per coarse frequency (``_coarse_cell_blocks``):
    O(J) work and memory at any J.  Every other mesh (Dirichlet, say)
    solves it whole (``_whole_mesh``), up to J = 1024; larger meshes raise
    ``ValueError`` before anything dense is built.  Raises ``ValueError``
    also when ``Z^T A Z`` is not definite.
    """
    return _pencil_mu(*(_coarse_cell_blocks(tl) or _whole_mesh(tl)))


def assembled_rho(tl: TwoLevelComponents) -> float:
    """Exact two-grid spectral radius: that of ``E =
    build_iteration_matrix(tl)`` with exact coarse solves, ``max |1 -
    alpha mu|`` over ``assembled_mu`` (see the module docstring), and at
    least 1 when ``A0`` has a constant kernel.

    Periodic meshes take it at the two extreme ``mu`` of ``assembled_mu``
    in O(J) work at any J: with finite gamma, up to the constant-kernel
    switch, within 3.6e-15 of the closed-form frequency analysis (J 4 to
    1024), where ``eigvals(E)`` is up to 6.6e-8 off.  So does every mesh
    that is neither periodic nor a fold, up to J = 1024.  A radius beyond
    the float range is ``inf`` there.  The odd fold of a uniform pattern (a
    Dirichlet mesh, ``_odd_fold``) takes it from the ``J/2 + 1`` sine
    blocks of ``E`` (``_fold_rho``), up to J = 1024; an ``alpha`` so large
    that ``E`` or its blocks overflow (from about 1e307) raises
    ``OverflowError``.
    """
    stacks = _coarse_cell_blocks(tl)
    if stacks is None and _odd_fold(tl):
        rho = _fold_rho(tl)
    else:
        mu = _pencil_mu(*(stacks or _whole_mesh(tl)))
        # fl(1 - fl(alpha mu)) is monotone in mu; a radius beyond the float
        # range rounds to inf, without a warning
        with np.errstate(over="ignore"):
            rho = _rho_of_extremes(mu[0], mu[-1], tl.alpha)
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
