"""Two-level preconditioner, stationary iteration and dense spectra."""

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    assemble_coarse,
    assemble_operator,
    assemble_smoother,
    assemble_transfer,
)
from .blocks import BlockDiagonal, BlockTridiagonal, CellStencil, CyclicReduction
from .config import PERIODIC, ProblemConfig

# Residual ratios averaged by ``convergence_factor``.
_RATE_STEPS = 10
# Steps without a new smallest residual after which a solve has stagnated.
_STAGNATION_STEPS = 50
# Above this gamma a periodic A0 (condition number about 4 gamma) gets
# iterative refinement in every coarse solve: without it, rho_dense at
# J = 192 and gamma = 1e9 was 2.8e-12 off LFA, at 1e8 within 1.5e-15.
_REFINE_GAMMA = 1e8
# Each step shrinks the error by about 4 gamma eps: at gamma = 1e12 one
# step left rho_dense 1.1e-10 off LFA (J = 64, delta0 = 1.2), two 2e-14.
_REFINE_STEPS = 2


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


@dataclass
class TwoLevelComponents:
    """Immutable bundle of the two-level method's operators.

    ``A`` is the fine operator, ``D`` the block-diagonal smoother, ``R``/
    ``P`` the transfers, ``A0 = R A P`` the Galerkin coarse operator and
    ``alpha`` the smoother relaxation, all in the structured forms of
    ``dgtwolevel.blocks``.  ``constant_kernel`` declares ``A0`` singular
    on the constant vector (periodic pure diffusion); the coarse solve
    then projects that mode out.  ``refine_coarse`` adds
    ``_REFINE_STEPS`` steps of iterative refinement to every coarse
    solve, for an ``A0`` so nearly singular that a single solve loses
    digits.  The block inverses of ``D`` and the cyclic reduction of
    ``A0`` are prepared once at construction.
    """

    A: BlockTridiagonal
    D: BlockDiagonal
    R: CellStencil
    P: CellStencil
    A0: BlockTridiagonal
    alpha: float
    constant_kernel: bool = False
    refine_coarse: bool = False
    _D_inverse: BlockDiagonal = field(default=None, repr=False)
    _A0_factor: CyclicReduction = field(default=None, repr=False)

    def __post_init__(self):
        n = self.A.shape[0]
        if self.D.shape != (n, n):
            raise ValueError("A and D must be of equal size")
        if self.R.shape != (n // 2, n) or self.P.shape != (n, n // 2) or self.A0.shape[0] != n // 2:
            raise ValueError("transfer operators have incompatible shapes")
        self._D_inverse = self.D.inverse()
        self._A0_factor = CyclicReduction(self.A0, constant_kernel=self.constant_kernel)

    def smooth(self, g: np.ndarray) -> np.ndarray:
        """Apply D^{-1} to a vector or to every column of a matrix."""
        return self._D_inverse @ g

    def coarse_solve(self, g: np.ndarray) -> np.ndarray:
        """Apply A0^{-1} (the pseudo-inverse when A0 is singular on
        constants) to a vector or to every column of a matrix."""
        x = self._A0_factor.solve(g)
        if self.refine_coarse:
            for _ in range(_REFINE_STEPS):
                x += self._A0_factor.solve(g - self.A0 @ x)
        return x


def two_level_components(config: ProblemConfig, kind: str, alpha: float) -> TwoLevelComponents:
    """Build every operator of the two-level method for ``config``.

    Raises ``ValueError`` for pure diffusion at ``delta0 = 1``, where the
    operator is singular on the alternating mode and no iteration
    converges.
    """
    if config.is_poisson and config.delta0 == 1.0:
        raise ValueError(
            "the two-level method needs delta0 > 1 at gamma = inf: at delta0 = 1 the "
            "pure diffusion operator is singular on the alternating mode"
        )
    A = assemble_operator(config)
    D = assemble_smoother(config, kind)
    R, P = assemble_transfer(config.cells)
    A0 = assemble_coarse(A, R, P)
    # only pure diffusion is singular: any finite gamma adds a positive
    # mass term, however small, and A0 is then inverted as it is
    constant_kernel = config.bc == PERIODIC and config.is_poisson
    refine_coarse = config.bc == PERIODIC and _REFINE_GAMMA < config.gamma < math.inf
    return TwoLevelComponents(A, D, R, P, A0, alpha, constant_kernel, refine_coarse)


def apply_preconditioner(tl: TwoLevelComponents, g: np.ndarray) -> np.ndarray:
    """One application of the two-level preconditioner to a residual g.

    Smooths with the relaxed block solve, then corrects on the coarse
    space: ``y = x + P A0^{-1} R (g - A x)`` with ``x = alpha D^{-1} g``.
    """
    g = np.asarray(g, dtype=float)
    x = tl.alpha * tl.smooth(g)
    return x + tl.P @ tl.coarse_solve(tl.R @ (g - tl.A @ x))


def iteration_factors(tl: TwoLevelComponents) -> tuple:
    """Dense ``(I - P A0^{-1} R A, D^{-1} A)``, the coarse-correction
    factor and the unrelaxed smoothed operator of the iteration matrix.

    Every column is smoothed and coarse-solved in one batched apply.
    """
    A = tl.A.toarray()
    correct = np.eye(A.shape[0]) - tl.P @ tl.coarse_solve(tl.R @ A)
    return correct, tl.smooth(A)


def build_iteration_matrix(tl: TwoLevelComponents) -> np.ndarray:
    """Dense error-propagation matrix
    ``E = (I - P A0^{-1} R A)(I - alpha D^{-1} A)``."""
    correct, smoothed = iteration_factors(tl)
    return correct @ (np.eye(smoothed.shape[0]) - tl.alpha * smoothed)


def spectral_radius_dense(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a dense square matrix.

    Uses the full nonsymmetric eigensolver (Hessenberg reduction plus
    shifted QR); matrices are restricted to desk scale.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"need a square matrix, got shape {M.shape}")
    if M.shape[0] > 1024:
        raise ValueError("matrix larger than the supported desk scale (1024)")
    try:
        return float(np.abs(np.linalg.eigvals(M)).max())
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc


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
