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
from .blocks import BlockDiagonal, BlockTridiagonal, CyclicReduction
from .config import ProblemConfig

# Residual ratios averaged by ``convergence_factor``.
_RATE_STEPS = 10
# Steps without a new smallest residual after which a solve has stagnated.
_STAGNATION_STEPS = 50


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
    that every coarse solve is refined.
    """

    def __init__(self, A: BlockTridiagonal, D: BlockDiagonal, alpha: float):
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
    converges.
    """
    if config.is_poisson and config.delta0 == 1.0:
        raise ValueError(
            "the two-level method needs delta0 > 1 at gamma = inf: at delta0 = 1 the "
            "pure diffusion operator is singular on the alternating mode"
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
    """Dense error-propagation matrix
    ``E = (I - P A0^{-1} R A)(I - alpha D^{-1} A)``.

    Every column is smoothed and coarse-solved in one batched apply.
    """
    A = tl.A.toarray()
    n = A.shape[0]
    correct = np.eye(n) - tl.P @ tl.coarse_solve(tl.R @ A)
    relaxed = tl.alpha * tl.smooth(A)
    del A  # freed before the product and its two temporaries
    return correct @ (np.eye(n) - relaxed)


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
