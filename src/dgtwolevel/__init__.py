"""Two-level block-Jacobi solvers and frequency analysis for 1D
interior-penalty discretizations of reaction-diffusion problems."""

from .assembly import (
    SingularBlockError,
    assemble_coarse,
    assemble_operator,
    assemble_smoother,
    assemble_transfer,
    smoother_partition,
    symmetry_defect,
)
from .blocks import BlockDiagonal, BlockTridiagonal, CellStencil, CyclicReduction
from .closed_forms import (
    ClosedFormDomainError,
    EigenPair,
    eigenvalue_pair,
    eigs_closed_form,
    lfa_spectral_radius,
)
from .config import CELL, DIRICHLET, PERIODIC, POINT, ProblemConfig
from .fourier import (
    Frequency,
    SymbolSet,
    block_circulant,
    fourier_basis,
    symbol_blocks,
    symbols_at_ck,
    two_grid_eigenvalues,
    verify_block_diagonalization,
)
from .optimal import (
    DELTA0_TILDE_MINUS,
    SMOOTHING_ONLY_ALPHA,
    DELTA0_TILDE_PLUS,
    DELTA_C_CROSSOVER,
    RelaxationResult,
    Thresholds,
    alpha_opt,
    alpha_opt_numeric,
    alpha_opt_poisson,
    alpha_opt_rd,
    crossover_check,
    gamma_c_cell,
    gamma_c_point,
    thresholds,
)
from .twolevel import (
    EigenSolverError,
    IterationHistory,
    TwoLevelComponents,
    apply_preconditioner,
    assembled_mu,
    assembled_rho,
    build_iteration_matrix,
    convergence_factor,
    spectral_radius_dense,
    stationary_solve,
    two_level_components,
)
from .validate import CheckResult, run_validation

__version__ = "0.1.0"
