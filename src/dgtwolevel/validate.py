"""Cross-module consistency checks behind the ``validate`` command.

Each check compares two independent routes to the same quantity (block
diagonalization vs. dense algebra, closed forms vs. block eigenvalues,
formula vs. numeric optimum) and reports observed against expected.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_operator
from .closed_forms import ASYMPTOTIC_CK, ClosedFormDomainError, eigenvalue_pair, eigs_closed_form
from .config import CELL, PERIODIC, POINT, ProblemConfig
from .fourier import symbols_at_ck, two_grid_eigenvalues, verify_block_diagonalization
from .optimal import (
    DELTA0_TILDE_PLUS,
    DELTA_C_CROSSOVER,
    _alpha_formula,
    alpha_opt_poisson,
    gamma_c_cell,
)
from .twolevel import build_iteration_matrix, two_level_components


@dataclass
class CheckResult:
    module: str
    name: str
    passed: bool
    observed: float
    expected: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.module}.{self.name}: observed {self.observed:.3e},"
            f" expected {self.expected}"
        )


def run_validation(cells: int = 64) -> list:
    """Run the full invariant suite; returns a list of check results.

    The checks of closed-form pairs (``appendix_vs_blocks``,
    ``equioscillation``, ``poisson_degeneration`` and
    ``quarter_frequency_touch``) read the coefficient tables through
    :func:`~dgtwolevel.closed_forms.eigenvalue_pair`, pure diffusion
    (``tau = 0``) included.  A table slip that drives a radicand or
    denominator out of range there is a failed check with observed
    ``inf``, not an error.

    The optimum is checked by the equioscillation of its pure-diffusion
    spectrum, and the thresholds by the paper's printed values.  Nothing
    checks ``alpha`` across the regime thresholds: it is
    ``2 / (mu_min + mu_max)`` over the endpoint ``mu`` and reads no
    threshold.
    """
    checks = []
    rng = np.random.default_rng(2024)

    # Block-diagonalization of random block circulants and of the operator.
    worst = 0.0
    worst_unitary = 0.0
    for _ in range(20):
        blocks = [rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in range(8)]
        off, unit = verify_block_diagonalization(blocks, 8)
        worst = max(worst, off)
        worst_unitary = max(worst_unitary, unit)
    A = assemble_operator(ProblemConfig(8, 2.0, math.inf, PERIODIC)).toarray()
    blocks = [A[0:2, 2 * j : 2 * j + 2] for j in range(8)]
    off, unit = verify_block_diagonalization(blocks, 8)
    worst = max(worst, off / max(1.0, np.abs(A).max()))
    checks.append(CheckResult("fourier", "block_diagonalization", worst < 1e-10, worst, "< 1e-10"))
    checks.append(
        CheckResult("fourier", "basis_unitarity", max(worst_unitary, unit) < 1e-12,
                    max(worst_unitary, unit), "< 1e-12")
    )

    # Union of block spectra equals the dense periodic spectrum.
    worst = 0.0
    quarter_skipped = cells % 4 != 0
    if quarter_skipped:
        warnings.warn(
            f"cells={cells} is not a multiple of 4; k = J/4 spectrum checks skipped",
            stacklevel=2,
        )
    for delta0, gamma, kind, alpha in [
        (2.0, math.inf, CELL, 0.7),
        (2.0, 1.0, POINT, 1.0),
        (1.2, 1 / 16, CELL, 1.0),
        (4.0, math.inf, POINT, 0.7),
    ]:
        cfg = ProblemConfig(16, delta0, gamma, PERIODIC)
        dense = np.linalg.eigvals(build_iteration_matrix(two_level_components(cfg, kind, alpha)))
        blockwise = two_grid_eigenvalues(cfg, kind, alpha)
        gap = np.abs(np.sort(dense.real) - np.sort(blockwise.real)).max()
        gap = max(gap, np.abs(dense.imag).max(), np.abs(blockwise.imag).max())
        worst = max(worst, gap)
    checks.append(CheckResult("fourier", "block_vs_dense_spectrum", worst < 1e-9, worst, "< 1e-9"))

    # Closed forms against block eigen-decompositions (appendix fidelity).
    # The samples are drawn first; the blocks of each smoother are built
    # and solved in one stacked call.
    samples = []
    for _ in range(50):
        delta0 = rng.uniform(1.0, 10.0)
        gamma = math.exp(rng.uniform(math.log(1 / 32), math.log(32)))
        alpha = rng.uniform(0.3, 2.0)
        x = rng.uniform(-1.0, 1.0)
        samples.append((delta0, gamma, alpha, x))
    delta0s, gammas, alphas, xs = np.array(samples).T
    worst = 0.0
    for kind in (POINT, CELL):
        blocks = symbols_at_ck(delta0s, gammas, kind, alphas, xs).Ehat
        spectra = np.sort(np.linalg.eigvals(blocks).real, axis=-1)
        for ev, (delta0, gamma, alpha, x) in zip(spectra, samples):
            try:
                hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
            except ClosedFormDomainError:
                worst = math.inf
                continue
            ref = np.sort([0.0, 0.0, float(hi), float(lo)])
            worst = max(worst, np.abs(ev - ref).max() / max(1.0, np.abs(ref).max()))
    checks.append(CheckResult("lfa", "appendix_vs_blocks", worst < 1e-8, worst, "< 1e-8"))

    # Equioscillation of the pure-diffusion spectrum at the optimum.  Each
    # smoother evaluates all penalties as one column against the c_k row;
    # every row equals its own scalar call.
    x = ASYMPTOTIC_CK
    penalties = (1.1, 1.3, DELTA0_TILDE_PLUS, 1.5, 2.0, 4.0, 10.0)
    worst = 0.0
    for kind in (POINT, CELL):
        try:
            alphas = np.array([[_alpha_formula(kind, delta0, math.inf)] for delta0 in penalties])
            hi, lo = eigenvalue_pair(x, np.array(penalties)[:, None], math.inf, alphas, kind)
        except ClosedFormDomainError:
            worst = math.inf
            continue
        worst = max(worst, np.abs(hi.max(axis=1) + lo.min(axis=1)).max())
    checks.append(CheckResult("optimal_params", "equioscillation", worst < 1e-8, worst, "< 1e-8"))

    # Threshold identities.
    gap = abs(DELTA0_TILDE_PLUS - 1.41964)
    checks.append(CheckResult("optimal_params", "delta_tilde_plus", gap < 1e-5, gap, "1.41964 +- 1e-5"))
    gap = abs(DELTA_C_CROSSOVER - 2.19149)
    checks.append(CheckResult("optimal_params", "delta_c_crossover", gap < 1e-5, gap, "2.19149 +- 1e-5"))
    gap = abs(gamma_c_cell() - 0.16607)
    checks.append(CheckResult("optimal_params", "gamma_c_cell", gap < 1e-4, gap, "0.16607 +- 1e-4"))

    # Large-gamma degeneration of the reaction-diffusion forms.
    worst = 0.0
    penalties = np.array([[1.2], [2.0], [5.0]])
    for kind in (POINT, CELL):
        try:
            hi_rd, lo_rd = eigenvalue_pair(x, penalties, 1e10, 1.0, kind)
            hi_p, lo_p = eigenvalue_pair(x, penalties, math.inf, 1.0, kind)
        except ClosedFormDomainError:
            worst = math.inf
            continue
        worst = max(worst, np.abs(hi_rd - hi_p).max(), np.abs(lo_rd - lo_p).max())
    checks.append(CheckResult("lfa", "poisson_degeneration", worst < 1e-8, worst, "< 1e-8"))

    # Touching eigenvalue curves at k = J/4 for delta0 = 1 (point smoother).
    if not quarter_skipped:
        cfg = ProblemConfig(cells, 1.0, math.inf, PERIODIC)
        try:
            # alpha_opt_poisson also evaluates rho on ASYMPTOTIC_CK through
            # the tables, which the endpoint c_k = -1 below does not read
            alpha = alpha_opt_poisson(POINT, 1.0).alpha_opt
            pair = eigs_closed_form(math.cos(math.pi), cfg, POINT, alpha)
            gap = abs(pair.lambda_plus - pair.lambda_minus)
        except ClosedFormDomainError:
            gap = math.inf
        checks.append(CheckResult("lfa", "quarter_frequency_touch", gap < 1e-10, gap, "< 1e-10"))

    return checks
