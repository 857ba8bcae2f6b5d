"""Cross-module consistency checks behind the ``validate`` command.

Each check compares two independent routes to the same quantity (block
diagonalization vs. dense algebra, closed forms vs. block eigenvalues,
formula vs. numeric optimum) and reports observed against expected.

The checks run in bulk: one block-diagonalization of a stack of random
block circulants, one ``symbols_at_angle`` call per smoother for the
frequency blocks of its dense-spectrum designs, and one
``eigenvalue_pair`` call per smoother over the sampled
``(delta0, gamma, alpha, c_k)`` or over a stacked gamma column.  Each
observed value is the same bits as with one call per sample or design;
nothing is kept between runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_operator
from .closed_forms import ASYMPTOTIC_CK, ClosedFormDomainError, eigenvalue_pair, eigs_closed_form
from .config import CELL, PERIODIC, POINT, ProblemConfig, check_cells
from .fourier import symbols_at_angle, symbols_at_ck, verify_block_diagonalization
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
    threshold.  Raises ``ValueError`` for a mesh ``ProblemConfig``
    refuses; ``cells`` changes no check, each of which reads fixed meshes
    or ``c_k`` values.
    """
    check_cells(cells)
    checks = []
    rng = np.random.default_rng(2024)

    # Block-diagonalization of random block circulants, as one stack, and
    # of the operator, whose residual is relative to its largest entry.
    circulants = rng.uniform(-1.0, 1.0, size=(20, 8, 2, 2))
    worst, worst_unitary = verify_block_diagonalization(circulants, 8)
    A = assemble_operator(ProblemConfig(8, 2.0, math.inf, PERIODIC)).toarray()
    # the first block row: block j is A[0:2, 2j:2j + 2]
    off, unit = verify_block_diagonalization(A[0:2].reshape(2, 8, 2).swapaxes(0, 1), 8)
    worst = max(worst, off / max(1.0, np.abs(A).max()))
    checks.append(CheckResult("fourier", "block_diagonalization", worst < 1e-10, worst, "< 1e-10"))
    checks.append(
        CheckResult("fourier", "basis_unitarity", max(worst_unitary, unit) < 1e-12,
                    max(worst_unitary, unit), "< 1e-12")
    )

    # Union of block spectra equals the dense periodic spectrum.  The
    # blocks of each smoother's two designs come from one stacked call.
    worst = 0.0
    # the node phases of two_grid_eigenvalues on a mesh of J = 16 cells
    J = 16
    t = 2.0 * math.pi * np.arange(1, J // 2 + 1) / J
    for kind, designs in (
        (CELL, [(2.0, math.inf, 0.7), (1.2, 1 / 16, 1.0)]),
        (POINT, [(2.0, 1.0, 1.0), (4.0, math.inf, 0.7)]),
    ):
        configs = [ProblemConfig(J, delta0, gamma, PERIODIC) for delta0, gamma, _ in designs]
        alphas = [alpha for *_, alpha in designs]
        blocks = symbols_at_angle(
            t, np.array([[c.delta0] for c in configs]), np.array([[c.inv_gamma] for c in configs]),
            kind, np.array(alphas)[:, None], scale=float(J) ** 2,
        ).Ehat
        for cfg, alpha, blockwise in zip(configs, alphas, np.linalg.eigvals(blocks)):
            E = build_iteration_matrix(two_level_components(cfg, kind, alpha))
            dense = np.linalg.eigvals(E)
            blockwise = blockwise.reshape(-1)
            gap = np.abs(np.sort(dense.real) - np.sort(blockwise.real)).max()
            gap = max(gap, np.abs(dense.imag).max(), np.abs(blockwise.imag).max())
            worst = max(worst, gap)
    checks.append(CheckResult("fourier", "block_vs_dense_spectrum", worst < 1e-9, worst, "< 1e-9"))

    # Closed forms against block eigen-decompositions (appendix fidelity).
    # The samples are drawn first; the blocks and the pairs of each
    # smoother are built and solved in one stacked call each.
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
        try:
            hi, lo = eigenvalue_pair(xs, delta0s, gammas, alphas, kind)
        except ClosedFormDomainError:
            worst = math.inf
            continue
        zero = np.zeros_like(hi)
        ref = np.sort(np.stack((zero, zero, hi, lo), axis=-1), axis=-1)
        gap = np.abs(spectra - ref).max(axis=-1) / np.maximum(1.0, np.abs(ref).max(axis=-1))
        worst = max(worst, gap.max())
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

    # Large-gamma degeneration of the reaction-diffusion forms: each
    # smoother evaluates the penalties at gamma = 1e10 and inf as one column.
    worst = 0.0
    penalties = np.array([[1.2], [2.0], [5.0]] * 2)
    gammas = np.repeat([[1e10], [math.inf]], 3, axis=0)
    for kind in (POINT, CELL):
        try:
            hi, lo = eigenvalue_pair(x, penalties, gammas, 1.0, kind)
        except ClosedFormDomainError:
            worst = math.inf
            continue
        worst = max(worst, np.abs(hi[:3] - hi[3:]).max(), np.abs(lo[:3] - lo[3:]).max())
    checks.append(CheckResult("lfa", "poisson_degeneration", worst < 1e-8, worst, "< 1e-8"))

    # Touching eigenvalue curves at k = J/4 for delta0 = 1 (point smoother).
    cfg = ProblemConfig(cells, 1.0, math.inf, PERIODIC)
    try:
        # alpha_opt_poisson also evaluates rho on ASYMPTOTIC_CK through the
        # tables, which the endpoint c_k = -1 below does not read
        alpha = alpha_opt_poisson(POINT, 1.0).alpha_opt
        pair = eigs_closed_form(math.cos(math.pi), cfg, POINT, alpha)
        gap = abs(pair.lambda_plus - pair.lambda_minus)
    except ClosedFormDomainError:
        gap = math.inf
    checks.append(CheckResult("lfa", "quarter_frequency_touch", gap < 1e-10, gap, "< 1e-10"))

    return checks
