"""Running the two-level iteration on an assembled Dirichlet problem.

Assembles the 64-cell operator with weak Dirichlet conditions, runs the
preconditioned stationary iteration, and compares the measured residual
reduction per step with the spectral radius of the iteration matrix (from
its full nonsymmetric eigensolve, and from the symmetric matrix of half
its size that ``assembled_rho`` uses) and with the frequency-analysis
prediction (a periodic-mesh quantity).
"""

import math

import numpy as np

from dgtwolevel import (
    CELL,
    DIRICHLET,
    POINT,
    ProblemConfig,
    alpha_opt_poisson,
    assembled_rho,
    build_iteration_matrix,
    convergence_factor,
    spectral_radius_dense,
    stationary_solve,
    two_level_components,
)

config = ProblemConfig(cells=64, delta0=1.5, gamma=math.inf, bc=DIRICHLET)
result = alpha_opt_poisson(CELL, config.delta0)
print(f"cell smoother, delta0 = {config.delta0}, alpha* = {result.alpha_opt}")

tl = two_level_components(config, CELL, result.alpha_opt)
rho_dense = spectral_radius_dense(build_iteration_matrix(tl))
print(f"predicted rho (frequency analysis): {result.rho_predicted:.6f}")
print(f"measured  rho (assembled matrix):   {rho_dense:.6f} (eigvals of E)")
print(f"                                    {assembled_rho(tl):.6f} (assembled_rho)")

f = np.ones(2 * config.cells)
history = stationary_solve(tl, f, tol=1e-10, maxit=100)
print(f"converged in {history.iterations} iterations"
      f" (residual {history.residual_norms[-1]:.2e})")
print(f"asymptotic reduction per step: {convergence_factor(history):.4f}")

print()
print("Residual history (every other step):")
for i in range(0, len(history.residual_norms), 2):
    r = history.residual_norms[i]
    print(f"  step {i:2d}: {r:10.3e}")

print()
print("Overrelaxing far beyond the optimum diverges, and the iteration says so:")
bad = two_level_components(config, POINT, 3.0)
print(f"  rho at alpha = 3.0: {spectral_radius_dense(build_iteration_matrix(bad)):.2f}")
history = stationary_solve(bad, f, tol=1e-10, maxit=100)
print(f"  diverged = {history.diverged} after {history.iterations} steps")
