"""Why a 4x4 block tells the whole story of the periodic two-grid method.

The unitary basis of discrete grid functions block-diagonalizes every
periodic block-circulant matrix into 2x2 blocks; pairing the two
frequencies that coincide on the coarse mesh yields a 4x4 block of the
two-grid error operator whose eigenvalue union reproduces the full
spectrum exactly.  This script measures all of that, then shows the
closed-form eigenvalue pair agreeing with the block decomposition.
"""

import math

import numpy as np

from dgtwolevel import (
    CELL,
    PERIODIC,
    ProblemConfig,
    assemble_operator,
    build_iteration_matrix,
    eigs_closed_form,
    symbols_at_ck,
    two_grid_eigenvalues,
    two_level_components,
    verify_block_diagonalization,
)

rng = np.random.default_rng(0)
blocks = [rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in range(8)]
off, unit = verify_block_diagonalization(blocks, 8)
print(f"random block circulant:   off-block residual {off:.2e}, unitarity {unit:.2e}")

config = ProblemConfig(8, 2.0, math.inf, PERIODIC)
A = assemble_operator(config).toarray()
op_blocks = [A[0:2, 2 * j : 2 * j + 2] for j in range(8)]
off, unit = verify_block_diagonalization(op_blocks, 8)
print(f"assembled operator:       off-block residual {off:.2e}, unitarity {unit:.2e}")

config = ProblemConfig(16, 2.0, 1.0, PERIODIC)
alpha = 0.8
tl = two_level_components(config, CELL, alpha)
dense = np.sort(np.linalg.eigvals(build_iteration_matrix(tl)).real)
union = np.sort(two_grid_eigenvalues(config, CELL, alpha).real)
print(f"dense spectrum vs block union: max gap {np.abs(dense - union).max():.2e}")

print()
print("Per-frequency eigenvalue pair, closed form vs 4x4 block (delta0=2, gamma=1):")
print(f"{'c_k':>6} {'lambda+':>12} {'lambda-':>12} {'block gap':>10}")
for ck in (-1.0, -0.5, 0.0, 0.5, 1.0):
    pair = eigs_closed_form(ck, config, CELL, alpha)
    ev = np.sort(np.linalg.eigvals(symbols_at_ck(2.0, 1.0, CELL, alpha, ck).Ehat).real)
    gap = max(abs(ev[-1] - pair.lambda_plus), abs(ev[0] - pair.lambda_minus))
    print(f"{ck:6.2f} {pair.lambda_plus:12.8f} {pair.lambda_minus:12.8f} {gap:10.2e}")
