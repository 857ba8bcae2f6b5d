"""Seeded cases of the three benchmark workloads, how to run them and how
to check what they return.

A *case* is one user-level task:

* ``solve``: build the two-level solver for one Dirichlet problem, take
  ``alpha`` from ``alpha_opt`` and run ``stationary_solve`` on three
  seeded right-hand sides to relative residual 1e-10.
* ``verify``: ``dgtwolevel sweep --dense`` over three penalties at one
  (smoother, gamma, bc), then ``dgtwolevel validate``, both in-process.
* ``tune``: ``dgtwolevel sweep`` over a fine penalty grid, the numeric
  optimum at three penalties and ``crossover_check`` for one
  (smoother, gamma).

The seed only jitters the penalties, reaction scalings and right-hand
sides around a fixed design, so every seed does the same kind and amount
of work.  Checks use routes independent of the value checked, or
properties the method must have; none compares with stored output.
"""

import contextlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

import dgtwolevel as dg
from dgtwolevel import cli

INF = math.inf
TOL = 1e-10
MAXIT = 300
# Iterations allowed beyond ceil(log(TOL) / log(rho_predicted)): the error
# needs a few steps to settle on the slowest mode, and rho_predicted is the
# periodic (LFA) factor while the solve is Dirichlet.  Over 36 cases at
# J = 1024 no solve needed any of it.
ITERATION_SLACK = 2
# |rho_dense - rho_lfa| where matrix-level LFA is exact: periodic with
# finite gamma, and Dirichlet pure diffusion (the closed forms hold there
# to rounding); periodic pure diffusion has rho_dense = 1 exactly.
EXACT_TOL = 1e-9
# Dirichlet with finite gamma differs from the periodic LFA by a boundary
# effect, measured at most 2.5e-4 at J = 64 and 6e-6 at J = 192.
DIRICHLET_RD_TOL = 5e-4
# Closed-form rho against the 4x4 block eigenvalues; the reaction-diffusion
# tables lose digits to cancellation at gamma = 1e4 (about 1.2e-7).
BLOCK_TOL = 1e-6
# The paper's smoother break-even penalty for pure diffusion.
PAPER_CROSSOVER = 2.19149

WORKLOADS = ("solve", "verify", "tune")
# Workloads whose CLI pool threads run in parallel (LAPACK eigensolves
# release the interpreter lock); they keep all cores.  tune's pool threads
# run pure Python, one at a time.
THREADED = {"verify"}

SOLVE_DESIGN = (
    (dg.CELL, INF, 1.5), (dg.CELL, 1.0, 3.0), (dg.CELL, 0.05, 1.5),
    (dg.POINT, INF, 3.0), (dg.POINT, 1.0, 1.5), (dg.POINT, 0.05, 3.0),
)

SIZES = {
    "full": {"solve_cells": 1024, "verify_cells": 192, "tune_step": 0.01, "tune_penalties": 3},
    "tiny": {"solve_cells": 64, "verify_cells": 64, "tune_step": 0.1, "tune_penalties": 1},
}


@dataclass
class Case:
    """Inputs of one case.  ``delta0`` holds the penalty (``solve``), the
    three swept penalties (``verify``), or the sweep's first penalty then
    the numeric-optimum penalties (``tune``); ``rows`` are the sweep rows
    ``tune`` re-derives from the Fourier blocks."""

    id: str
    kind: str
    gamma: float
    cells: int
    delta0: tuple
    bc: str = dg.DIRICHLET
    rhs: list = field(default_factory=list, repr=False)
    step: float = 0.0
    rows: tuple = ()


def _jitter(rng, value, rel):
    return value * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _gamma_jitter(rng, gamma):
    return gamma if math.isinf(gamma) else gamma * math.exp(0.05 * rng.uniform(-1.0, 1.0))


def _gamma_arg(gamma):
    return "inf" if math.isinf(gamma) else repr(gamma)


def make_cases(workload, seed, size="full"):
    """The seeded case list of one workload; every round runs all of it."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    sizes = SIZES[size]
    cases = []
    if workload == "solve":
        cells = sizes["solve_cells"]
        # Each smoother meets pure-diffusion, balanced and reaction-dominated
        # gamma, and both penalties; six cases keep a round near 5 s.
        for kind, gamma, delta0 in SOLVE_DESIGN:
            cases.append(Case(
                id=f"{kind}-g{gamma:g}-d{delta0:g}",
                kind=kind,
                gamma=_gamma_jitter(rng, gamma),
                cells=cells,
                delta0=(_jitter(rng, delta0, 0.02),),
                rhs=[rng.standard_normal(2 * cells) for _ in range(3)],
            ))
    elif workload == "verify":
        cells = sizes["verify_cells"]
        for kind in (dg.CELL, dg.POINT):
            for gamma, bc in ((INF, dg.DIRICHLET), (INF, dg.PERIODIC), (1.0, dg.PERIODIC),
                              (0.05, dg.DIRICHLET)):
                cases.append(Case(
                    id=f"{kind}-g{gamma:g}-{bc}",
                    kind=kind,
                    gamma=_gamma_jitter(rng, gamma),
                    cells=cells,
                    delta0=tuple(_jitter(rng, d, 0.05) for d in (1.2, 2.0, 3.0)),
                    bc=bc,
                ))
    elif workload == "tune":
        step = sizes["tune_step"]
        grid = 1 + int(round(3.0 / step))
        for kind in (dg.CELL, dg.POINT):
            for gamma in (INF, 1e4, 1.0, 0.05):
                # two penalties in the 1.45-1.6 window around the best cell
                # penalty 3/2, one in [2, 4]
                penalties = (
                    rng.uniform(1.45, 1.5), rng.uniform(1.5, 1.6), rng.uniform(2.0, 4.0)
                )[: sizes["tune_penalties"]]
                cases.append(Case(
                    id=f"{kind}-g{gamma:g}",
                    kind=kind,
                    gamma=gamma,
                    cells=64,
                    delta0=(1.0 + 0.5 * step * rng.uniform(), *penalties),
                    step=step,
                    rows=tuple(int(i) for i in rng.choice(grid - 1, size=3, replace=False)),
                ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def _cli(argv):
    """``dgtwolevel <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv(text):
    lines = text.strip().splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


# ---------------------------------------------------------------- solve

def run_solve(case):
    config = dg.ProblemConfig(case.cells, case.delta0[0], case.gamma, case.bc)
    best = dg.alpha_opt(config, case.kind)
    tl = dg.two_level_components(config, case.kind, best.alpha_opt)
    return {
        "rho": best.rho_predicted,
        "histories": [dg.stationary_solve(tl, f, TOL, MAXIT) for f in case.rhs],
    }


def check_solve(case, out):
    problems = []
    rho = out["rho"]
    if not 0.0 < rho < 1.0:
        return [f"predicted rho {rho} outside (0, 1)"]
    limit = math.ceil(math.log(TOL) / math.log(rho)) + ITERATION_SLACK
    for i, hist in enumerate(out["histories"]):
        norms = hist.residual_norms
        if not (hist.converged and not hist.diverged and norms[-1] <= TOL * norms[0]):
            problems.append(f"rhs {i}: no convergence to {TOL} ({norms[-1] / norms[0]:.3e})")
        if hist.iterations > limit:
            problems.append(
                f"rhs {i}: {hist.iterations} iterations, predicted rho {rho:.6f} allows {limit}"
            )
        if len(norms) != hist.iterations + 1:
            problems.append(f"rhs {i}: {len(norms)} residuals for {hist.iterations} iterations")
    return problems


# ---------------------------------------------------------------- verify

def run_verify(case):
    sweep = _cli([
        "sweep", "--smoother", case.kind, "--delta0", ",".join(repr(d) for d in case.delta0),
        "--gamma", _gamma_arg(case.gamma), "--cells", str(case.cells), "--bc", case.bc,
        "--dense",
    ])
    return {"sweep": sweep, "validate": _cli(["validate", "--cells", str(case.cells)])}


def check_verify(case, out):
    problems = []
    code, text, err = out["sweep"]
    if code != 0:
        return [f"sweep exit {code}: {err.strip()}"]
    header, rows = _csv(text)
    if header != "delta0,gamma,alpha,rho_lfa,rho_dense":
        problems.append(f"sweep header {header!r}")
    if [r[0] for r in rows] != list(case.delta0) or any(r[1] != case.gamma for r in rows):
        problems.append("sweep rows do not echo the requested (delta0, gamma)")
    for d0, _, _, rho_lfa, rho_dense in rows:
        if math.isinf(case.gamma) and case.bc == dg.PERIODIC:
            gap, tol = abs(rho_dense - 1.0), EXACT_TOL  # constant mode
        elif math.isinf(case.gamma) or case.bc == dg.PERIODIC:
            gap, tol = abs(rho_dense - rho_lfa), EXACT_TOL
        else:
            gap, tol = abs(rho_dense - rho_lfa), DIRICHLET_RD_TOL
        if not gap <= tol:
            problems.append(f"delta0={d0}: rho_dense {rho_dense} vs rho_lfa {rho_lfa}, gap {gap:.3e} > {tol}")
    code, text, _ = out["validate"]
    lines = text.strip().splitlines()
    passed = [line for line in lines[:-1] if line.startswith("PASS ")]
    summary = f"{len(passed)}/{len(passed)} checks passed"
    if code != 0 or len(passed) != len(lines) - 1 or not passed or lines[-1] != summary:
        problems.append(f"validate exit {code}: {lines[-1] if lines else 'no output'}")
    return problems


# ---------------------------------------------------------------- tune

def run_tune(case):
    lo, *penalties = case.delta0
    sweep = _cli([
        "sweep", "--smoother", case.kind, "--delta0", f"{lo!r}:4:{case.step!r}",
        "--gamma", _gamma_arg(case.gamma), "--cells", str(case.cells),
    ])
    numeric = [
        dg.alpha_opt_numeric(dg.ProblemConfig(case.cells, d0, case.gamma), case.kind)
        for d0 in penalties
    ]
    return {"sweep": sweep, "numeric": numeric, "crossover": dg.crossover_check(case.gamma)}


def block_rho(delta0, gamma, kind, alpha, cells):
    """Two-grid rho over the mesh frequencies from the 4x4 Fourier blocks.

    Modes in the kernel of the operator block (the constant in pure
    diffusion at c_k = 1) are left untouched by every iteration and are
    not part of the closed-form pair, so they are dropped.
    """
    rho = 0.0
    for k in range(1, cells // 2 + 1):
        sym = dg.symbols_at_ck(delta0, gamma, kind, alpha, math.cos(4.0 * math.pi * k / cells))
        values, vectors = np.linalg.eig(sym.Ehat)
        moved = np.linalg.norm(sym.Ahat @ vectors, axis=0) > 1e-8 * np.abs(sym.Ahat).max()
        rho = max(rho, float(np.abs(values[moved]).max()))
    return rho


def check_tune(case, out):
    problems = []
    code, text, err = out["sweep"]
    if code != 0:
        return [f"sweep exit {code}: {err.strip()}"]
    header, rows = _csv(text)
    lo = case.delta0[0]
    if header != "delta0,gamma,alpha,rho_lfa":
        problems.append(f"sweep header {header!r}")
    steps = np.diff([r[0] for r in rows])
    if rows[0][0] != lo or np.abs(steps - case.step).max() > 1e-9 or rows[-1][0] > 4.0 + case.step:
        problems.append("sweep rows do not cover the requested delta0 grid")
    if any(r[1] != case.gamma or not 0.0 < r[3] < 1.0 for r in rows):
        problems.append("sweep row with another gamma or rho outside (0, 1)")
    for i in case.rows:
        d0, g, alpha, rho = rows[i]
        ref = block_rho(d0, g, case.kind, alpha, case.cells)
        if not abs(ref - rho) <= BLOCK_TOL:
            problems.append(f"row delta0={d0}: rho_lfa {rho} vs 4x4 blocks {ref}")
    for d0, numeric in zip(case.delta0[1:], out["numeric"]):
        formula = dg.alpha_opt(dg.ProblemConfig(case.cells, d0, case.gamma), case.kind)
        if math.isinf(case.gamma):
            if not abs(formula.alpha_opt - numeric.alpha_opt) <= 1e-6:
                problems.append(
                    f"delta0={d0}: alpha formula {formula.alpha_opt} vs numeric {numeric.alpha_opt}"
                )
        elif not numeric.rho_predicted <= formula.rho_predicted + 1e-7:
            problems.append(
                f"delta0={d0}: numeric rho {numeric.rho_predicted} above formula {formula.rho_predicted}"
            )
    lo_x, hi_x = out["crossover"]
    if not 1.0 < lo_x < hi_x <= lo_x + 1e-3 + 1e-12:
        problems.append(f"crossover bracket ({lo_x}, {hi_x}) is not a 1e-3 bracket")
    if math.isinf(case.gamma) and not lo_x <= PAPER_CROSSOVER <= hi_x:
        problems.append(f"crossover bracket ({lo_x}, {hi_x}) misses {PAPER_CROSSOVER}")
    return problems


RUN = {"solve": run_solve, "verify": run_verify, "tune": run_tune}
CHECK = {"solve": check_solve, "verify": check_verify, "tune": check_tune}


def probe():
    """One small call into every traced library function (J <= 32).

    Traced runs use it for the per-layer metrics of layers the workload
    itself never calls, so every metric is measured in every traced run.
    """
    config = dg.ProblemConfig(32, 1.5, 1.0, dg.DIRICHLET)
    tl = dg.two_level_components(config, dg.CELL, dg.alpha_opt(config, dg.CELL).alpha_opt)
    dg.stationary_solve(tl, np.ones(64), TOL, MAXIT)
    dg.alpha_opt_numeric(config, dg.CELL)
    dg.crossover_check(1.0)
    _cli(["sweep", "--smoother", "point", "--delta0", "1.5,3", "--gamma", "0.05",
          "--cells", "32", "--dense"])
    _cli(["validate", "--cells", "16"])
