"""Optimal relaxation parameters, regime thresholds and numeric oracles.

The nonzero two-grid eigenvalues are affine in the relaxation parameter,
``lambda_{+-}(alpha) = 1 + alpha * g_{+-}(c_k)``, so centering the
spectrum (equioscillation of the extreme eigenvalues) has closed-form
solutions.  This module evaluates them, selects the correct regime
branch, and provides a grid + golden-section minimizer of the spectral
radius as an independent check.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .closed_forms import eigenvalue_pair, rho_on_ck_values
from .config import CELL, POINT, ProblemConfig, check_smoother
from .twolevel import iteration_factors, spectral_radius_dense, two_level_components

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Penalty where the middle cell branch begins: real root of
#: 4 d^3 - 8 d^2 + 4 d - 1.
DELTA0_TILDE_PLUS = (
    8.0 + np.cbrt(152.0 - 24.0 * math.sqrt(33.0)) + 2.0 * np.cbrt(19.0 + 3.0 * math.sqrt(33.0))
) / 12.0

#: Penalty where the last cell branch begins (and the overall optimum sits).
DELTA0_TILDE_MINUS = 1.5

#: Pure-diffusion penalty below which the cell smoother beats the point smoother.
DELTA_C_CROSSOVER = (
    1.0
    + np.cbrt(54.0 - 6.0 * math.sqrt(33.0)) / 6.0
    + np.cbrt(0.25 + math.sqrt(33.0) / 36.0)
)

#: Relaxation from a smoothing-only analysis (reference data, not used here).
SMOOTHING_ONLY_ALPHA = {POINT: 4.0 / 5.0, CELL: 2.0 / 3.0}


class NonUnimodalError(RuntimeError):
    """The sampled spectral radius has several separated minima."""

    def __init__(self, minima):
        self.minima = minima
        pts = ", ".join(f"(alpha={a:.6f}, rho={r:.6e})" for a, r in minima)
        super().__init__(f"spectral radius not unimodal on the bracket: {pts}")


@dataclass(frozen=True)
class RelaxationResult:
    alpha_opt: float
    rho_predicted: float
    branch: str
    thresholds_used: list = field(default_factory=list)


@dataclass(frozen=True)
class Thresholds:
    """Every regime boundary, evaluated at one reaction scaling."""

    gamma: float
    delta_tilde_plus: float
    delta_tilde_minus: float
    delta_c_crossover: float
    gamma_c_cell: float
    gamma_c_point: Callable[[float], float]
    delta_c_plus: float
    delta_c_minus: float
    delta_c1: float
    delta_c2: float
    delta_c3: float
    delta_c4: float
    xi: float


def gamma_c_point(delta0: float) -> float:
    """Reaction scaling where the point-smoother peak frequency switches."""
    return 1.0 / (3.0 * (math.sqrt(4.0 * (delta0 - 1.0) * delta0 + 5.0) + 3.0 - 2.0 * delta0))


def _delta_c_plus(g: float) -> float:
    num = -5.0 + 9.0 * g * (6.0 * g * g + 8.0 * g + 1.0)
    disc = (3.0 * g + 1.0) * (
        3.0 * g * (12.0 * g * (3.0 * g * (3.0 * g * (3.0 * g + 7.0) + 20.0) + 25.0) + 53.0)
        + 10.0
    )
    return (num + math.sqrt(disc)) / (6.0 * g * (12.0 * g + 5.0))


def _delta_c_minus(g: float) -> float:
    if g >= 1.0 / 6.0:
        return math.inf
    num = 1.0 + 2.0 * g * (6.0 * g - 11.0)
    disc = 4.0 * g * (2.0 * g + 1.0) * (3.0 * g * (6.0 * g + 7.0) + 1.0) + 1.0
    return (num - math.sqrt(disc)) / (8.0 * g * (6.0 * g - 1.0))


def xi_cell(g: float) -> float:
    """Auxiliary real cube root entering the first cell threshold."""
    inner = 12.0 * g * (
        27.0 * g * (8.0 * g * (g * (6.0 * g * (33.0 * g + 46.0) + 155.0) + 44.0) + 51.0)
        + 89.0
    ) + 25.0
    arg = 3.0 * math.sqrt(3.0 * inner) - 2.0 * (3.0 * g + 1.0) * (
        12.0 * g * (57.0 * g + 20.0) + 13.0
    )
    return g * float(np.cbrt(arg))


def _delta_c1(g: float) -> float:
    xi = xi_cell(g)
    return -(
        4.0 * g * (1.0 - 6.0 * g)
        + xi
        + g * g * (12.0 * g * (12.0 * g + 5.0) + 1.0) / xi
    ) / (36.0 * g * g)


def _delta_c2(g: float) -> float:
    disc = 4.0 * g * (3.0 * g * (4.0 * g * (27.0 * g + 35.0) + 65.0) + 37.0) + 9.0
    return (-3.0 + 36.0 * g * g + 2.0 * g + math.sqrt(disc)) / (16.0 * g * (3.0 * g + 1.0))


@lru_cache(maxsize=1)
def gamma_c_cell() -> float:
    """Reaction scaling where the first two cell thresholds cross.

    Located by bisection of ``delta_c1 - delta_c2`` on [0.1, 0.3].
    """
    lo, hi = 0.1, 0.3
    flo = _delta_c1(lo) - _delta_c2(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = _delta_c1(mid) - _delta_c2(mid)
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def thresholds(gamma: float) -> Thresholds:
    """Evaluate every regime threshold at reaction scaling ``gamma``."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive (or inf), got {gamma}")
    if math.isinf(gamma):
        return Thresholds(
            gamma=gamma,
            delta_tilde_plus=DELTA0_TILDE_PLUS,
            delta_tilde_minus=DELTA0_TILDE_MINUS,
            delta_c_crossover=DELTA_C_CROSSOVER,
            gamma_c_cell=gamma_c_cell(),
            gamma_c_point=gamma_c_point,
            delta_c_plus=math.inf,
            delta_c_minus=math.inf,
            delta_c1=DELTA0_TILDE_PLUS,
            delta_c2=DELTA0_TILDE_MINUS,
            delta_c3=math.inf,
            delta_c4=math.inf,
            xi=math.nan,
        )
    return Thresholds(
        gamma=gamma,
        delta_tilde_plus=DELTA0_TILDE_PLUS,
        delta_tilde_minus=DELTA0_TILDE_MINUS,
        delta_c_crossover=DELTA_C_CROSSOVER,
        gamma_c_cell=gamma_c_cell(),
        gamma_c_point=gamma_c_point,
        delta_c_plus=_delta_c_plus(gamma),
        delta_c_minus=_delta_c_minus(gamma),
        delta_c1=_delta_c1(gamma),
        delta_c2=_delta_c2(gamma),
        delta_c3=2.0 * gamma + 2.0,
        delta_c4=3.0 * (6.0 * gamma * gamma + 4.0 * gamma + 1.0),
        xi=xi_cell(gamma),
    )


def _rho_dense(delta0, gamma, kind, alpha, grid_points=1001):
    x = np.linspace(-1.0, 1.0, grid_points)
    return rho_on_ck_values(x, delta0, gamma, alpha, kind)


def alpha_opt_poisson(kind: str, delta0: float) -> RelaxationResult:
    """Closed-form optimal relaxation for the pure diffusion problem."""
    check_smoother(kind)
    if not delta0 >= 1.0:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    d = delta0
    used = [("delta_tilde_plus", DELTA0_TILDE_PLUS), ("delta_tilde_minus", DELTA0_TILDE_MINUS)]
    if kind == POINT:
        alpha = (2 * d - 1) ** 2 / (6 * d * d - 6 * d + 1)
        branch = "point"
    elif d <= DELTA0_TILDE_PLUS:
        alpha = d * (2 * d - 1) / (2 * d * d - 1)
        branch = "cell-low"
    elif d <= DELTA0_TILDE_MINUS:
        alpha = (
            2 * d * d * (2 * d - 1)
            / (d * abs(2 * d * d - 4 * d + 1) + 2 * d**3 + 4 * d * d - 5 * d + 1)
        )
        branch = "cell-mid"
    else:
        alpha = 2 * d * d / (2 * d * d + d - 1)
        branch = "cell-high"
    rho = _rho_dense(d, math.inf, kind, alpha)
    return RelaxationResult(float(alpha), rho, branch, used)


def _alpha_rd_point(delta0: float, gamma: float) -> tuple:
    d, g = delta0, gamma
    gc = gamma_c_point(d)
    used = [("gamma_c_point", gc)]
    if g <= gc:
        dc = _delta_c_minus(g)
        used.append(("delta_c_minus", dc))
        if d <= dc:
            alpha = (
                8 * (3 * g + 1) * (2 * d * g + 1) * (3 * (2 * d - 1) * g + 1)
                / ((12 * d * g + 5) * (12 * (2 * d - 1) * g * g + 8 * d * g + 1))
            )
            return alpha, "rd-point-quarter", used
        branch = "rd-point-half"
        low = True
    else:
        dc = _delta_c_plus(g)
        used.append(("delta_c_plus", dc))
        low = d <= dc
        branch = "rd-point-half" if low else "rd-point-mixed"
    if low:
        alpha = (
            8 * (3 * g + 1) * (3 * (2 * d - 1) * g + 1) ** 2
            / ((6 * g + 1) * (9 * g * (4 * (6 * (d - 1) * d + 1) * g + 8 * d - 5) + 5))
        )
    else:
        alpha = (
            4 * (3 * g + 1) * (2 * d * g + 1) * (3 * (2 * d - 1) * g + 1)
            / (g * (108 * d * (2 * d - 1) * g * g + 6 * (d * (6 * d + 19) - 8) * g + 19 * d + 9) + 2)
        )
    return alpha, branch, used


def _cell_formula(tag: str, d: float, g: float) -> float:
    if tag == "A":
        return (
            2 * (2 * d * g + 1) * (6 * d * g + 1) * (3 * (2 * d - 1) * g + 1)
            / (3 * g * (24 * d * (2 * d * d - 1) * g * g + 2 * (18 * d * d + d - 6) * g + 9 * d - 1) + 2)
        )
    if tag == "B":
        return (2 * d * g + 1) * (6 * d * g + 1) / (g * (6 * (4 * d - 1) * g + 5 * d + 6) + 1)
    if tag == "C":
        return (
            (3 * g + 1) * (2 * d * g + 1) * (6 * d * g + 1) * (3 * (2 * d - 1) * g + 1)
            / (
                3 * g * (
                    18 * d * (8 * (d - 1) * d + 1) * g**3
                    + 6 * (4 * d * (2 * d * (d + 1) - 3) + 1) * g * g
                    + (d * (31 * d - 6) - 8) * g
                    + 6 * d - 2
                )
                + 1
            )
        )
    if tag == "D":
        return (
            2 * (3 * g + 1) * (2 * d * g + 1) * (6 * d * g + 1)
            / ((3 * (d + 1) * g + 2) * (12 * (2 * d - 1) * g * g + 8 * d * g + 1))
        )
    # tag == "E"
    return (
        2 * (3 * g + 1) * (2 * d * g + 1) * (6 * d * g + 1)
        / (g * (36 * d * (2 * d + 1) * g * g + 6 * (d * (4 * d + 9) + 4) * g + 13 * d + 15) + 2)
    )


def _alpha_rd_cell(delta0: float, gamma: float) -> tuple:
    d, g = delta0, gamma
    gc = gamma_c_cell()
    th = thresholds(g)
    used = [
        ("gamma_c_cell", gc),
        ("delta_c1", th.delta_c1),
        ("delta_c2", th.delta_c2),
        ("delta_c3", th.delta_c3),
        ("delta_c4", th.delta_c4),
    ]
    # Branch windows in increasing delta0; the middle window swaps with
    # the regime ordering of delta_c1 and delta_c2 at gamma_c.
    if g >= gc:
        windows = [(th.delta_c1, "A"), (th.delta_c2, "B"), (th.delta_c3, "D"), (th.delta_c4, "E")]
    else:
        windows = [(th.delta_c2, "A"), (th.delta_c1, "C"), (th.delta_c3, "D"), (th.delta_c4, "E")]
    tag = "A"
    for bound, candidate in windows:
        if d <= bound:
            tag = candidate
            break
    else:
        tag = "A"
    return _cell_formula(tag, d, g), f"rd-cell-{tag}", used


def alpha_opt_rd(kind: str, delta0: float, gamma: float) -> RelaxationResult:
    """Closed-form optimal relaxation for finite reaction scaling.

    The cell value optimizes the spectrum sampled at the three extreme
    frequencies only, so it is a (very accurate) approximation rather
    than the exact minimizer.
    """
    check_smoother(kind)
    if not delta0 >= 1.0:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("alpha_opt_rd needs finite gamma > 0; use alpha_opt_poisson for inf")
    if kind == POINT:
        alpha, branch, used = _alpha_rd_point(delta0, gamma)
    else:
        alpha, branch, used = _alpha_rd_cell(delta0, gamma)
    rho = _rho_dense(delta0, gamma, kind, alpha)
    return RelaxationResult(float(alpha), rho, branch, used)


def alpha_opt(config: ProblemConfig, kind: str) -> RelaxationResult:
    """Closed-form optimal relaxation for the given problem."""
    if config.is_poisson:
        return alpha_opt_poisson(kind, config.delta0)
    return alpha_opt_rd(kind, config.delta0, config.gamma)


def _golden_section(f, lo, hi, xtol):
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def _grid_minima(alphas, values, rise=1e-9):
    """Indices of grid minima that are separated by rises above ``rise``."""
    order = np.argsort(values)
    minima = [int(order[0])]
    for idx in order[1:]:
        idx = int(idx)
        separated = True
        for m in minima:
            a, b = sorted((m, idx))
            barrier = values[a : b + 1].max()
            if barrier - max(values[m], values[idx]) <= rise:
                separated = False
                break
        if separated and values[idx] - values[minima[0]] <= 0.5:
            # only nearby-in-value wells matter; high plateaus are not minima
            lo_n = values[max(idx - 1, 0)]
            hi_n = values[min(idx + 1, len(values) - 1)]
            if values[idx] <= lo_n and values[idx] <= hi_n:
                minima.append(idx)
    return minima


def alpha_opt_numeric(
    config: ProblemConfig,
    kind: str,
    bracket: tuple = (0.01, 4.0),
    mode: str = "lfa",
    grid_points: int = 1001,
) -> RelaxationResult:
    """Minimize the two-grid spectral radius over the relaxation parameter.

    Scans ``alpha`` on a 1e-3 grid over ``bracket`` and refines the best
    well by golden-section search to ``|d alpha| < 1e-7``.  ``mode``
    selects the objective: ``"lfa"`` (closed-form spectral radius on a
    dense frequency grid, the default) or ``"dense"`` (spectral radius
    of the assembled iteration matrix, for Dirichlet validation).

    Raises
    ------
    NonUnimodalError
        If the grid scan finds several minima separated by rises above
        1e-9; all of them are reported.
    """
    check_smoother(kind)
    lo, hi = bracket
    if not (0.0 < lo < hi <= 4.0):
        raise ValueError(f"bracket must satisfy 0 < lo < hi <= 4, got {bracket}")
    if mode == "lfa":
        x = np.linspace(-1.0, 1.0, grid_points)
        gp, gm = eigenvalue_pair(x, config.delta0, config.gamma, 1.0, kind)
        gp = gp - 1.0
        gm = gm - 1.0

        def objective(a):
            return float(np.maximum(np.abs(1.0 + a * gp), np.abs(1.0 + a * gm)).max())

    elif mode == "dense":
        correct, smoothed = iteration_factors(two_level_components(config, kind, 1.0))
        n = smoothed.shape[0]

        def objective(a):
            return spectral_radius_dense(correct @ (np.eye(n) - a * smoothed))

    else:
        raise ValueError(f"mode must be 'lfa' or 'dense', got {mode!r}")

    alphas = np.arange(lo, hi + 5e-4, 1e-3)
    values = np.array([objective(a) for a in alphas])
    minima = _grid_minima(alphas, values)
    if len(minima) > 1:
        raise NonUnimodalError([(float(alphas[m]), float(values[m])) for m in sorted(minima)])
    best = minima[0]
    a_lo = alphas[max(best - 1, 0)]
    a_hi = alphas[min(best + 1, len(alphas) - 1)]
    alpha, rho = _golden_section(objective, a_lo, a_hi, 1e-7)
    return RelaxationResult(float(alpha), float(rho), f"numeric-{mode}", [])


def crossover_check(gamma: float = math.inf, width: float = 1e-3) -> tuple:
    """Bracket the penalty where cell and point smoothers perform equally.

    Scans ``delta0 in [1, 10]`` for a sign change of
    ``rho_cell(alpha_opt) - rho_point(alpha_opt)`` and bisects it down
    to the requested width.
    """

    def gap(d0):
        if math.isinf(gamma):
            rc = alpha_opt_poisson(CELL, d0).rho_predicted
            rp = alpha_opt_poisson(POINT, d0).rho_predicted
        else:
            rc = alpha_opt_rd(CELL, d0, gamma).rho_predicted
            rp = alpha_opt_rd(POINT, d0, gamma).rho_predicted
        return rc - rp

    # start just above 1: both smoothers stall exactly at delta0 = 1
    grid = np.arange(1.05, 10.0 + 1e-9, 0.05)
    values = [gap(d) for d in grid]
    for i in range(len(grid) - 1):
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            lo, hi = float(grid[i]), float(grid[i + 1])
            flo = values[i]
            while hi - lo > width:
                mid = 0.5 * (lo + hi)
                fmid = gap(mid)
                if (fmid < 0.0) == (flo < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            return lo, hi
    raise RuntimeError("no crossover: rho_cell - rho_point keeps its sign on [1, 10]")
