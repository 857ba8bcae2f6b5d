"""Optimal relaxation parameters, regime thresholds and exact oracles.

The nonzero two-grid eigenvalues are affine in the relaxation parameter,
``lambda(alpha) = 1 - alpha * mu``, so centering the spectrum
(equioscillation of the extreme eigenvalues) has closed-form solutions.
This module evaluates them per regime branch, and, as an independent
check, computes the exact optimum ``alpha* = 2 / (mu_min + mu_max)``
from sampled closed-form pairs or from the assembled operators.
"""

import errno
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .closed_forms import ASYMPTOTIC_CK, eigenvalue_pair, rho_on_ck_values
from .config import CELL, PERIODIC, POINT, ProblemConfig, check_penalty, check_smoother
from .twolevel import assembled_mu, two_level_components

#: Penalty where the middle cell branch begins: real root of
#: 4 d^3 - 8 d^2 + 4 d - 1.
DELTA0_TILDE_PLUS = float(
    8.0 + np.cbrt(152.0 - 24.0 * math.sqrt(33.0)) + 2.0 * np.cbrt(19.0 + 3.0 * math.sqrt(33.0))
) / 12.0

#: Penalty where the last cell branch begins (and the overall optimum sits).
DELTA0_TILDE_MINUS = 1.5

#: Pure-diffusion penalty below which the cell smoother beats the point smoother.
DELTA_C_CROSSOVER = float(
    1.0
    + np.cbrt(54.0 - 6.0 * math.sqrt(33.0)) / 6.0
    + np.cbrt(0.25 + math.sqrt(33.0) / 36.0)
)

#: Relaxation from a smoothing-only analysis (reference data, not used here).
SMOOTHING_ONLY_ALPHA = {POINT: 4.0 / 5.0, CELL: 2.0 / 3.0}

# Width of the interval ``crossover_check`` returns.
_CROSSOVER_WIDTH = 1e-3

# A non-positive smallest mu within this much of 0, relative to the
# largest, is rounding: the closed forms give mu as 1 - (k +- root) / den
# with terms of the size of mu_max.
_MU_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class RelaxationResult:
    alpha_opt: float
    rho_predicted: float
    branch: str
    thresholds_used: list = field(default_factory=list)


@dataclass(frozen=True)
class Thresholds:
    """The penalty boundaries of the branch tables at one reaction scaling.

    ``delta_c_plus`` and ``delta_c_minus`` split the point branches,
    ``delta_c1 .. delta_c4`` the cell branches.  The boundaries that do
    not depend on ``gamma`` are module constants or functions:
    ``DELTA0_TILDE_PLUS``, ``DELTA0_TILDE_MINUS``, ``DELTA_C_CROSSOVER``,
    ``gamma_c_cell()`` and ``gamma_c_point(delta0)``.
    """

    gamma: float
    delta_c_plus: float
    delta_c_minus: float
    delta_c1: float
    delta_c2: float
    delta_c3: float
    delta_c4: float


def gamma_c_point(delta0: float) -> float:
    """Reaction scaling where the point-smoother peak frequency switches.

    ``1 / (3 (sqrt(4 (d - 1) d + 5) + 3 - 2 d))`` with the root moved to
    the numerator, so that no two large terms cancel: it rises from
    about 0.103 at ``delta0 = 1`` toward 1/6.
    """
    d = delta0
    return (math.sqrt(4.0 * (d - 1.0) * d + 5.0) + 2.0 * d - 3.0) / (12.0 * (2.0 * d - 1.0))


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


def _cell_thresholds(g: float) -> tuple:
    """``delta_c1 .. delta_c4`` at a finite reaction scaling ``g``."""
    return _delta_c1(g), _delta_c2(g), 2.0 * g + 2.0, 3.0 * (6.0 * g * g + 4.0 * g + 1.0)


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
    """Evaluate the ``gamma``-dependent regime thresholds.

    At ``gamma = inf`` the cell boundaries reduce to the pure-diffusion
    breakpoints ``DELTA0_TILDE_PLUS`` and ``DELTA0_TILDE_MINUS``, and the
    others to ``inf``.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive (or inf), got {gamma}")
    if math.isinf(gamma):
        return Thresholds(
            gamma, math.inf, math.inf, DELTA0_TILDE_PLUS, DELTA0_TILDE_MINUS, math.inf, math.inf
        )
    return Thresholds(gamma, _delta_c_plus(gamma), _delta_c_minus(gamma), *_cell_thresholds(gamma))


def _plain(used: list) -> list:
    """``(name, value)`` threshold pairs with plain float values."""
    return [(name, float(value)) for name, value in used]


def _check_finite(alpha: float) -> None:
    """Raise the ``OverflowError`` of Python's float power for a branch
    formula whose products overflowed to inf / inf without a word."""
    if not math.isfinite(alpha):
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))


def _alpha_poisson(kind: str, d: float) -> tuple:
    """Branch formula of :func:`alpha_opt_poisson`: ``(alpha, branch, used)``."""
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
    _check_finite(alpha)
    return alpha, branch, used


def alpha_opt_poisson(kind: str, delta0: float) -> RelaxationResult:
    """Closed-form optimal relaxation for the pure diffusion problem."""
    check_smoother(kind)
    check_penalty(delta0)
    alpha, branch, used = _alpha_poisson(kind, delta0)
    rho = rho_on_ck_values(ASYMPTOTIC_CK, delta0, math.inf, alpha, kind)
    return RelaxationResult(float(alpha), rho, branch, _plain(used))


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
    c1, c2, c3, c4 = _cell_thresholds(g)
    used = [
        ("gamma_c_cell", gc), ("delta_c1", c1), ("delta_c2", c2), ("delta_c3", c3), ("delta_c4", c4)
    ]
    # Branch intervals in increasing delta0; the middle one swaps with
    # the regime ordering of delta_c1 and delta_c2 at gamma_c.
    if g >= gc:
        intervals = [(c1, "A"), (c2, "B"), (c3, "D"), (c4, "E")]
    else:
        intervals = [(c2, "A"), (c1, "C"), (c3, "D"), (c4, "E")]
    tag = "A"
    for bound, candidate in intervals:
        if d <= bound:
            tag = candidate
            break
    return _cell_formula(tag, d, g), f"rd-cell-{tag}", used


def _alpha_rd(kind: str, delta0: float, gamma: float) -> tuple:
    """Branch formula of :func:`alpha_opt_rd`: ``(alpha, branch, used)``."""
    alpha, branch, used = (_alpha_rd_point if kind == POINT else _alpha_rd_cell)(delta0, gamma)
    _check_finite(alpha)
    return alpha, branch, used


def alpha_opt_rd(kind: str, delta0: float, gamma: float) -> RelaxationResult:
    """Closed-form optimal relaxation for finite reaction scaling.

    The cell value optimizes the spectrum sampled at the three extreme
    frequencies only, so it is a (very accurate) approximation rather
    than the exact minimizer.
    """
    check_smoother(kind)
    check_penalty(delta0)
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("alpha_opt_rd needs finite gamma > 0; use alpha_opt_poisson for inf")
    alpha, branch, used = _alpha_rd(kind, delta0, gamma)
    rho = rho_on_ck_values(ASYMPTOTIC_CK, delta0, gamma, alpha, kind)
    return RelaxationResult(float(alpha), rho, branch, _plain(used))


def alpha_opt(config: ProblemConfig, kind: str) -> RelaxationResult:
    """Closed-form optimal relaxation for the given problem."""
    if config.is_poisson:
        return alpha_opt_poisson(kind, config.delta0)
    return alpha_opt_rd(kind, config.delta0, config.gamma)


def _alpha_formula(config: ProblemConfig, kind: str) -> float:
    """``alpha_opt(config, kind).alpha_opt`` without evaluating its rho."""
    check_smoother(kind)
    if config.is_poisson:
        return float(_alpha_poisson(kind, config.delta0)[0])
    return float(_alpha_rd(kind, config.delta0, config.gamma)[0])


def alpha_opt_numeric(config: ProblemConfig, kind: str, mode: str = "lfa") -> RelaxationResult:
    """Exact minimizer of the two-grid spectral radius over ``alpha``.

    The spectrum is ``1 - alpha * mu``, so the optimum is
    ``alpha* = 2 / (mu_min + mu_max)`` with
    ``rho* = max |1 - alpha* mu|``.  ``mode`` selects where ``mu`` comes
    from, independently of the branch tables: ``"lfa"`` takes
    ``mu = 1 - lambda_{+-}`` from the closed-form pairs at ``alpha = 1``
    on :data:`~dgtwolevel.closed_forms.ASYMPTOTIC_CK` (the default);
    ``"dense"`` takes ``mu`` from the symmetric-definite pencil of the
    assembled operators (:func:`~dgtwolevel.twolevel.assembled_mu`):
    O(J) per coarse frequency on periodic meshes, dense up to J = 1024 on
    the others (Dirichlet), for validation.

    Raises
    ------
    ValueError
        On a bad ``mode``, if some ``mu <= 0`` (no relaxation converges,
        or, for a definite operator, the smallest ``mu`` is below float
        resolution: the cell smoother from ``delta0`` about 1e16 on), or
        in dense mode if the operator is singular (periodic pure
        diffusion) or a Dirichlet mesh has more than 1024 cells.
    """
    check_smoother(kind)
    if mode == "lfa":
        plus, minus = eigenvalue_pair(ASYMPTOTIC_CK, config.delta0, config.gamma, 1.0, kind)
        mu = 1.0 - np.concatenate((plus, minus))
    elif mode == "dense":
        if config.bc == PERIODIC and config.is_poisson:
            raise ValueError(
                "dense mode needs a nonsingular operator; periodic pure diffusion "
                "(gamma = inf) is singular on the constants"
            )
        mu = assembled_mu(two_level_components(config, kind, 1.0))
    else:
        raise ValueError(f"mode must be 'lfa' or 'dense', got {mode!r}")
    # rho(alpha) = max |1 - alpha * mu| is convex in alpha: for mu > 0 it is
    # least where the extreme eigenvalues equioscillate
    mu_min, mu_max = float(mu.min()), float(mu.max())
    if not mu_min > 0.0:
        # every mu is positive where the operator is definite: all but pure
        # diffusion at delta0 = 1
        definite = not (config.is_poisson and config.delta0 == 1.0)
        if definite and mu_min >= -_MU_ROUNDING * max(mu_max, 1.0):
            # the cell smoother's smallest mu sits at c_k = 1
            tau = config.inv_gamma
            hint = (
                f", about (12 + 1/gamma) / (6 delta0 + 1/gamma) = "
                f"{(12.0 + tau) / (6.0 * config.delta0 + tau):.3e},"
                if kind == CELL else ""
            )
            raise ValueError(
                f"the smallest mu of the smoothed two-grid spectrum{hint} is below float "
                f"resolution: it rounds to {mu_min:.3e} against mu_max = {mu_max:.3e}, "
                "so the optimum cannot be resolved at this penalty"
            )
        raise ValueError(
            f"the smoothed two-grid spectrum reaches mu = {mu_min:.3e} <= 0, "
            "so no relaxation parameter converges"
        )
    alpha = 2.0 / (mu_min + mu_max)
    rho = max(abs(1.0 - alpha * mu_min), abs(1.0 - alpha * mu_max))
    return RelaxationResult(alpha, rho, f"numeric-{mode}", [])


def crossover_check(gamma: float = math.inf) -> tuple:
    """Locate the penalty where cell and point smoothers perform equally.

    Scans ``delta0 in [1, 10]`` upward in steps of 0.05 for the first
    sign change of ``rho_cell(alpha_opt) - rho_point(alpha_opt)`` and
    bisects it to an interval ``(lo, hi)`` no wider than 1e-3.
    Raises ``RuntimeError`` if the sign never changes.
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
    flo = gap(grid[0])
    for lo, hi in zip(grid[:-1], grid[1:]):
        fhi = gap(hi)
        if (flo < 0.0) != (fhi < 0.0):
            lo, hi = float(lo), float(hi)
            while hi - lo > _CROSSOVER_WIDTH:
                mid = 0.5 * (lo + hi)
                fmid = gap(mid)
                if (fmid < 0.0) == (flo < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            return lo, hi
        flo = fhi
    raise RuntimeError("no crossover: rho_cell - rho_point keeps its sign on [1, 10]")
