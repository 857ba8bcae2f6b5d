"""Optimal relaxation parameters, regime thresholds and exact oracles.

The nonzero two-grid eigenvalues are affine in the relaxation parameter,
``lambda(alpha) = 1 - alpha * mu``, so ``rho(alpha) = max |1 - alpha mu|``
is least at ``alpha = 2 / (mu_min + mu_max)``, where the extreme
eigenvalues equioscillate.  The paper's closed-form optimum takes the
extremes over the four ``mu`` at the endpoint frequencies ``c_k = +-1``,
which are rational in ``delta0`` and ``1/gamma``
(``closed_forms._endpoint_mu``); each of its branch formulas is that
expression for the endpoint pair of one regime.  The thresholds between
the regimes, where two endpoint ``mu`` tie, name the branch a result
reports; they do not enter ``alpha``.  As an independent check,
:func:`alpha_opt_numeric` takes ``mu_min`` and ``mu_max`` over sampled
closed-form pairs, interior frequencies included.
"""

import errno
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .closed_forms import ASYMPTOTIC_CK, _endpoint_mu, eigenvalue_pair, rho_on_ck_values
from .config import CELL, POINT, ProblemConfig, check_penalty, check_smoother

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
    """An optimal relaxation with its predicted two-grid radius.

    For the closed forms, ``branch`` names the paper's regime of
    ``(delta0, gamma)`` (``"point"``, ``"cell-low"``, ``"rd-cell-A"``,
    ...) and ``thresholds_used`` the thresholds that placed it there;
    ``alpha_opt`` is the endpoint optimum in every regime.  For
    :func:`alpha_opt_numeric`, ``branch`` is ``"numeric-lfa"``.
    """

    alpha_opt: float
    rho_predicted: float
    branch: str
    thresholds_used: list = field(default_factory=list)


@dataclass(frozen=True)
class Thresholds:
    """The penalty boundaries of the paper's regimes at one reaction scaling.

    ``delta_c_plus`` and ``delta_c_minus`` split the point regimes,
    ``delta_c1 .. delta_c4`` the cell regimes.  Each is a penalty where
    two of the endpoint ``mu`` ``(plus_1, plus_2, minus_1, minus_2)`` tie:
    ``delta_c_plus`` plus_2 and minus_2 (point), ``delta_c_minus``
    plus_1 and minus_2 (point), ``delta_c1`` plus_2 and minus_1,
    ``delta_c2`` plus_1 and minus_2, ``delta_c3`` plus_1 and minus_1,
    ``delta_c4`` plus_2 and minus_2 (cell).  All but ``delta_c_minus``
    switch one extreme of the four, so the regimes on both sides give the
    same ``alpha`` there.  The boundaries that do not depend on ``gamma``
    are module constants or functions:
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


def _coordinates(gamma: float) -> tuple:
    """``(g, t)`` with ``t / g = 1/gamma``: ``(1, 1/gamma)`` for
    ``gamma >= 1`` and ``(gamma, 1)`` below, so that a form homogeneous in
    ``(g, t)`` forms no power of a number above 1 at any ``gamma > 0``.

    The thresholds that take it are written so; at ``t = 1`` they are the
    paper's forms in ``gamma``."""
    return (1.0, 1.0 / gamma) if gamma >= 1.0 else (gamma, 1.0)


def _delta_c_plus(gamma: float) -> float:
    g, t = _coordinates(gamma)
    num = -5.0 * t**3 + 9.0 * g * (6.0 * g * g + 8.0 * g * t + t * t)
    disc = (3.0 * g + t) * (
        3.0 * g * (12.0 * g * (3.0 * g * (3.0 * g * (3.0 * g + 7.0 * t) + 20.0 * t * t)
                               + 25.0 * t**3) + 53.0 * t**4)
        + 10.0 * t**5
    )
    return (num + math.sqrt(disc)) / (6.0 * g * t * (12.0 * g + 5.0 * t))


def _delta_c_minus(g: float) -> float:
    if g >= 1.0 / 6.0:
        return math.inf
    num = 1.0 + 2.0 * g * (6.0 * g - 11.0)
    disc = 4.0 * g * (2.0 * g + 1.0) * (3.0 * g * (6.0 * g + 7.0) + 1.0) + 1.0
    # the root's sign picks the form that does not cancel, as in the
    # stable quadratic formula: num^2 - disc = -16 g (6g - 1)(8g - 3)
    if num > 0.0:
        return 2.0 * (3.0 - 8.0 * g) / (num + math.sqrt(disc))
    return (num - math.sqrt(disc)) / (8.0 * g * (6.0 * g - 1.0))


def _delta_c1(gamma: float) -> float:
    g, t = _coordinates(gamma)
    inner = 12.0 * g * (
        27.0 * g * (8.0 * g * (g * (6.0 * g * (33.0 * g + 46.0 * t) + 155.0 * t * t)
                               + 44.0 * t**3) + 51.0 * t**4)
        + 89.0 * t**5
    ) + 25.0 * t**6
    arg = 3.0 * math.sqrt(3.0 * inner) - 2.0 * (3.0 * g + t) * (
        12.0 * g * (57.0 * g + 20.0 * t) + 13.0 * t * t
    )
    # the real cube root; the paper's auxiliary xi is g * chi at t = 1
    chi = float(np.cbrt(arg))
    return -(
        4.0 * (t - 6.0 * g) + chi + (12.0 * g * (12.0 * g + 5.0 * t) + t * t) / chi
    ) / (36.0 * g)


def _delta_c2(gamma: float) -> float:
    g, t = _coordinates(gamma)
    disc = 4.0 * g * (
        3.0 * g * (4.0 * g * (27.0 * g + 35.0 * t) + 65.0 * t * t) + 37.0 * t**3
    ) + 9.0 * t**4
    x = -3.0 * t * t + 36.0 * g * g + 2.0 * g * t
    # as in _delta_c_minus: disc - x^2 = 32 g t (3g + t)(16g + 5t)
    if x < 0.0:
        return 2.0 * t * (16.0 * g + 5.0 * t) / (math.sqrt(disc) - x)
    return (x + math.sqrt(disc)) / (16.0 * g * (3.0 * g + t))


def _cell_thresholds(g: float) -> tuple:
    """``delta_c1 .. delta_c4`` at a finite reaction scaling ``g``."""
    # a plain float: delta_c4 is inf from g about 1e154 on, without a word
    g = float(g)
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
    others to ``inf``.  Finite ``gamma`` of any size evaluate without
    overflow or nan: ``delta_c1``, ``delta_c2`` and ``delta_c_plus`` run
    in ``tau = 1/gamma`` from ``gamma = 1`` on.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive (or inf), got {gamma}")
    if math.isinf(gamma):
        return Thresholds(
            gamma, math.inf, math.inf, DELTA0_TILDE_PLUS, DELTA0_TILDE_MINUS, math.inf, math.inf
        )
    return Thresholds(gamma, _delta_c_plus(gamma), _delta_c_minus(gamma), *_cell_thresholds(gamma))


def _regime(kind: str, delta0: float, gamma: float) -> tuple:
    """The paper's regime of ``(delta0, gamma)``: ``(branch, thresholds_used)``.

    Each regime names the pair of endpoint ``mu`` whose equioscillation
    the paper prints as that branch's formula; ``alpha`` itself does not
    depend on it (:func:`_alpha_formula`).
    """
    d = delta0
    if math.isinf(gamma):
        used = [("delta_tilde_plus", DELTA0_TILDE_PLUS), ("delta_tilde_minus", DELTA0_TILDE_MINUS)]
        if kind == POINT:
            return "point", used
        if d <= DELTA0_TILDE_PLUS:
            return "cell-low", used
        return ("cell-mid" if d <= DELTA0_TILDE_MINUS else "cell-high"), used
    if kind == POINT:
        gc = gamma_c_point(d)
        if gamma <= gc:
            dc = _delta_c_minus(gamma)
            branch = "rd-point-quarter" if d <= dc else "rd-point-half"
            return branch, [("gamma_c_point", gc), ("delta_c_minus", dc)]
        dc = _delta_c_plus(gamma)
        branch = "rd-point-half" if d <= dc else "rd-point-mixed"
        return branch, [("gamma_c_point", gc), ("delta_c_plus", dc)]
    gc = gamma_c_cell()
    c1, c2, c3, c4 = _cell_thresholds(gamma)
    used = [
        ("gamma_c_cell", gc), ("delta_c1", c1), ("delta_c2", c2), ("delta_c3", c3), ("delta_c4", c4)
    ]
    # Branch intervals in increasing delta0; the middle one swaps with
    # the regime ordering of delta_c1 and delta_c2 at gamma_c.
    if gamma >= gc:
        intervals = [(c1, "A"), (c2, "B"), (c3, "D"), (c4, "E")]
    else:
        intervals = [(c2, "A"), (c1, "C"), (c3, "D"), (c4, "E")]
    tag = "A"
    for bound, candidate in intervals:
        if d <= bound:
            tag = candidate
            break
    return f"rd-cell-{tag}", used


def _alpha_formula(kind: str, delta0: float, gamma: float) -> float:
    """The closed-form optimal relaxation, ``2 / (mu_min + mu_max)`` over
    the four endpoint ``mu`` at ``c_k = +-1``.

    Every branch formula of the paper is this expression for the pair of
    endpoint ``mu`` its regime names.  It evaluates in the coordinates of
    :func:`_coordinates`, so no ``gamma > 0`` overflows; a ``mu`` that
    overflows at a huge ``delta0`` raises ``OverflowError``.
    """
    check_smoother(kind)
    g, t = _coordinates(gamma)
    mu = _endpoint_mu(delta0, t, kind, g)
    if not all(map(math.isfinite, mu)):
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return float(2.0 / (min(mu) + max(mu)))


def _alpha_rho(kind: str, delta0: float, gamma: float) -> tuple:
    """The closed-form ``alpha`` and its radius on ``ASYMPTOTIC_CK``."""
    alpha = _alpha_formula(kind, delta0, gamma)
    return alpha, rho_on_ck_values(ASYMPTOTIC_CK, delta0, gamma, alpha, kind)


def _closed_form(kind: str, delta0: float, gamma: float) -> RelaxationResult:
    alpha, rho = _alpha_rho(kind, delta0, gamma)
    branch, used = _regime(kind, delta0, gamma)
    return RelaxationResult(alpha, rho, branch, [(name, float(value)) for name, value in used])


def alpha_opt_poisson(kind: str, delta0: float) -> RelaxationResult:
    """Closed-form optimal relaxation for the pure diffusion problem."""
    check_smoother(kind)
    check_penalty(delta0)
    return _closed_form(kind, delta0, math.inf)


def alpha_opt_rd(kind: str, delta0: float, gamma: float) -> RelaxationResult:
    """Closed-form optimal relaxation for finite reaction scaling.

    ``alpha`` equioscillates the extreme eigenvalues at the endpoint
    frequencies ``c_k = +-1`` only, so where an interior frequency holds
    an extreme ``mu`` it is a (close) approximation rather than the exact
    minimizer of :func:`alpha_opt_numeric`.
    """
    check_smoother(kind)
    check_penalty(delta0)
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("alpha_opt_rd needs finite gamma > 0; use alpha_opt_poisson for inf")
    return _closed_form(kind, delta0, gamma)


def alpha_opt(config: ProblemConfig, kind: str) -> RelaxationResult:
    """Closed-form optimal relaxation for the given problem."""
    if config.is_poisson:
        return alpha_opt_poisson(kind, config.delta0)
    return alpha_opt_rd(kind, config.delta0, config.gamma)


def alpha_opt_numeric(config: ProblemConfig, kind: str) -> RelaxationResult:
    """Exact minimizer of the sampled two-grid spectral radius over ``alpha``.

    The spectrum is ``1 - alpha * mu``, so the optimum is
    ``alpha* = 2 / (mu_min + mu_max)`` with
    ``rho* = max |1 - alpha* mu|``, with ``mu = 1 - lambda_{+-}`` from the
    closed-form pairs at ``alpha = 1`` on
    :data:`~dgtwolevel.closed_forms.ASYMPTOTIC_CK`: interior frequencies
    included, unlike the closed-form optimum.  The same expression over
    :func:`~dgtwolevel.twolevel.assembled_mu` gives the optimum of the
    assembled operators.

    Raises
    ------
    ValueError
        If some ``mu <= 0``: no relaxation converges, or, for a definite
        operator, the smallest ``mu`` is below float resolution (the cell
        smoother from ``delta0`` about 1e16 on).
    """
    check_smoother(kind)
    plus, minus = eigenvalue_pair(ASYMPTOTIC_CK, config.delta0, config.gamma, 1.0, kind)
    mu = 1.0 - np.concatenate((plus, minus))
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
    return RelaxationResult(alpha, rho, "numeric-lfa", [])


def crossover_check(gamma: float = math.inf) -> tuple:
    """Locate the penalty where cell and point smoothers perform equally.

    Scans ``delta0 in [1, 10]`` upward in steps of 0.05 for the first
    sign change of ``rho_cell - rho_point``, the radii of the closed-form
    optimum (``alpha_opt``'s ``rho_predicted``, without its regime), and
    bisects it to an interval ``(lo, hi)`` no wider than 1e-3.
    Raises ``ValueError`` unless ``gamma > 0`` (``inf`` is pure
    diffusion) and ``RuntimeError`` if the sign never changes.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive (or inf), got {gamma}")

    def gap(d0):
        return _alpha_rho(CELL, d0, gamma)[1] - _alpha_rho(POINT, d0, gamma)[1]

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
