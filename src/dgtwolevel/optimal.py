"""Optimal relaxation parameters, regime thresholds and exact oracles.

The nonzero two-grid eigenvalues are affine in the relaxation parameter,
``lambda(alpha) = 1 - alpha * mu``, so ``rho(alpha) = max |1 - alpha mu|``
is least at ``alpha = 2 / (mu_min + mu_max)``, where the extreme
eigenvalues equioscillate.  The paper's closed-form optimum takes the
extremes over the four ``mu`` at the endpoint frequencies ``c_k = +-1``,
which are rational in ``delta0`` and ``1/gamma``
(``closed_forms._endpoint_mu``); each of its branch formulas is that
expression for the endpoint pair of one regime.  Plain arithmetic, so
one call takes a whole array of penalties, as ``sweep --alpha opt``
does for each ``gamma``.  The thresholds between the regimes, where two
endpoint ``mu`` tie, name the branch a result reports; they do not enter
``alpha``.  None of them cancels as ``gamma -> 0``: ``delta_c2`` and
``delta_c_minus`` take the root form that does not cancel, and
``delta_c1`` sums a series in ``gamma`` below 1e-3.  As an independent
check, :func:`alpha_opt_numeric` takes ``mu_min`` and ``mu_max`` over sampled
closed-form pairs, interior frequencies included.
"""

import errno
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .closed_forms import (
    ASYMPTOTIC_CK, _coordinates, _endpoint_mu, _endpoint_rho, _rho_of_extremes, eigenvalue_pair,
    rho_on_ck_values,
)
from .config import CELL, POINT, ProblemConfig, check_penalty, check_reaction, check_smoother
from .rd_coefficients import horner

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


# Below this gamma, _delta_c1 sums the Taylor series of its root in gamma:
# the closed form's numerator 4 + chi + 1/chi and its denominator 36 gamma
# both tend to 0, so its relative error grows from about 2e-12 at the
# cut-off to 0.26 at gamma = 1e-14.  The eight terms are exact to under
# 1e-16 relative at the cut-off and below.
_DELTA_C1_SERIES_BELOW = 1e-3

#: The root of the cubic 144 g^2 d^3 + (48 g - 288 g^2) d^2 + (144 g^2 -
#: 84 g + 5) d - 36 g^2 + 12 g - 9 that stays finite as gamma = g -> 0,
#: as a series in g (exact rationals, from sympy).
_DELTA_C1_SERIES = (
    9 / 5, -408 / 125, 99972 / 3125, -5305392 / 15625, 7321928256 / 1953125,
    -2041522361856 / 48828125, 560666697806592 / 1220703125,
    -147198933857092608 / 30517578125,
)


def _delta_c1(gamma: float) -> float:
    if gamma < _DELTA_C1_SERIES_BELOW:
        return horner(_DELTA_C1_SERIES, gamma)
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
    d = -(
        4.0 * (t - 6.0 * g) + chi + (12.0 * g * (12.0 * g + 5.0 * t) + t * t) / chi
    ) / (36.0 * g)
    # the closed form cancels to 2e-12 relative near the cut-off; a Newton
    # step on the cubic, homogeneous in (g, t), restores full precision
    c0, c1 = -36.0 * g * g + 12.0 * g * t - 9.0 * t * t, 144.0 * g * g - 84.0 * g * t + 5.0 * t * t
    c2, c3 = 48.0 * g * t - 288.0 * g * g, 144.0 * g * g
    return d - horner((c0, c1, c2, c3), d) / horner((c1, 2.0 * c2, 3.0 * c3), d)


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
    check_reaction(gamma)
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


def _alpha_formula(kind: str, delta0, gamma: float):
    """The closed-form optimal relaxation, ``2 / (mu_min + mu_max)`` over
    the four endpoint ``mu`` at ``c_k = +-1``.

    Every branch formula of the paper is this expression for the pair of
    endpoint ``mu`` its regime names.  It evaluates in the coordinates of
    ``closed_forms._coordinates``, so no ``gamma > 0`` overflows; a ``mu`` that
    overflows at a huge ``delta0`` raises ``OverflowError``.  An array of
    penalties gives the array of their optima in one call, each equal to
    its scalar call, and raises where any of them would.
    """
    check_smoother(kind)
    g, t = _coordinates(gamma)
    if isinstance(delta0, np.ndarray):
        # numpy warns where Python floats overflow to inf quietly; the
        # check below raises for both
        with np.errstate(over="ignore", invalid="ignore"):
            # plus_1 of the point smoother does not depend on delta0
            mu = np.broadcast_arrays(*_endpoint_mu(delta0.astype(float), t, kind, g))
            lo, hi = np.minimum.reduce(mu), np.maximum.reduce(mu)
            finite = np.isfinite(lo).all() and np.isfinite(hi).all()
            alpha = 2.0 / (lo + hi)
    else:
        mu = _endpoint_mu(delta0, t, kind, g)
        finite = all(map(math.isfinite, mu))
        if finite:
            alpha = float(2.0 / (min(mu) + max(mu)))
    if not finite:
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return alpha


def _closed_form(kind: str, delta0: float, gamma: float) -> RelaxationResult:
    """The closed-form ``alpha``, its radius on ``ASYMPTOTIC_CK`` and its regime."""
    alpha = _alpha_formula(kind, delta0, gamma)
    rho = rho_on_ck_values(ASYMPTOTIC_CK, delta0, gamma, alpha, kind)
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
    return RelaxationResult(alpha, _rho_of_extremes(mu_min, mu_max, alpha), "numeric-lfa", [])


def crossover_check(gamma: float = math.inf) -> tuple:
    """Locate the penalty where cell and point smoothers perform equally.

    Scans ``delta0 in [1.05, 10]`` upward in steps of 0.05 for the first
    sign change of ``rho_cell - rho_point``, the radii of the closed-form
    optimum (``alpha_opt``'s ``rho_predicted``, without its regime), and
    bisects it to an interval ``(lo, hi)`` no wider than 1e-3.
    Raises ``ValueError`` unless ``gamma > 0`` (``inf`` is pure
    diffusion) and ``RuntimeError`` if the sign never changes.

    Only the sign of the gap is read, and one exact radius settles it at
    most penalties.  The radius on ``c_k = +-1`` alone
    (``closed_forms._endpoint_rho``, microseconds) is never above the
    radius on ``ASYMPTOTIC_CK``, bit for bit.  So the smoother whose
    endpoint radius is smaller takes its exact radius first; if that is
    below the other smoother's endpoint radius, it is below that
    smoother's exact radius too, and the sign is known.  Otherwise the
    second exact radius is taken and the two subtract as before.  At
    ``gamma`` = inf, 1e4, 1 and 0.05 no penalty needs the second one.
    The brackets are those of taking both radii at every penalty: the
    closed forms raise nothing and give no ``nan`` at ``delta0`` in
    ``[1.05, 10]`` for any ``gamma > 0``, so a skipped radius hides no
    error, and a ``nan`` endpoint radius would only take both.

    The first sign change is not the only one.  For ``gamma`` from about
    0.1 to 1 the gap changes sign twice on ``[1.05, 10]``: the point
    smoother wins just above ``delta0 = 1``, the cell smoother in the
    middle, and the point smoother again from about 2.0 to 2.8 on.  So at
    ``gamma = 1`` this returns the low crossing near 1.078, and the one
    near 2.1 is not reported; at ``gamma = 0.05`` the low one lies below
    the scan's start at 1.05, and the high one near 2.77 is returned.
    """
    check_reaction(gamma)

    def rho(d0, alpha, kind):
        return rho_on_ck_values(ASYMPTOTIC_CK, d0, gamma, alpha, kind)

    def cell_wins(d0):
        # rho_cell - rho_point < 0, from one exact radius where the other's
        # endpoint radius, a lower bound of it, decides
        a_cell, a_point = _alpha_formula(CELL, d0, gamma), _alpha_formula(POINT, d0, gamma)
        e_cell = _endpoint_rho(d0, gamma, a_cell, CELL)
        e_point = _endpoint_rho(d0, gamma, a_point, POINT)
        if e_cell <= e_point:
            r_cell = rho(d0, a_cell, CELL)
            return r_cell < e_point or r_cell - rho(d0, a_point, POINT) < 0.0
        r_point = rho(d0, a_point, POINT)
        return not r_point < e_cell and rho(d0, a_cell, CELL) - r_point < 0.0

    # start just above 1: both smoothers stall exactly at delta0 = 1
    grid = np.arange(1.05, 10.0 + 1e-9, 0.05)
    wlo = cell_wins(grid[0])
    for lo, hi in zip(grid[:-1], grid[1:]):
        whi = cell_wins(hi)
        if wlo != whi:
            lo, hi = float(lo), float(hi)
            while hi - lo > _CROSSOVER_WIDTH:
                mid = 0.5 * (lo + hi)
                if cell_wins(mid) == wlo:
                    lo = mid
                else:
                    hi = mid
            return lo, hi
        wlo = whi
    raise RuntimeError("no crossover: rho_cell - rho_point keeps its sign on [1.05, 10]")
