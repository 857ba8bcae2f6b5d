import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgtwolevel import (
    CELL,
    DELTA0_TILDE_MINUS,
    DELTA0_TILDE_PLUS,
    DELTA_C_CROSSOVER,
    DIRICHLET,
    PERIODIC,
    POINT,
    ProblemConfig,
    alpha_opt,
    alpha_opt_numeric,
    alpha_opt_poisson,
    alpha_opt_rd,
    assembled_mu,
    build_iteration_matrix,
    crossover_check,
    gamma_c_cell,
    gamma_c_point,
    optimal,
    spectral_radius_dense,
    thresholds,
    two_level_components,
)
from dgtwolevel.closed_forms import ASYMPTOTIC_CK, _mu_extremes, eigenvalue_pair, rho_on_ck_values


def test_point_formula_values():
    assert alpha_opt_poisson(POINT, 1.0).alpha_opt == 1.0
    assert alpha_opt_poisson(POINT, 2.0).alpha_opt == pytest.approx(9 / 13, abs=1e-15)


def test_cell_branch_boundary_value():
    # at the last breakpoint both adjacent branches give 0.9
    res = alpha_opt_poisson(CELL, 1.5)
    assert res.alpha_opt == pytest.approx(0.9, abs=1e-12)
    d = 1.5
    assert 2 * d * d / (2 * d * d + d - 1) == pytest.approx(0.9, abs=1e-15)


def test_cell_branch_labels():
    assert alpha_opt_poisson(CELL, 1.2).branch == "cell-low"
    assert alpha_opt_poisson(CELL, 1.45).branch == "cell-mid"
    assert alpha_opt_poisson(CELL, 3.0).branch == "cell-high"
    assert alpha_opt_poisson(POINT, 3.0).branch == "point"


def test_poisson_rejects_low_delta0():
    with pytest.raises(ValueError):
        alpha_opt_poisson(POINT, 0.99)


@pytest.mark.parametrize("delta0", [math.inf, math.nan])
def test_poisson_rejects_non_finite_delta0(delta0):
    with pytest.raises(ValueError, match="delta0 must be finite and >= 1"):
        alpha_opt_poisson(CELL, delta0)


def test_threshold_constants():
    assert DELTA0_TILDE_PLUS == pytest.approx(1.41964, abs=1e-5)
    assert DELTA0_TILDE_MINUS == 1.5
    assert DELTA_C_CROSSOVER == pytest.approx(2.19149, abs=1e-5)
    assert gamma_c_cell() == pytest.approx(0.16607, abs=1e-4)
    assert 0.1 < gamma_c_cell() < 0.3


def test_thresholds_meet_at_gamma_c():
    th = thresholds(gamma_c_cell())
    assert th.delta_c1 == pytest.approx(th.delta_c2, abs=1e-4)


def test_threshold_orderings_flip_at_gamma_c():
    low = thresholds(0.5 * gamma_c_cell())
    high = thresholds(2.0 * gamma_c_cell())
    assert low.delta_c2 <= low.delta_c1 <= low.delta_c3 <= low.delta_c4
    assert high.delta_c1 <= high.delta_c2 <= high.delta_c3 <= high.delta_c4


def test_thresholds_at_infinity():
    th = thresholds(math.inf)
    assert th.delta_c1 == pytest.approx(DELTA0_TILDE_PLUS, abs=1e-12)
    assert th.delta_c2 == 1.5
    assert math.isinf(th.delta_c3) and math.isinf(th.delta_c4)
    assert math.isinf(th.delta_c_plus)


def test_thresholds_over_the_whole_gamma_range():
    # delta_c1 used to divide by an underflowed 36 gamma^2 below gamma about
    # 1e-162, and delta_c1, delta_c2 and delta_c_plus to overflow from 1e52
    for gamma in np.geomspace(1e-300, 1e300, 601):
        th = thresholds(gamma)
        values = [getattr(th, name) for name in ("delta_c_plus", "delta_c_minus", "delta_c1",
                                                 "delta_c2", "delta_c3", "delta_c4")]
        assert not any(map(math.isnan, values)), (gamma, th)


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("gamma", [1e52, 1e78, 1e300])
def test_branch_labels_keep_their_large_gamma_limit(kind, gamma):
    for delta0 in (1.2, 1.45, 3.0):
        res = alpha_opt_rd(kind, delta0, gamma)
        assert res.branch == alpha_opt_rd(kind, delta0, 1e16).branch
        assert res.alpha_opt == pytest.approx(alpha_opt_poisson(kind, delta0).alpha_opt, rel=1e-15)


def test_gamma_c_point_values():
    # bounded between ~0.103 (delta0 = 1) and 1/6 (large delta0)
    assert gamma_c_point(1.0) == pytest.approx(1.0 / (3.0 * (math.sqrt(5.0) + 1.0)), rel=1e-12)
    assert gamma_c_point(1.0) < gamma_c_point(10.0) < 1.0 / 6.0


@pytest.mark.parametrize("delta0", [1.0, 2.0, 1e8, 1e16])
def test_gamma_c_point_is_correctly_rounded(delta0):
    # against 1 / (3 (sqrt(4 (d - 1) d + 5) + 3 - 2 d)) at 60 digits; the
    # unrationalized float form was 1.7e-9 off at 1e8 and gave 1/12 at 1e16
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(delta0)
        exact = 1 / (3 * ((4 * (d - 1) * d + 5).sqrt() + 3 - 2 * d))
    assert abs(decimal.Decimal(gamma_c_point(delta0)) - exact) <= decimal.Decimal(2.0**-52) * exact


def exact_delta_c2_and_minus(gamma):
    """``delta_c2`` and ``delta_c_minus`` at ``gamma < 1`` in the paper's
    forms, at enough digits that their cancellation costs nothing."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        g = decimal.Decimal(gamma)
        disc = 4 * g * (3 * g * (4 * g * (27 * g + 35) + 65) + 37) + 9
        c2 = (-3 + 36 * g * g + 2 * g + disc.sqrt()) / (16 * g * (3 * g + 1))
        num = 1 + 2 * g * (6 * g - 11)
        disc = 4 * g * (2 * g + 1) * (3 * g * (6 * g + 7) + 1) + 1
        return c2, (num - disc.sqrt()) / (8 * g * (6 * g - 1))


@pytest.mark.parametrize("k", range(14, 301))
def test_small_gamma_thresholds_do_not_cancel(k):
    # both forms used to subtract two numbers near their limit: delta_c2
    # read 0.0 and delta_c_minus -0.0 from gamma about 1e-18 on
    gamma = 10.0**-k
    th = thresholds(gamma)
    for value, exact in zip((th.delta_c2, th.delta_c_minus), exact_delta_c2_and_minus(gamma)):
        assert abs(decimal.Decimal(value) - exact) <= decimal.Decimal(1e-13) * exact


def test_rd_point_large_gamma_limit():
    res = alpha_opt_rd(POINT, 2.0, 1e8)
    assert abs(res.alpha_opt - 9 / 13) < 1e-6
    for delta0 in (1.5, 2.0, 5.0):
        rd = alpha_opt_rd(POINT, delta0, 1e8).alpha_opt
        poisson = alpha_opt_poisson(POINT, delta0).alpha_opt
        assert abs(rd - poisson) < 1e-5


def test_rd_cell_large_gamma_limit_at_unit_penalty():
    res = alpha_opt_rd(CELL, 1.0, 1e8)
    assert res.alpha_opt == pytest.approx(1.0, abs=1e-6)
    assert alpha_opt_poisson(CELL, 1.0).alpha_opt == 1.0


def test_rd_point_overrelaxation_small_gamma():
    res = alpha_opt_rd(POINT, 2.0, 1 / 16)
    assert res.alpha_opt > 1.0
    numeric = alpha_opt_numeric(ProblemConfig(64, 2.0, 1 / 16), POINT)
    assert abs(res.alpha_opt - numeric.alpha_opt) < 1e-4


def test_rd_rejects_bad_arguments():
    with pytest.raises(ValueError):
        alpha_opt_rd(POINT, 2.0, math.inf)
    with pytest.raises(ValueError):
        alpha_opt_rd(CELL, 0.5, 1.0)


@pytest.mark.parametrize("kind", [CELL, POINT])
def test_rd_overflow_raises(kind):
    # the endpoint mu of the closed-form optimum overflow at this penalty
    with pytest.raises(OverflowError):
        alpha_opt_rd(kind, 1e300, 1.0)


ALPHA_PENALTIES = [1.0, 1.05, DELTA0_TILDE_PLUS, 1.45, 1.5, 2.0, 3.7, 10.0, 1e8, 1e50]


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("gamma", [math.inf, 1e300, 1e4, 1.0, 0.05, 1e-300])
def test_alpha_formula_array_equals_scalar_calls(kind, gamma):
    # sweep takes its alpha column in one call: every entry is the bits
    # of its own scalar call
    column = optimal._alpha_formula(kind, np.array(ALPHA_PENALTIES), gamma)
    assert column.shape == (len(ALPHA_PENALTIES),)
    assert column.tolist() == [optimal._alpha_formula(kind, d, gamma) for d in ALPHA_PENALTIES]
    assert optimal._alpha_formula(kind, np.array([]), gamma).shape == (0,)


@pytest.mark.parametrize("kind", [CELL, POINT])
@pytest.mark.parametrize("gamma", [math.inf, 1e4, 1.0])
def test_alpha_formula_array_overflow_raises_without_warning(kind, gamma):
    # numpy warns on the overflow that Python floats take quietly to inf;
    # the array call raises the scalar call's error and warns nothing
    with pytest.raises(OverflowError) as scalar:
        optimal._alpha_formula(kind, 1e300, gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as column:
            optimal._alpha_formula(kind, np.array([2.0, 1e300, 3.0]), gamma)
    assert column.value.args == scalar.value.args


@pytest.mark.parametrize("delta0", [math.inf, math.nan])
def test_rd_rejects_non_finite_delta0(delta0):
    with pytest.raises(ValueError, match="delta0 must be finite and >= 1"):
        alpha_opt_rd(POINT, delta0, 1.0)


def test_alpha_opt_dispatch():
    cfg = ProblemConfig(64, 2.0, math.inf, PERIODIC)
    assert alpha_opt(cfg, POINT).alpha_opt == alpha_opt_poisson(POINT, 2.0).alpha_opt
    cfg = ProblemConfig(64, 2.0, 0.5, PERIODIC)
    assert alpha_opt(cfg, CELL).alpha_opt == alpha_opt_rd(CELL, 2.0, 0.5).alpha_opt


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_poisson_formula_vs_numeric_oracle(kind):
    for delta0 in (1.2, 1.5, 2.0, 4.0, DELTA0_TILDE_PLUS, 10.0):
        formula = alpha_opt_poisson(kind, delta0).alpha_opt
        numeric = alpha_opt_numeric(ProblemConfig(64, delta0), kind).alpha_opt
        assert abs(formula - numeric) < 1e-6


def test_rd_point_formula_vs_numeric_on_moderate_lattice():
    for delta0 in (1.2, 2.0, 3.0):
        for gamma in (1 / 16, 1.0, 16.0):
            formula = alpha_opt_rd(POINT, delta0, gamma).alpha_opt
            numeric = alpha_opt_numeric(ProblemConfig(64, delta0, gamma), POINT).alpha_opt
            assert abs(formula - numeric) < 1e-4


def test_rd_cell_formula_vs_numeric():
    # sampled-frequency approximation: looser agreement
    for delta0 in (1.2, 2.0, 3.0):
        for gamma in (1 / 20, 1 / 2, 2.0):
            formula = alpha_opt_rd(CELL, delta0, gamma).alpha_opt
            numeric = alpha_opt_numeric(ProblemConfig(64, delta0, gamma), CELL).alpha_opt
            assert abs(formula - numeric) < 2e-3


def test_equioscillation_at_optimum():
    x = np.linspace(-1.0, 1.0, 1001)
    for kind in (POINT, CELL):
        for delta0 in (1.1, 1.3, DELTA0_TILDE_PLUS, 1.5, 2.0, 4.0, 10.0):
            alpha = alpha_opt_poisson(kind, delta0).alpha_opt
            hi, lo = eigenvalue_pair(x, delta0, math.inf, alpha, kind)
            assert abs(hi.max() + lo.min()) < 1e-8


def test_point_alpha_monotone_from_one_to_two_thirds():
    grid = np.linspace(1.0, 400.0, 200)
    values = [alpha_opt_poisson(POINT, d).alpha_opt for d in grid]
    assert values[0] == 1.0
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 2 / 3
    assert alpha_opt_poisson(POINT, 1e8).alpha_opt == pytest.approx(2 / 3, abs=1e-7)


def test_optimum_converges_on_parameter_lattice():
    for kind in (POINT, CELL):
        for delta0 in (1.01, 1.5, 2.0, 5.0, 50.0):
            for gamma in (1 / 16, 1 / 4, 1.0, 4.0, 16.0):
                res = alpha_opt_rd(kind, delta0, gamma)
                assert res.alpha_opt > 0.0
                assert 0.0 <= res.rho_predicted < 1.0


def test_branch_continuity_where_exact():
    for gamma in (0.05, 0.5, 2.0):
        th = thresholds(gamma)
        for edge in (th.delta_c1, th.delta_c2, th.delta_c3, th.delta_c4):
            if math.isfinite(edge) and edge >= 1.0 + 1e-6:
                left = alpha_opt_rd(CELL, edge * (1 - 1e-9), gamma).alpha_opt
                right = alpha_opt_rd(CELL, edge * (1 + 1e-9), gamma).alpha_opt
                assert abs(left - right) < 1e-6
    for delta0 in (1.2, 2.0, 4.0):
        gamma = 1.1 * gamma_c_point(delta0)
        edge = thresholds(gamma).delta_c_plus
        left = alpha_opt_rd(POINT, edge * (1 - 1e-9), gamma).alpha_opt
        right = alpha_opt_rd(POINT, edge * (1 + 1e-9), gamma).alpha_opt
        assert abs(left - right) < 1e-6


def test_crossover_bracket():
    lo, hi = crossover_check()
    assert hi - lo <= 1e-3
    assert 2.19 <= lo <= 2.19149 <= hi <= 2.20
    assert (
        alpha_opt_poisson(CELL, 2.0).rho_predicted
        < alpha_opt_poisson(POINT, 2.0).rho_predicted
    )
    assert (
        alpha_opt_poisson(POINT, 4.0).rho_predicted
        < alpha_opt_poisson(CELL, 4.0).rho_predicted
    )


def full_scan_crossover(gamma, width=1e-3):
    """Reference bracket: every scan penalty first, then the first sign change."""

    def gap(d0):
        if math.isinf(gamma):
            return alpha_opt_poisson(CELL, d0).rho_predicted - alpha_opt_poisson(POINT, d0).rho_predicted
        return alpha_opt_rd(CELL, d0, gamma).rho_predicted - alpha_opt_rd(POINT, d0, gamma).rho_predicted

    grid = np.arange(1.05, 10.0 + 1e-9, 0.05)
    values = [gap(d) for d in grid]
    for i in range(len(grid) - 1):
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            lo, hi, flo = float(grid[i]), float(grid[i + 1]), values[i]
            while hi - lo > width:
                mid = 0.5 * (lo + hi)
                fmid = gap(mid)
                if (fmid < 0.0) == (flo < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            return lo, hi
    raise RuntimeError("no crossover")


def crossover_outcome(search, gamma):
    """The bracket of ``search(gamma)``, or ``"none"`` where it finds no sign change."""
    try:
        return search(gamma)
    except RuntimeError:
        return "none"


@pytest.mark.parametrize(
    "gamma", [math.inf, 10.0, 1.0, 0.2, 0.05, *np.logspace(-3.0, 4.0, 25).tolist()]
)
def test_crossover_equals_full_scan(gamma):
    # both radii at every scan penalty, subtracted: the pruned scan of
    # crossover_check must give the same bracket, or find none where it
    # finds none (gamma below about 0.01)
    assert crossover_outcome(crossover_check, gamma) == crossover_outcome(full_scan_crossover, gamma)


@pytest.mark.parametrize("gamma, penalties", [(math.inf, 30), (1e4, 30), (1.0, 8), (0.05, 42)])
def test_crossover_takes_one_exact_radius_per_penalty(monkeypatch, gamma, penalties):
    # the endpoint radius bounds the exact one from below, so one exact
    # radius settles the sign at each penalty the scan and the bisection
    # visit; both radii at each would be 2 * penalties calls
    alphas, radii = [], []

    def counted(log, function):
        def call(*args):
            log.append(args)
            return function(*args)
        return call

    monkeypatch.setattr(optimal, "_alpha_formula", counted(alphas, optimal._alpha_formula))
    monkeypatch.setattr(optimal, "rho_on_ck_values", counted(radii, rho_on_ck_values))
    crossover_check(gamma)
    assert len(alphas) == 2 * penalties
    assert len(radii) == len({args[1] for args in radii}) == penalties


@pytest.mark.parametrize(
    "gamma, bracket",
    [
        (math.inf, (2.191406250000001, 2.192187500000001)),
        (1e4, (2.191406250000001, 2.192187500000001)),
        (1.0, (1.0781250000000002, 1.0789062500000002)),
        (0.05, (2.7734375000000018, 2.774218750000002)),
    ],
)
def test_crossover_reads_no_regime(monkeypatch, gamma, bracket):
    # the radii do not depend on the paper's regime labels, so the scan
    # never evaluates them
    def no_regime(*args):
        raise AssertionError("crossover_check evaluated a regime")

    monkeypatch.setattr(optimal, "_regime", no_regime)
    assert crossover_check(gamma) == bracket


def test_crossover_reports_the_first_of_two_sign_changes():
    # at gamma = 1 the point smoother wins just above delta0 = 1 and again
    # from about 2.1 on, the cell smoother in between; the scan brackets
    # the low crossing and never sees the high one
    def gap(d0):
        return alpha_opt_rd(CELL, d0, 1.0).rho_predicted - alpha_opt_rd(POINT, d0, 1.0).rho_predicted

    lo, hi = crossover_check(1.0)
    assert lo == pytest.approx(1.078125, abs=1e-12) and 1.0789 < hi < 1.0790
    assert gap(1.05) > 0.0 > gap(1.5) and gap(2.0) < 0.0 < gap(2.2)


def test_rho_matches_at_crossover():
    d = DELTA_C_CROSSOVER
    assert alpha_opt_poisson(CELL, d).rho_predicted == pytest.approx(
        alpha_opt_poisson(POINT, d).rho_predicted, abs=2e-3
    )


def assembled_optimum(config, kind):
    """``(alpha*, rho*)`` of the assembled operators: ``2 / (mu_min + mu_max)``
    over :func:`assembled_mu` at unit relaxation."""
    mu = assembled_mu(two_level_components(config, kind, 1.0))
    alpha = 2.0 / (mu[0] + mu[-1])
    return alpha, max(abs(1.0 - alpha * mu[0]), abs(1.0 - alpha * mu[-1]))


def test_numeric_dense_mode_close_to_formula():
    alpha, _ = assembled_optimum(ProblemConfig(64, 2.0, math.inf, DIRICHLET), POINT)
    assert abs(alpha - 9 / 13) < 5e-3


def scan_optimum(delta0, gamma, kind, grid_points=1001):
    """Brute-force reference: minimize the sampled two-grid radius over
    alpha on a 1e-3 grid of (0.01, 4), then twice on 1000x finer grids
    around the best point."""
    x = np.linspace(-1.0, 1.0, grid_points)
    g = np.concatenate(eigenvalue_pair(x, delta0, gamma, 1.0, kind)) - 1.0

    def radii(alphas):
        return np.array([np.abs(1.0 + a * g).max() for a in alphas])

    alphas = np.arange(0.01, 4.0 + 5e-4, 1e-3)
    for step in (1e-3, 1e-6):
        values = radii(alphas)
        best = alphas[int(np.argmin(values))]
        alphas = np.linspace(best - step, best + step, 2001)
    values = radii(alphas)
    best = int(np.argmin(values))
    return float(alphas[best]), float(values[best])


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("gamma", [math.inf, 1e4, 1.0, 1 / 16, 0.05])
def test_numeric_lfa_matches_brute_force_scan(kind, gamma):
    x = np.linspace(-1.0, 1.0, 1001)
    for delta0 in (1.45, 1.47, 1.5, 1.55, 1.6, 2.0, 4.0):
        res = alpha_opt_numeric(ProblemConfig(64, delta0, gamma), kind)
        alpha, rho = scan_optimum(delta0, gamma, kind)
        assert abs(res.alpha_opt - alpha) < 1e-6
        assert res.rho_predicted <= rho + 1e-12
        assert res.branch == "numeric-lfa"
        # the closed forms evaluated at alpha* itself give the same radius
        assert rho_on_ck_values(x, delta0, gamma, res.alpha_opt, kind) == pytest.approx(
            res.rho_predicted, abs=1e-8
        )


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([POINT, CELL]),
    delta0=st.floats(1.001, 50.0),
    gamma=st.one_of(st.just(math.inf), st.floats(1e-3, 1e8)),
)
def test_numeric_optimum_is_that_of_the_mu_extremes(kind, delta0, gamma):
    # alpha_opt_numeric reads mu back from the pairs at alpha = 1; the
    # extremes every radius is reduced from give its optimum to rounding
    res = alpha_opt_numeric(ProblemConfig(64, delta0, gamma), kind)
    mu_min, mu_max = _mu_extremes(ASYMPTOTIC_CK, delta0, gamma, kind)
    alpha = 2.0 / (mu_min + mu_max)
    eps = np.finfo(float).eps
    assert abs(res.alpha_opt - alpha) <= 4 * eps * alpha
    assert abs(res.rho_predicted - max(abs(1 - alpha * mu_min), abs(1 - alpha * mu_max))) <= 4 * eps


@pytest.mark.parametrize("cells", [64, 192])
@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("gamma", [math.inf, 1.0, 0.05])
def test_numeric_dense_is_the_assembled_optimum(cells, kind, gamma):
    cfg = ProblemConfig(cells, 2.0, gamma, DIRICHLET)
    alpha, rho_opt = assembled_optimum(cfg, kind)

    def rho(alpha):
        return spectral_radius_dense(build_iteration_matrix(two_level_components(cfg, kind, alpha)))

    at_opt = rho(alpha)
    assert rho_opt == pytest.approx(at_opt, abs=1e-9)
    assert rho(alpha - 1e-4) >= at_opt
    assert rho(alpha + 1e-4) >= at_opt


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_numeric_rejects_a_stalled_spectrum(kind):
    # delta0 = 1 pure diffusion: some mu is exactly zero, rho = 1 for every alpha
    with pytest.raises(ValueError, match="mu = 0.000e\\+00 <= 0"):
        alpha_opt_numeric(ProblemConfig(64, 1.0), kind)


def test_thresholds_used_are_plain_floats():
    th = thresholds(0.05)
    cases = [(kind, d, math.inf) for kind in (POINT, CELL) for d in (1.2, 1.45, 2.0)]
    cases += [
        (POINT, 1.0, 0.05), (POINT, 5.0, 0.05), (POINT, 1.2, 0.5), (POINT, 5.0, 0.5),
        (CELL, 1.0, 0.05), (CELL, 0.5 * (th.delta_c1 + th.delta_c2), 0.05), (CELL, 2.0, 0.05),
        (CELL, 3.0, 0.05), (CELL, 1.45, 4.0), (CELL, 50.0, 0.05),
    ]
    branches = set()
    for kind, delta0, gamma in cases:
        res = alpha_opt(ProblemConfig(64, delta0, gamma), kind)
        branches.add(res.branch)
        assert res.thresholds_used
        for name, value in res.thresholds_used:
            assert type(name) is str and type(value) is float, (res.branch, name, value)
        assert type(res.alpha_opt) is float and type(res.rho_predicted) is float
    assert branches == {
        "point", "cell-low", "cell-mid", "cell-high",
        "rd-point-quarter", "rd-point-half", "rd-point-mixed",
        "rd-cell-A", "rd-cell-B", "rd-cell-C", "rd-cell-D", "rd-cell-E",
    }


def test_best_penalty_is_three_halves():
    grid = np.arange(1.0, 4.0 + 1e-9, 1e-3)
    rhos = [alpha_opt_poisson(CELL, d).rho_predicted for d in grid]
    best = grid[int(np.argmin(rhos))]
    assert abs(best - 1.5) <= 2e-3


@pytest.mark.parametrize(
    "branch, delta0, gamma",
    [
        ("A", 1.0, 0.05), ("A", 50.0, 0.05), ("B", 1.45, 4.0), ("B", 1.5, 1.0),
        ("C", 1.66, 0.05), ("D", 2.0, 0.05), ("D", 1.55, 1.0), ("E", 3.0, 0.05),
    ],
)
def test_cell_thresholds_used_equal_the_record(branch, delta0, gamma):
    # the regime and the public record read the same threshold helpers
    res = alpha_opt_rd(CELL, delta0, gamma)
    assert res.branch == f"rd-cell-{branch}"
    th = thresholds(gamma)
    expected = {"gamma_c_cell": gamma_c_cell()}
    expected.update((name, getattr(th, name)) for name in ("delta_c1", "delta_c2", "delta_c3", "delta_c4"))
    assert dict(res.thresholds_used) == expected
