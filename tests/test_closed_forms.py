import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgtwolevel import (
    CELL,
    PERIODIC,
    POINT,
    ProblemConfig,
    build_iteration_matrix,
    eigenvalue_pair,
    eigs_closed_form,
    lfa_spectral_radius,
    symbols_at_ck,
    two_level_components,
)
from dgtwolevel import closed_forms
from dgtwolevel.closed_forms import (
    ASYMPTOTIC_CK,
    ClosedFormDomainError,
    _guarded_sqrt,
    mesh_ck,
    poisson_cell_f,
    poisson_point_f,
    rho_on_ck_values,
)
from dgtwolevel.rd_coefficients import cell_coefficients, point_coefficients


def block_reference(delta0, gamma, kind, alpha, ck):
    """Independent oracle: eigenvalues of the 4x4 frequency block."""
    ev = np.linalg.eigvals(symbols_at_ck(delta0, gamma, kind, alpha, ck).Ehat)
    assert np.abs(ev.imag).max() < 1e-9
    return np.sort(ev.real)


def test_point_curves_touch_at_quarter_frequency():
    # delta0 = 1: radicand degenerates to (c+1)(3-c), zero only at c = -1
    cfg = ProblemConfig(64, 1.0, math.inf, PERIODIC)
    pair = eigs_closed_form(-1.0, cfg, POINT, 1.0)
    assert pair.lambda_plus == pytest.approx(pair.lambda_minus, abs=1e-14)
    pair = eigs_closed_form(0.0, cfg, POINT, 1.0)
    assert pair.lambda_plus > pair.lambda_minus


def test_alpha_zero_gives_unit_pair():
    cfg = ProblemConfig(16, 2.0, math.inf, PERIODIC)
    for kind in (POINT, CELL):
        pair = eigs_closed_form(0.3, cfg, kind, 0.0)
        assert pair.lambda_plus == 1.0 and pair.lambda_minus == 1.0
    cfg = ProblemConfig(16, 2.0, 0.5, PERIODIC)
    for kind in (POINT, CELL):
        pair = eigs_closed_form(0.3, cfg, kind, 0.0)
        assert pair.lambda_plus == pytest.approx(1.0, abs=1e-13)
        assert pair.lambda_minus == pytest.approx(1.0, abs=1e-13)


def test_rd_point_example_against_block():
    cfg = ProblemConfig(16, 2.0, 1.0, PERIODIC)
    pair = eigs_closed_form(0.3, cfg, POINT, 1.0)
    ev = block_reference(2.0, 1.0, POINT, 1.0, 0.3)
    assert ev[-1] == pytest.approx(pair.lambda_plus, abs=1e-8)
    assert ev[0] == pytest.approx(pair.lambda_minus, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=10.0),
    st.floats(min_value=math.log(1 / 32), max_value=math.log(32)),
    st.floats(min_value=0.3, max_value=2.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([POINT, CELL]),
)
def test_closed_forms_match_blocks(delta0, log_gamma, alpha, ck, kind):
    gamma = math.exp(log_gamma)
    hi, lo = eigenvalue_pair(ck, delta0, gamma, alpha, kind)
    ref = block_reference(delta0, gamma, kind, alpha, ck)
    expected = np.sort([0.0, 0.0, float(hi), float(lo)])
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(ref - expected).max() < 1e-8 * scale


def test_poisson_forms_match_blocks():
    rng = np.random.default_rng(5)
    for _ in range(60):
        delta0 = rng.uniform(1.0, 10.0)
        alpha = rng.uniform(0.3, 2.0)
        ck = rng.uniform(-1.0, 1.0)
        for kind in (POINT, CELL):
            hi, lo = eigenvalue_pair(ck, delta0, math.inf, alpha, kind)
            ref = block_reference(delta0, math.inf, kind, alpha, ck)
            expected = np.sort([0.0, 0.0, float(hi), float(lo)])
            assert np.abs(ref - expected).max() < 1e-9 * max(1.0, np.abs(expected).max())


def test_radicand_roots_match_expanded_polynomial():
    # the f-root product form reproduces the expanded radicand away from
    # the removable delta0 = 1 and delta0^2 = 2 singularities
    for delta0 in (1.3, 2.0, 5.0):
        fm, fp = poisson_point_f(delta0)
        for c in (-0.7, 0.1, 0.9):
            expanded = (c + 1) * (
                (1 - delta0) * c**2
                + (4 * delta0**4 - 8 * delta0**3 + 8 * delta0**2 - 6 * delta0 + 1) * c
                + delta0 * (4 * delta0**3 - 8 * delta0**2 + 8 * delta0 - 1)
            )
            product = (c + 1) * (1 - delta0) * (c - fm) * (c - fp)
            assert expanded == pytest.approx(product, rel=1e-10)
    for delta0 in (1.2, 1.9, 4.0):
        fm, fp = poisson_cell_f(delta0)
        for c in (-0.7, 0.1, 0.9):
            expanded = (
                (delta0**2 - 2) * c**2
                - 2 * delta0 * (4 * delta0**2 - 7 * delta0 + 2) * c
                + (16 * delta0**4 - 56 * delta0**3 + 65 * delta0**2 - 28 * delta0 + 6)
            )
            product = (delta0**2 - 2) * (c - fm) * (c - fp)
            assert expanded == pytest.approx(product, rel=1e-10)


def test_cell_f_complex_window():
    # the radicand root pair goes complex strictly between the two branch
    # breakpoints; the expanded polynomial keeps the eigenvalues real there
    with pytest.raises(ValueError):
        poisson_cell_f(1.45)
    fm, fp = poisson_cell_f(1.6)  # real again past the upper breakpoint
    assert fm < fp
    hi, lo = eigenvalue_pair(np.linspace(-1, 1, 101), 1.45, math.inf, 0.9, CELL)
    assert np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))
    assert np.all(hi >= lo)


def test_gamma_degeneration_matches_poisson():
    x = np.linspace(-1.0, 1.0, 1001)
    for kind in (POINT, CELL):
        for delta0 in (1.2, 2.0, 5.0):
            hi_rd, lo_rd = eigenvalue_pair(x, delta0, 1e10, 1.0, kind)
            hi_p, lo_p = eigenvalue_pair(x, delta0, math.inf, 1.0, kind)
            assert np.abs(hi_rd - hi_p).max() < 1e-5
            assert np.abs(lo_rd - lo_p).max() < 1e-5


def test_guarded_sqrt_clamps_and_raises():
    assert _guarded_sqrt(-1e-13, 1.0) == 0.0
    with pytest.raises(ClosedFormDomainError):
        _guarded_sqrt(-1e-6, 1.0)


def test_ck_range_validated():
    cfg = ProblemConfig(16, 2.0, math.inf, PERIODIC)
    with pytest.raises(ValueError):
        eigs_closed_form(1.5, cfg, POINT, 1.0)


def test_spectral_radius_alpha_zero_is_one():
    for delta0 in (1.0, 2.0, 7.0):
        cfg = ProblemConfig(64, delta0, math.inf, PERIODIC)
        assert lfa_spectral_radius(cfg, CELL, 0.0) == 1.0
        assert lfa_spectral_radius(cfg, CELL, 0.0, dense=True) == 1.0


def test_formula_rho_matches_dense_eigensolver():
    # periodic pure diffusion: compare against the assembled iteration
    # matrix, discarding the untouched constant mode
    alpha = 8 / 9  # cell optimum at delta0 = 2
    cfg = ProblemConfig(64, 2.0, math.inf, PERIODIC)
    rho_formula = lfa_spectral_radius(cfg, CELL, alpha)
    E = build_iteration_matrix(two_level_components(cfg, CELL, alpha))
    mods = np.sort(np.abs(np.linalg.eigvals(E)))[::-1]
    assert mods[0] == pytest.approx(1.0, abs=1e-9)
    assert mods[1] == pytest.approx(rho_formula, abs=1e-9)


def test_grid_scan_puts_minimum_at_formula_alpha():
    # 0.9 minimizes the spectral radius among the sampled relaxations
    cfg = ProblemConfig(64, 1.5, math.inf, PERIODIC)
    alphas = np.round(np.arange(0.80, 1.0001, 0.05), 10)
    rhos = [lfa_spectral_radius(cfg, CELL, a, dense=True) for a in alphas]
    assert alphas[int(np.argmin(rhos))] == pytest.approx(0.9)


def power_sum_pair(x, delta0, gamma, alpha, kind):
    """Reference pair with the radicand summed as ``sum c_i x**i``."""
    if kind == POINT:
        c = point_coefficients(delta0, gamma, alpha)
        rad_coeffs, den = c[3:9], c[9] + c[10] * x + c[11] * x**2
    else:
        c = cell_coefficients(delta0, gamma, alpha)
        rad_coeffs, den = c[3:8], c[8] + c[9] * x + c[10] * x**2
    num = c[0] + c[1] * x + c[2] * x**2
    rad = sum(ci * x**i for i, ci in enumerate(rad_coeffs))
    root = np.sqrt(np.maximum(rad, 0.0))
    hi, lo = (num + root) / den, (num - root) / den
    return np.maximum(hi, lo), np.minimum(hi, lo)


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("gamma", [1.0, 1 / 16, 0.05])
def test_horner_radicand_matches_power_sum(kind, gamma):
    x = np.linspace(-1.0, 1.0, 1001)
    for delta0 in (1.2, 1.5, 2.0, 4.0):
        for alpha in (0.7, 1.0):
            hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
            ref_hi, ref_lo = power_sum_pair(x, delta0, gamma, alpha, kind)
            assert np.abs(hi - ref_hi).max() <= 1e-14
            assert np.abs(lo - ref_lo).max() <= 1e-14


def count_noise_band_routes(monkeypatch):
    """Record the arguments of every exact-endpoint and 4x4-block
    re-evaluation of noise-band points."""
    routes = {"endpoint": [], "block": []}
    for key, name in (("endpoint", "_endpoint_pair"), ("block", "_block_pair")):
        original = getattr(closed_forms, name)
        monkeypatch.setattr(
            closed_forms, name,
            lambda *args, key=key, f=original: routes[key].append(args) or f(*args),
        )
    return routes


def broadcast_equals_scalar_loop(kind, gamma, x, delta0, alpha, routes, stride):
    """Check that a column of (delta0, alpha) rows against one row of c_k,
    or one row each, gives exactly the pairs of one call per row and per
    point (every ``stride``-th).  Returns the noise-band route hits of
    each broadcast call."""
    hits = []
    rows = np.array([np.roll(x, 3 * i) for i in range(len(delta0))])
    for ck in (x, rows):
        for calls in routes.values():
            calls.clear()
        hi, lo = eigenvalue_pair(ck, delta0, gamma, alpha, kind)
        hits.append({key: len(calls) for key, calls in routes.items()})
        rho = rho_on_ck_values(ck, delta0, gamma, alpha, kind)
        assert hi.shape == lo.shape == rows.shape and rho.shape == (len(delta0),)
        for i, (d, a) in enumerate(zip(delta0[:, 0].tolist(), alpha[:, 0].tolist())):
            xi = np.broadcast_to(ck, rows.shape)[i]
            row_hi, row_lo = eigenvalue_pair(xi, d, gamma, a, kind)
            assert np.array_equal(hi[i], row_hi) and np.array_equal(lo[i], row_lo)
            for j in range(0, xi.size, stride):
                point_hi, point_lo = eigenvalue_pair(float(xi[j]), d, gamma, a, kind)
                assert point_hi == hi[i, j] and point_lo == lo[i, j]
            row_rho = rho_on_ck_values(xi, d, gamma, a, kind)
            assert type(row_rho) is float and row_rho == rho[i]
    return hits


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("gamma", [math.inf, 1e4, 1.0, 0.05])
def test_broadcast_equals_scalar_loop(kind, gamma, monkeypatch):
    routes = count_noise_band_routes(monkeypatch)
    x = np.concatenate((mesh_ck(64), np.linspace(-1.0, 1.0, 101)))
    delta0 = np.array([[1.0], [1.05], [1.45], [1.5], [2.0], [3.7]])
    alpha = np.array([[0.6], [0.9], [1.0], [0.95], [1.1], [0.8]])
    for hits in broadcast_equals_scalar_loop(kind, gamma, x, delta0, alpha, routes, stride=5):
        # at gamma = 1e4 the radicand drowns in rounding noise at c_k = +-1,
        # and those points take the exact endpoint pairs
        assert hits["endpoint"] or gamma != 1e4


def test_broadcast_equals_scalar_loop_through_block_fallback(monkeypatch):
    # near the cell radicand's double root at c_k = 0.998 the band points
    # inside the interval are still re-evaluated one by one from the
    # 4x4 block, each with its own (c_k, delta0, alpha)
    routes = count_noise_band_routes(monkeypatch)
    x = ASYMPTOTIC_CK[-12:]
    assert x[-2] == 0.998
    delta0 = np.array([[1.7], [1.75], [2.0]])
    alpha = np.array([[0.6], [1.0], [1.2]])
    for hits in broadcast_equals_scalar_loop(CELL, 1e4, x, delta0, alpha, routes, stride=1):
        assert hits["block"] and hits["endpoint"]
