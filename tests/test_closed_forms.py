import math
import warnings

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
from dgtwolevel import closed_forms, fourier
from dgtwolevel.closed_forms import (
    ASYMPTOTIC_CK,
    ClosedFormDomainError,
    _guarded_sqrt,
    mesh_ck,
    rho_on_ck_values,
)
from dgtwolevel.optimal import _alpha_formula
from dgtwolevel.rd_coefficients import _in_tau, cell_coefficients, point_coefficients


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
    for gamma in (0.5, 1.0):
        cfg = ProblemConfig(16, 2.0, gamma, PERIODIC)
        for kind in (POINT, CELL):
            pair = eigs_closed_form(0.3, cfg, kind, 0.0)
            assert pair.lambda_plus == 1.0 and pair.lambda_minus == 1.0
    hi, lo = eigenvalue_pair(mesh_ck(256), 2.0, 1.0, 0.0, CELL)
    assert hi.shape == lo.shape == (128,)
    assert np.all(hi == 1.0) and np.all(lo == 1.0)


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


def test_cell_f_complex_window():
    # the roots in c_k of the pure-diffusion cell radicand form a complex
    # pair strictly between the two branch breakpoints (1.41964... and
    # 3/2); the radicand stays positive and the eigenvalues real there
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
        assert rho_on_ck_values(ASYMPTOTIC_CK, delta0, math.inf, 0.0, CELL) == 1.0


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
    rhos = [rho_on_ck_values(ASYMPTOTIC_CK, cfg.delta0, cfg.gamma, a, CELL) for a in alphas]
    assert alphas[int(np.argmin(rhos))] == pytest.approx(0.9)


def power_sum_pair(x, delta0, gamma, alpha, kind):
    """Reference pair with every polynomial in ``s = 1 - c_k`` summed as
    ``sum c_i s**i``."""
    c = (point_coefficients if kind == POINT else cell_coefficients)(delta0, gamma)
    s = 1 - x
    k, den = (sum(ci * s**i for i, ci in enumerate(part)) for part in (c[:3], c[-3:]))
    e, *a = c[3:-3]
    rad = e * s ** len(a) + (1 + x) * sum(ci * s**i for i, ci in enumerate(a))
    root = np.sqrt(np.maximum(rad, 0.0))
    hi, lo = (1 - alpha * (1 - (k + sign * root) / den) for sign in (1, -1))
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


def broadcast_equals_scalar_loop(kind, gamma, x, delta0, alpha, stride):
    """Check that a column of (delta0, alpha) rows against one row of c_k,
    or one row each, gives exactly the pairs of one call per row and per
    point (every ``stride``-th), and the radius against the one row exactly
    that of one call per row."""
    rows = np.array([np.roll(x, 3 * i) for i in range(len(delta0))])
    for ck in (x, rows):
        hi, lo = eigenvalue_pair(ck, delta0, gamma, alpha, kind)
        assert hi.shape == lo.shape == rows.shape
        for i, (d, a) in enumerate(zip(delta0[:, 0].tolist(), alpha[:, 0].tolist())):
            xi = np.broadcast_to(ck, rows.shape)[i]
            row_hi, row_lo = eigenvalue_pair(xi, d, gamma, a, kind)
            assert np.array_equal(hi[i], row_hi) and np.array_equal(lo[i], row_lo)
            for j in range(0, xi.size, stride):
                point_hi, point_lo = eigenvalue_pair(float(xi[j]), d, gamma, a, kind)
                assert point_hi == hi[i, j] and point_lo == lo[i, j]
    rho = rho_on_ck_values(x, delta0, gamma, alpha, kind)
    assert rho.shape == (len(delta0),)
    for i, (d, a) in enumerate(zip(delta0[:, 0].tolist(), alpha[:, 0].tolist())):
        row_rho = rho_on_ck_values(x, d, gamma, a, kind)
        assert type(row_rho) is float and row_rho == rho[i]


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("gamma", [math.inf, 1e4, 1.0, 0.05])
def test_broadcast_equals_scalar_loop(kind, gamma):
    x = np.concatenate((mesh_ck(64), np.linspace(-1.0, 1.0, 101)))
    delta0 = np.array([[1.0], [1.05], [1.45], [1.5], [2.0], [3.7]])
    alpha = np.array([[0.6], [0.9], [1.0], [0.95], [1.1], [0.8]])
    broadcast_equals_scalar_loop(kind, gamma, x, delta0, alpha, stride=5)
    hi, lo = eigenvalue_pair(np.array([]), delta0, gamma, alpha, kind)
    assert hi.shape == lo.shape == (len(delta0), 0)


def test_broadcast_equals_scalar_loop_next_to_ck_one():
    # the points next to c_k = 1 where the cell radicand in powers of c_k
    # used to drown in rounding noise, every one of them checked
    x = ASYMPTOTIC_CK[-12:]
    assert x[-2] == 0.998
    delta0 = np.array([[1.7], [1.75], [2.0]])
    alpha = np.array([[0.6], [1.0], [1.2]])
    broadcast_equals_scalar_loop(CELL, 1e4, x, delta0, alpha, stride=1)


def largest_pair_modulus(x, delta0, gamma, alpha, kind):
    """The radius as the largest ``|lambda|`` of the pairs over the last
    axis: what :func:`rho_on_ck_values` must equal bit for bit."""
    hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
    rho = np.maximum(np.abs(hi), np.abs(lo)).max(axis=-1)
    return float(rho) if rho.ndim == 0 else rho


# every frequency set the library samples: the asymptotic grid, meshes
# with c_k = +-1 (J = 4 holds nothing else), only +1 (J = 6), and fine ones
CK_SETS = [ASYMPTOTIC_CK, mesh_ck(4), mesh_ck(6), mesh_ck(64), mesh_ck(1024)]


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("gamma", [math.inf, 1e4, 1.0, 0.05])
def test_rho_is_the_largest_pair_modulus_bit_for_bit(kind, gamma):
    # reducing mu to its extremes before alpha enters, and taking the
    # endpoint mu as scalars, changes no bit: for scalar inputs and for
    # columns of (delta0, alpha), relaxations above 1 included
    delta0 = np.array([[1.0], [1.05], [1.45], [1.5], [2.0], [3.7], [10.0]])
    alpha = np.array([[0.6], [0.9], [1.0], [1.1], [1.3], [0.8], [1.6]])
    for x in CK_SETS:
        rho = rho_on_ck_values(x, delta0, gamma, alpha, kind)
        assert rho.shape == (len(delta0),)
        assert np.array_equal(rho, largest_pair_modulus(x, delta0, gamma, alpha, kind))
        for d, a, row in zip(delta0[:, 0].tolist(), alpha[:, 0].tolist(), rho.tolist()):
            one = rho_on_ck_values(x, d, gamma, a, kind)
            assert type(one) is float
            assert one == row == largest_pair_modulus(x, d, gamma, a, kind)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from([POINT, CELL]),
    x=st.sampled_from(CK_SETS),
    delta0=st.floats(1.0, 50.0),
    gamma=st.one_of(st.just(math.inf), st.floats(1e-3, 1e8)),
    alpha=st.floats(0.0, 2.0),
)
def test_rho_equals_largest_pair_modulus_at_random_inputs(kind, x, delta0, gamma, alpha):
    assert rho_on_ck_values(x, delta0, gamma, alpha, kind) == largest_pair_modulus(
        x, delta0, gamma, alpha, kind
    )


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from([POINT, CELL]),
    cells=st.sampled_from([None, 4, 8, 12, 64, 100, 1024]),
    delta0=st.floats(1.0, 1e3),
    gamma=st.one_of(st.just(math.inf), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
    alpha=st.one_of(st.none(), st.floats(0.0, 3.0, exclude_min=True)),
)
def test_endpoint_rho_is_a_lower_bound_bit_for_bit(kind, cells, delta0, gamma, alpha):
    # a row holding c_k = +-1 has mu extremes that enclose the four endpoint
    # mu, and fl(1 - fl(alpha mu)) is monotone in mu; alpha None is the
    # closed-form optimum
    x = ASYMPTOTIC_CK if cells is None else mesh_ck(cells)
    assert x.min() == -1.0 and x.max() == 1.0
    if alpha is None:
        alpha = _alpha_formula(kind, delta0, gamma)
    bound = closed_forms._endpoint_rho(delta0, gamma, alpha, kind)
    assert type(bound) is float
    assert bound <= rho_on_ck_values(x, delta0, gamma, alpha, kind)


@pytest.mark.parametrize("delta0", [1.5, np.array([[1.5], [2.0]])], ids=["scalar", "column"])
def test_rho_takes_one_row_of_c_k(delta0):
    rows = np.array([mesh_ck(16), mesh_ck(16)])
    with pytest.raises(ValueError, match=r"need one row of at least one c_k, got shape \(2, 8\)"):
        rho_on_ck_values(rows, delta0, 1.0, 0.9, CELL)


def shifted_table(monkeypatch, table, index, amount):
    """Shift entry ``index`` (0-based) of a coefficient table by ``amount``
    where the closed forms read it."""
    original = getattr(closed_forms, table)

    def shifted(delta0, gamma):
        coeffs = list(original(delta0, gamma))
        coeffs[index] += amount
        return tuple(coeffs)

    monkeypatch.setattr(closed_forms, table, shifted)


@pytest.mark.parametrize("x", CK_SETS[:3], ids=["asymptotic", "J4", "J6"])
def test_rho_checks_the_radicand_at_c_k_one(monkeypatch, x):
    # a0 of the point radicand is 0 at delta0 = 1 and gamma = inf; pushed
    # below zero, the radicand 2 a0 at c_k = 1 is the only negative one.
    # That c_k takes the endpoint forms, yet its radicand is still checked
    shifted_table(monkeypatch, "point_coefficients", 4, -1e-3)
    with pytest.raises(ClosedFormDomainError) as pair:
        eigenvalue_pair(x, 1.0, math.inf, 0.9, POINT)
    with pytest.raises(ClosedFormDomainError) as rho:
        rho_on_ck_values(x, 1.0, math.inf, 0.9, POINT)
    assert str(rho.value) == str(pair.value)


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize(
    "delta0, gamma, error",
    [
        (0.1, math.inf, ClosedFormDomainError),
        (0.1, 1.0, ClosedFormDomainError),
        (1e300, 1.0, OverflowError),
        (1e100, 1e-300, OverflowError),
    ],
)
def test_rho_raises_where_the_pairs_raise(kind, delta0, gamma, error):
    for x in CK_SETS:
        try:
            largest_pair_modulus(x, delta0, gamma, 0.9, kind)
        except error as exc:
            with pytest.raises(error) as rho:
                rho_on_ck_values(x, delta0, gamma, 0.9, kind)
            assert str(rho.value) == str(exc)
        else:
            assert rho_on_ck_values(x, delta0, gamma, 0.9, kind) == largest_pair_modulus(
                x, delta0, gamma, 0.9, kind
            )


def test_closed_forms_bind_nothing_from_fourier():
    # one route for every gamma: no pair is re-evaluated from the 4x4 block
    for name, value in vars(closed_forms).items():
        assert value is not fourier, name
        assert getattr(value, "__module__", None) != fourier.__name__, name


OUTSIDE_THE_DOMAIN = [
    # (c_k, delta0, gamma, message)
    (0.5, 2.0, 0.0, "gamma must be positive (or inf), got 0.0"),
    (0.5, 2.0, -1.0, "gamma must be positive (or inf), got -1.0"),
    (0.5, 2.0, math.nan, "gamma must be positive (or inf), got nan"),
    (0.5, 0.5, 1.0, "delta0 must be finite and >= 1, got 0.5"),
    (0.5, math.inf, 1.0, "delta0 must be finite and >= 1, got inf"),
    (0.5, math.nan, 1.0, "delta0 must be finite and >= 1, got nan"),
    (0.5, np.array([[2.0], [0.9]]), 1.0, "delta0 must be finite and >= 1, got 0.9"),
    (3.0, 2.0, 1.0, "c_k must lie in [-1, 1], got 3.0"),
    (np.array([0.5, -1.5]), 2.0, 1.0, "c_k must lie in [-1, 1], got -1.5"),
    (math.nan, 2.0, 1.0, "c_k must lie in [-1, 1], got nan"),
    (0.5, 2.0, np.array([[1.0], [0.0]]), "gamma must be positive (or inf), got 0.0"),
    (0.5, 2.0, np.array([[math.inf], [-1.0]]), "gamma must be positive (or inf), got -1.0"),
    (0.5, 2.0, np.array([[1e-3], [math.nan]]), "gamma must be positive (or inf), got nan"),
]


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("ck, delta0, gamma, message", OUTSIDE_THE_DOMAIN)
def test_public_closed_forms_refuse_inputs_outside_their_domain(kind, ck, delta0, gamma, message):
    # eigenvalue_pair(0.5, 2, 0, 1, cell) used to give (0, 0), c_k = 3 a
    # pair, and symbols_at_ck clipped c_k = 3 to 1 and warned at gamma = 0
    calls = (
        lambda: eigenvalue_pair(ck, delta0, gamma, 1.0, kind),
        lambda: rho_on_ck_values(np.atleast_1d(ck), delta0, gamma, 1.0, kind),
        lambda: symbols_at_ck(delta0, gamma, kind, 1.0, ck),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ClosedFormDomainError) as exc:
                call()
            assert str(exc.value) == message
            assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "delta0, inv_gamma, message",
    [
        (0.5, 1.0, "delta0 must be finite and >= 1, got 0.5"),
        (2.0, -1.0, "inv_gamma must be finite and >= 0, got -1.0"),
        (2.0, math.inf, "inv_gamma must be finite and >= 0, got inf"),
        (2.0, np.array([0.0, math.nan]), "inv_gamma must be finite and >= 0, got nan"),
    ],
)
def test_symbols_at_angle_refuse_inputs_outside_their_domain(delta0, inv_gamma, message):
    with pytest.raises(ValueError) as exc:
        fourier.symbols_at_angle(0.3, delta0, inv_gamma, CELL, 1.0)
    assert str(exc.value) == message


def test_domain_edges_still_answer():
    # delta0 = 1, gamma = inf and c_k = +-1 are inside; 1/gamma = 0 too
    for kind in (POINT, CELL):
        hi, lo = eigenvalue_pair(np.array([-1.0, 0.0, 1.0]), 1.0, math.inf, 0.5, kind)
        assert np.isfinite(hi).all() and np.isfinite(lo).all()
        assert np.isfinite(symbols_at_ck(1.0, math.inf, kind, 0.5, -1.0).Ehat).all()
        assert np.isfinite(fourier.symbols_at_angle(0.0, 1.0, 0.0, kind, 0.5).Ehat).all()


#: gammas on both branches of the tables and at their edges
GAMMA_COLUMN = [5e-324, 1e-300, 1e-3, 0.05, 1 - 2**-52, 1.0, 1e4, 1e300, math.inf]


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize(
    "x",
    [np.linspace(-1.0, 1.0, 41), mesh_ck(6), np.linspace(-0.9, 0.9, 37), ASYMPTOTIC_CK],
    ids=["both-ends", "plus-one", "no-ends", "asymptotic"],
)
def test_gamma_column_equals_scalar_loop(kind, x):
    # each gamma of a column takes its own branch of the tables, and its
    # own endpoint forms where the row holds +-1: the same bits as its
    # scalar call, beside a column of penalties or a scalar one
    gamma = np.array(GAMMA_COLUMN)[:, None]
    penalties = [1.0, 1.05, 1.5, 2.0, 3.7, 10.0, 1.2, 7.0, 1.45]
    alpha = np.array([[0.6], [0.9], [1.0], [1.1], [1.3], [0.8], [1.6], [0.7], [1.2]])
    for delta0 in (np.array(penalties)[:, None], 2.0):
        hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
        rho = rho_on_ck_values(x, delta0, gamma, alpha, kind)
        assert hi.shape == lo.shape == (len(GAMMA_COLUMN), x.size)
        assert rho.shape == (len(GAMMA_COLUMN),)
        for i, g in enumerate(GAMMA_COLUMN):
            d = penalties[i] if isinstance(delta0, np.ndarray) else delta0
            a = float(alpha[i, 0])
            row_hi, row_lo = eigenvalue_pair(x, d, g, a, kind)
            assert np.array_equal(hi[i], row_hi) and np.array_equal(lo[i], row_lo)
            one = rho_on_ck_values(x, d, g, a, kind)
            assert type(one) is float and one == rho[i]


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_samples_as_flat_arrays_equal_scalar_loop(kind):
    # m samples of (c_k, delta0, gamma, alpha) as four (m,) arrays, the
    # form validate's appendix check takes, c_k = +-1 among them
    rng = np.random.default_rng(7)
    m = 40
    x = rng.uniform(-1.0, 1.0, m)
    x[:2] = 1.0, -1.0
    delta0 = rng.uniform(1.0, 10.0, m)
    gamma = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), m))
    gamma[2:4] = math.inf, 1.0
    alpha = rng.uniform(0.3, 2.0, m)
    hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
    for i in range(m):
        one_hi, one_lo = eigenvalue_pair(float(x[i]), float(delta0[i]), float(gamma[i]),
                                         float(alpha[i]), kind)
        assert one_hi == hi[i] and one_lo == lo[i]


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_gamma_column_overflows_where_an_element_does(kind):
    # an element whose tables overflow fails the whole call, as its own
    # scalar call does; both branches of the tables are in the column
    gamma = np.array([[1e-3], [1e4]])
    eigenvalue_pair(0.3, 2.0, 1e-3, 1.0, kind)
    with pytest.raises(OverflowError):
        eigenvalue_pair(0.3, 1e300, 1e4, 1.0, kind)
    for delta0 in (np.array([[2.0], [1e300]]), 1e300):
        for call in (eigenvalue_pair, rho_on_ck_values):
            with pytest.raises(OverflowError):
                call(np.array([0.3, 1.0]), delta0, gamma, 1.0, kind)


def test_gamma_column_drops_the_overflow_of_the_branch_it_does_not_take():
    # (c0, c1) = (1.7e308, 3e307): at gamma = 1/2 the polynomial in gamma
    # is 1.15e308 and the dropped one in tau 1.85e308, past the largest
    # float; at gamma = 4 the kept one in tau is 1.775e308
    rows = ((1.7e308, 3e307),)
    with np.errstate(over="raise", invalid="raise"):
        column = _in_tau(rows, 1, np.array([[0.5], [4.0]]))
        assert np.array_equal(column[0], [_in_tau(rows, 1, 0.5), _in_tau(rows, 1, 4.0)])


def test_coordinates_of_a_gamma_column_equal_scalar_calls():
    # the endpoint forms take (g, t) in extended precision, where a wrong
    # choice of coordinates can round to the same float64 bits
    gamma = np.array(GAMMA_COLUMN)
    for values in (gamma, gamma.astype(np.longdouble)):
        g, t = closed_forms._coordinates(values[:, None])
        for i, value in enumerate(values):
            assert (g[i, 0], t[i, 0]) == closed_forms._coordinates(value)


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_lists_and_tuples_are_the_arrays_they_spell(kind):
    # a sequence of penalties, gammas or relaxations is the float array it
    # spells, bit for bit; a mixed list with an int among floats included
    x = [0.1, 0.2, 1.0]
    column = [[1.5], [2.0]]
    gammas = ([1.0], (0.05,))
    alphas = [[0.9], [1]]
    arrays = [np.array(v, dtype=float) for v in (column, gammas, alphas)]
    hi, lo = eigenvalue_pair(x, column, gammas, alphas, kind)
    want_hi, want_lo = eigenvalue_pair(x, *arrays, kind)
    assert np.array_equal(hi, want_hi) and np.array_equal(lo, want_lo)
    rho = rho_on_ck_values(x, column, gammas, alphas, kind)
    assert np.array_equal(rho, rho_on_ck_values(x, *arrays, kind))
    hi, lo = eigenvalue_pair(0.3, 2.0, [1.0, 2.0], 1.0, kind)
    want_hi, want_lo = eigenvalue_pair(0.3, 2.0, np.array([1.0, 2.0]), 1.0, kind)
    assert np.array_equal(hi, want_hi) and np.array_equal(lo, want_lo)
    rho = rho_on_ck_values([0.1, 0.2], [1.5, 2.0], 1.0, 0.9, kind)
    assert rho == rho_on_ck_values([0.1, 0.2], np.array([1.5, 2.0]), 1.0, 0.9, kind)
    blocks = symbols_at_ck([2.0, 3.0], (1.0, 2.0), kind, [1.0, 0.9], [0.3, 0.5])
    want = symbols_at_ck(np.array([2.0, 3.0]), np.array([1.0, 2.0]), kind, np.array([1.0, 0.9]), [0.3, 0.5])
    for name in ("Ahat", "Dhat", "Ehat"):
        assert np.array_equal(getattr(blocks, name), getattr(want, name))
    # and a sequence outside the domain is refused as its array is
    with pytest.raises(ClosedFormDomainError, match="delta0"):
        eigenvalue_pair(0.3, [2.0, 0.5], 1.0, 1.0, kind)
    with pytest.raises(ClosedFormDomainError, match="gamma"):
        rho_on_ck_values([0.1], 2.0, (1.0, -1.0), 0.9, kind)
