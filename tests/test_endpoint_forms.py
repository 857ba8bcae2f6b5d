"""The exact eigenvalue pairs at c_k = +-1 and the large-gamma limit."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dgtwolevel import CELL, POINT, eigenvalue_pair, gamma_c_point, thresholds
from dgtwolevel import closed_forms, fourier, optimal
from dgtwolevel.cli import main
from dgtwolevel.rd_coefficients import cell_coefficients, point_coefficients


#: Node phases ``t`` with an exact block, each with the order ``n`` of the
#: root of unity ``exp(i t)``; ``c_k = cos 2t`` is 1, -1, 1/2, 0 and -1/2.
PHASES = {0.0: 4, math.pi / 2: 4, math.pi / 6: 12, math.pi / 4: 8, math.pi / 3: 6}


def exact_matrix(values, field, n):
    """Exact copy of a float matrix over ``field = Q(exp(2 pi i / n))``.

    Real entries are taken exactly (the slabs and transfer rows are
    dyadic); complex ones must be 0 or an ``n``-th root of unity (the grid
    factors without their normalizing constants).
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    values = np.asarray(values)
    zeta = field.from_sympy(field.ext)
    roots = np.exp(2j * np.pi * np.arange(n) / n)

    def entry(v):
        if not np.iscomplexobj(values):
            return field.convert(sympy.Rational(v))
        if v == 0:
            return field.zero
        k = int(np.argmin(np.abs(roots - v)))
        assert abs(roots[k] - v) < 1e-12
        return zeta**k

    return DomainMatrix([[entry(v) for v in row] for row in values.tolist()], values.shape, field)


def exact_block(delta0, tau, kind, alpha, t):
    """Exact 4x4 two-grid block at a node phase ``t`` of :data:`PHASES`.

    Built like ``fourier.symbols_at_angle``, from its stencil slabs,
    transfer rows and grid factors, over the cyclotomic field that holds
    ``exp(i t)``.  The grid factors drop their normalizing constants:
    scaling ``A`` and ``D`` alike, and ``R`` and ``P`` by any factors,
    leaves the block unchanged.  Each slab is affine in ``(delta0,
    1/gamma)`` with entries in sixths of ``1/gamma``, so three float
    evaluations give it exactly.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    n = PHASES[t]
    field = sympy.QQ.cyclotomic_field(n)

    def exact(values):
        return exact_matrix(values, field, n)

    def slab(k):
        base = fourier._stencil_rows(0.0, 0.0, k)
        per_delta = fourier._stencil_rows(1.0, 0.0, k) - base
        per_six_tau = fourier._stencil_rows(0.0, 6.0, k) - base
        return (
            exact(base)
            + exact(per_delta) * field.convert(delta0)
            + exact(per_six_tau) * field.convert(tau / 6)
        )

    Ql, Qr, Ql0, Qr0 = fourier._grid_factors(t)
    Ql, Qr = exact(Ql / math.sqrt(0.5)), exact(Qr / math.sqrt(0.5))
    Ql0, Qr0 = exact(Ql0 / 0.5), exact(Qr0)
    A = Ql * slab(None) * Qr
    D = Ql * slab(kind) * Qr
    R = Ql0 * exact(fourier._RESTRICTION_ROWS) * Qr
    P = Ql * exact(fourier._PROLONGATION_ROWS) * Qr0
    identity = DomainMatrix.eye(4, field)
    correct = identity - P * (R * A * P).inv() * R * A
    return correct * (identity - D.inv() * A * field.convert(alpha))


def exact_charpoly(delta0, tau, kind, alpha, t):
    """Characteristic polynomial of :func:`exact_block`, highest power
    first; every coefficient must be rational."""
    block = exact_block(delta0, tau, kind, alpha, t)
    coeffs = [block.domain.to_sympy(c) for c in block.charpoly()]
    assert all(c.is_Rational for c in coeffs), coeffs
    return coeffs


def pair_charpoly(alpha, mu_sum, mu_product):
    """Coefficients of ``lam^2 (lam - lam_1) (lam - lam_2)`` with
    ``lam_i = 1 - alpha * mu_i``."""
    return [1, alpha * mu_sum - 2, 1 - alpha * mu_sum + alpha**2 * mu_product, 0, 0]


def rational_points():
    sympy = pytest.importorskip("sympy")
    return [
        (sympy.Rational(3, 2), sympy.Rational(0)),
        (sympy.Rational(1), sympy.Rational(1, 10**12)),
        (sympy.Rational(17, 10), sympy.Rational(1, 10**12)),
        (sympy.Rational(21, 20), sympy.Rational(7, 3)),
        (sympy.Rational(6), sympy.Rational(7, 3)),
        (sympy.Rational(3), sympy.Rational(100)),
    ]


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_endpoint_forms_are_exact_block_eigenvalues(kind):
    # the shipped mu, evaluated in exact rationals, give the characteristic
    # polynomial lam^2 (lam - lam_1) (lam - lam_2) of the exact block
    sympy = pytest.importorskip("sympy")
    alpha = sympy.Rational(9, 10)
    for delta0, tau in rational_points():
        plus_1, plus_2, minus_1, minus_2 = closed_forms._endpoint_mu(delta0, tau, kind)
        for t, (mu_1, mu_2) in ((0.0, (plus_1, plus_2)), (math.pi / 2, (minus_1, minus_2))):
            if tau == 0 and t == 0.0:
                # the constant is in the kernel there, and the coarse block
                # is singular; test_endpoint_forms_reduce_to_pure_diffusion
                # covers this pair
                continue
            lams = [1 - alpha * mu for mu in (mu_1, mu_2)]
            assert all(isinstance(v, sympy.Rational) and v != 0 for v in lams)
            expected = pair_charpoly(alpha, mu_1 + mu_2, mu_1 * mu_2)
            assert exact_charpoly(delta0, tau, kind, alpha, t) == expected, (kind, delta0, tau, t)


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_tables_give_exact_block_pairs_inside(kind):
    # the shipped coefficient tables, evaluated in exact rationals at
    # c_k = 1/2, 0, -1/2 (s = 1 - c_k), give mu_+ + mu_- = 2 m / den and
    # mu_+ mu_- = (m^2 - r) / den^2 of the exact block, with m = den - k
    # and r = e s^n + (1 + c_k) sum a_i s^i; tau = 0 is pure diffusion
    sympy = pytest.importorskip("sympy")
    table = point_coefficients if kind == POINT else cell_coefficients
    alpha = sympy.Rational(9, 10)
    phases = ((math.pi / 6, sympy.Rational(1, 2)), (math.pi / 4, 0), (math.pi / 3, -sympy.Rational(1, 2)))
    for delta0, tau in rational_points():
        coeffs = table(delta0, sympy.oo if tau == 0 else 1 / tau)
        e, *a = coeffs[3:-3]
        for t, ck in phases:
            s = 1 - ck
            k, a_s, den = (
                sum(c * s**i for i, c in enumerate(part)) for part in (coeffs[:3], a, coeffs[-3:])
            )
            r = e * s ** len(a) + (1 + ck) * a_s
            m = den - k
            expected = pair_charpoly(alpha, 2 * m / den, (m * m - r) / den**2)
            assert exact_charpoly(delta0, tau, kind, alpha, t) == expected, (kind, delta0, tau, ck)


def test_endpoint_forms_reduce_to_pure_diffusion():
    for delta0 in (1.0, 1.5, 2.0, 4.0):
        d = Fraction(delta0)
        cell = closed_forms._endpoint_mu(d, Fraction(0), CELL)
        point = closed_forms._endpoint_mu(d, Fraction(0), POINT)
        assert cell == (2 / d, 4 * (d - 1) / (2 * d - 1), (2 * d - 1) / d**2, (2 * d - 1) / d)
        assert point == (2, 4 * d * (d - 1) / (2 * d - 1) ** 2, 1, 1)


#: The paper's optimal relaxations as printed, in ``d = delta0`` and
#: ``g = gamma``, each with its smoother and the indices of the endpoint
#: pair in the order ``(plus_1, plus_2, minus_1, minus_2)`` of
#: ``closed_forms._endpoint_mu``; ``abs`` of a sympy expression is
#: ``sympy.Abs``.
PRINTED = {
    "point": (POINT, (0, 1), lambda d, g: (2 * d - 1) ** 2 / (6 * d * d - 6 * d + 1)),
    "cell-low": (CELL, (0, 1), lambda d, g: d * (2 * d - 1) / (2 * d * d - 1)),
    "cell-mid": (CELL, (0, 2), lambda d, g: (
        2 * d * d * (2 * d - 1)
        / (d * abs(2 * d * d - 4 * d + 1) + 2 * d**3 + 4 * d * d - 5 * d + 1)
    )),
    "cell-high": (CELL, (2, 3), lambda d, g: 2 * d * d / (2 * d * d + d - 1)),
    "rd-point-quarter": (POINT, (2, 3), lambda d, g: (
        8 * (3 * g + 1) * (2 * d * g + 1) * (3 * (2 * d - 1) * g + 1)
        / ((12 * d * g + 5) * (12 * (2 * d - 1) * g * g + 8 * d * g + 1))
    )),
    "rd-point-half": (POINT, (0, 1), lambda d, g: (
        8 * (3 * g + 1) * (3 * (2 * d - 1) * g + 1) ** 2
        / ((6 * g + 1) * (9 * g * (4 * (6 * (d - 1) * d + 1) * g + 8 * d - 5) + 5))
    )),
    "rd-point-mixed": (POINT, (0, 3), lambda d, g: (
        4 * (3 * g + 1) * (2 * d * g + 1) * (3 * (2 * d - 1) * g + 1)
        / (g * (108 * d * (2 * d - 1) * g * g + 6 * (d * (6 * d + 19) - 8) * g + 19 * d + 9) + 2)
    )),
    "rd-cell-A": (CELL, (0, 1), lambda d, g: (
        2 * (2 * d * g + 1) * (6 * d * g + 1) * (3 * (2 * d - 1) * g + 1)
        / (3 * g * (24 * d * (2 * d * d - 1) * g * g + 2 * (18 * d * d + d - 6) * g + 9 * d - 1) + 2)
    )),
    "rd-cell-B": (CELL, (0, 2), lambda d, g: (
        (2 * d * g + 1) * (6 * d * g + 1) / (g * (6 * (4 * d - 1) * g + 5 * d + 6) + 1)
    )),
    "rd-cell-C": (CELL, (1, 3), lambda d, g: (
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
    )),
    "rd-cell-D": (CELL, (2, 3), lambda d, g: (
        2 * (3 * g + 1) * (2 * d * g + 1) * (6 * d * g + 1)
        / ((3 * (d + 1) * g + 2) * (12 * (2 * d - 1) * g * g + 8 * d * g + 1))
    )),
    "rd-cell-E": (CELL, (0, 3), lambda d, g: (
        2 * (3 * g + 1) * (2 * d * g + 1) * (6 * d * g + 1)
        / (g * (36 * d * (2 * d + 1) * g * g + 6 * (d * (4 * d + 9) + 4) * g + 13 * d + 15) + 2)
    )),
}


@pytest.mark.parametrize("branch", sorted(PRINTED))
def test_printed_formulas_equioscillate_their_endpoint_pair(branch):
    # each printed alpha is 2 / (mu_i + mu_j) of its endpoint pair, as a
    # rational identity in (delta0, gamma); pure diffusion is tau = 0
    sympy = pytest.importorskip("sympy")
    d, g = sympy.symbols("delta0 gamma", positive=True)
    kind, (i, j), formula = PRINTED[branch]
    if branch.startswith("rd-"):
        mu = closed_forms._endpoint_mu(d, 1, kind, g)
    else:
        mu = closed_forms._endpoint_mu(d, 0, kind)
    printed = formula(d, g)
    if branch == "cell-mid":
        # 2 d^2 - 4 d + 1 < 0 between its roots 1 -+ 1/sqrt(2), which hold
        # the branch's interval [DELTA0_TILDE_PLUS, DELTA0_TILDE_MINUS]
        assert 1 - 0.5**0.5 < optimal.DELTA0_TILDE_PLUS < optimal.DELTA0_TILDE_MINUS < 1 + 0.5**0.5
        printed = printed.replace(sympy.Abs, lambda x: -x)
    assert sympy.cancel(printed - 2 / (mu[i] + mu[j])) == 0


@pytest.mark.parametrize("delta0, gamma, branch", [
    # below gamma_c_point, between delta0 = 3(6 gamma^2 + 4 gamma + 1) and delta_c_minus
    (4.0, 0.05, "rd-point-quarter"),
    # just above gamma_c_point, from delta0 about 5.22 on
    (7.4111, 0.15849, "rd-point-mixed"),
])
def test_point_regions_where_the_branch_pair_misses_an_extreme(delta0, gamma, branch):
    # in both, plus_2 and minus_2 hold the extremes of the four endpoint
    # mu, not the pair the branch names; alpha is their optimum all the same
    mu = closed_forms._endpoint_pairs(delta0, gamma, POINT)
    assert optimal._regime(POINT, delta0, gamma)[0] == branch
    assert (mu.index(min(mu)), mu.index(max(mu))) == (3, 1)
    assert set(PRINTED[branch][1]) != {1, 3}
    assert optimal._alpha_formula(POINT, delta0, gamma) == 2 / (mu[1] + mu[3])


@pytest.mark.parametrize("name, edge, pair", [
    ("delta_c3", lambda g: 2 * g + 2, (0, 2)),
    ("delta_c4", lambda g: 3 * (6 * g * g + 4 * g + 1), (1, 3)),
])
def test_rational_cell_thresholds_are_exact_ties(name, edge, pair):
    sympy = pytest.importorskip("sympy")
    g = sympy.symbols("gamma", positive=True)
    mu = closed_forms._endpoint_mu(edge(g), 1, CELL, g)
    assert sympy.cancel(mu[pair[0]] - mu[pair[1]]) == 0
    for gamma in (0.05, 0.5, 3.0):
        assert getattr(thresholds(gamma), name) == edge(gamma)


def endpoint_mu_exact(kind, delta0, gamma):
    """The four endpoint ``mu`` in exact rationals at float inputs."""
    g, t = closed_forms._coordinates(gamma)
    return closed_forms._endpoint_mu(Fraction(delta0), Fraction(t), kind, Fraction(g))


@pytest.mark.parametrize(
    "gamma", [*np.geomspace(1e-300, 1e-3, 30, endpoint=False), *np.geomspace(1e-3, 1e300, 31)]
)
def test_thresholds_are_endpoint_ties(gamma):
    # every threshold sits where two endpoint mu tie, to rounding, at
    # every gamma that names it
    th = thresholds(gamma)
    ties = [
        (CELL, th.delta_c1, (1, 2)), (CELL, th.delta_c2, (0, 3)),
        (CELL, th.delta_c3, (0, 2)), (CELL, th.delta_c4, (1, 3)),
        (POINT, th.delta_c_plus, (1, 3)), (POINT, th.delta_c_minus, (0, 3)),
    ]
    for kind, edge, (i, j) in ties:
        if not 1.0 <= edge < math.inf:
            continue
        mu = endpoint_mu_exact(kind, edge, gamma)
        assert abs(mu[i] - mu[j]) <= 1e-12 * max(mu), (kind, edge, i, j)


@pytest.mark.parametrize(
    "gamma", [5e-324, *np.geomspace(1e-300, 1e300, 61), *np.geomspace(1e-4, 1e2, 40)]
)
def test_delta_c1_is_the_cubic_root_to_rounding(gamma):
    # Cardano's form was 2.1e-12 off at gamma = 1e-3, 3.7e-13 at 5e-3 and
    # 7.6e-14 at 1e-2, and 26% at 1e-14; Newton's method on the cubic
    # holds every gamma, subnormal and huge ones included
    mpmath = pytest.importorskip("mpmath")
    edge = optimal._delta_c1(gamma)
    with mpmath.workdps(60):
        # the cubic over max(gamma, 1)^2, so that its values stay O(1)
        g, t = (1, 1 / mpmath.mpf(gamma)) if gamma >= 1.0 else (mpmath.mpf(gamma), 1)
        cubic = (144 * g**2, 48 * g * t - 288 * g**2, 144 * g**2 - 84 * g * t + 5 * t**2,
                 -36 * g**2 + 12 * g * t - 9 * t**2)
        root = mpmath.findroot(lambda d: mpmath.polyval(cubic, d), mpmath.mpf(edge))
        assert abs(edge - root) <= 4 * np.finfo(float).eps * root


@pytest.mark.parametrize("gamma", [1e-14, 1e-17, 1e-300])
def test_small_gamma_cell_regime_between_delta_c2_and_delta_c1(gamma):
    # delta_c2 -> 5/3 and delta_c1 -> 9/5 as gamma -> 0; the cubic's
    # closed form for delta_c1 read 2.27, -465 and 1.2e285 here, and
    # named 1.7 a rd-cell-D penalty at 1e-17
    th = thresholds(gamma)
    assert th.delta_c2 < 1.7 < th.delta_c1 <= 1.8
    assert optimal._regime(CELL, 1.7, gamma)[0] == "rd-cell-C"


@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.1])
def test_delta_c_minus_is_no_regime_tie(gamma):
    # the one threshold where the paper's two regimes do not meet: it ties
    # mu 0 and 3, but the quarter pair (2, 3) and the half pair (0, 1)
    # give alphas O(1e-2) apart there; the endpoint optimum is continuous
    edge = thresholds(gamma).delta_c_minus
    assert gamma < gamma_c_point(edge)
    mu = endpoint_mu_exact(POINT, edge, gamma)
    quarter, half = 2 / (mu[2] + mu[3]), 2 / (mu[0] + mu[1])
    assert abs(quarter - half) > 1e-3
    left, right = (optimal._alpha_formula(POINT, edge * f, gamma) for f in (1 - 1e-9, 1 + 1e-9))
    assert abs(left - right) < 1e-8


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_endpoint_pairs_match_blocks(kind):
    # at every finite gamma the pairs at c_k = +-1 come from the endpoint
    # forms; the reference is the 4x4 block at each alpha
    x = np.array([1.0, -1.0])
    for gamma in np.geomspace(1e-2, 1e4, 13):
        for delta0 in (1.0, 1.05, 1.7, 3.0, 6.0):
            for alpha in (0.6, 0.9, 1.2):
                hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
                for ck, pair in zip(x, zip(hi, lo)):
                    ev = np.linalg.eigvals(fourier.symbols_at_ck(delta0, gamma, kind, alpha, ck).Ehat)
                    ev = ev[np.argsort(-np.abs(ev))][:2].real
                    ref = (ev.max(), ev.min())
                    assert np.abs(np.subtract(pair, ref)).max() < 1e-10, (gamma, delta0, ck)


@pytest.mark.parametrize("kind", [POINT, CELL])
@pytest.mark.parametrize("gamma", [1e-300, 1e-200, 1e-160])
def test_endpoint_mu_stay_finite_without_extended_precision(kind, gamma):
    # in powers of 1/gamma, double overflowed below gamma of about 1e-154:
    # the point mu read (0.5, nan, nan, nan)
    for delta0 in (1.0, 1.05, 1.5, 2.0, 3.7, 10.0, 1e6):
        mu = closed_forms._endpoint_pairs(delta0, gamma, kind)
        for value, exact in zip(mu, endpoint_mu_exact(kind, delta0, gamma)):
            assert math.isfinite(value)
            assert abs(Fraction(float(value)) - exact) <= math.ulp(float(exact)), (delta0, exact)


def test_endpoint_pair_keeps_its_limit_at_huge_gamma():
    # lambda_+ at c_k = 1, point smoother, delta0 = 2, alpha = 0.9 tends to 0.2
    hi, _ = eigenvalue_pair(1.0, 2.0, 1e12, 0.9, POINT)
    assert abs(hi - 0.2) < 1e-9


def csv_rows(capsys, *argv):
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_sweep_at_huge_gamma_matches_pure_diffusion(capsys, kind):
    # one route for every gamma: tau = 1/gamma goes to 0 without any
    # denominator rounding to zero, and tiny gamma does not overflow
    args = ("sweep", "--smoother", kind, "--delta0", "1.05:6:0.01", "--alpha", "0.6:1.2:0.1",
            "--cells", "64")
    limit = csv_rows(capsys, *args, "--gamma", "inf")
    assert limit.shape == (496 * 7, 4)
    for gamma in ("1e12", "1e14", "1e16"):
        near = csv_rows(capsys, *args, "--gamma", gamma)
        assert np.array_equal(near[:, [0, 2]], limit[:, [0, 2]])
        assert np.abs(near[:, 3] - limit[:, 3]).max() < 1e-12, gamma
    tiny = csv_rows(capsys, *args, "--gamma", "1e-40")
    assert tiny.shape == limit.shape and np.all(np.isfinite(tiny))
    # the closed-form optimum too: its thresholds used to overflow from
    # gamma about 1e52 (a diverging alpha at 1e78, an overflow at 1e300)
    args = ("sweep", "--smoother", kind, "--delta0", "1:6:0.05", "--alpha", "opt", "--cells", "64")
    limit = csv_rows(capsys, *args, "--gamma", "inf")
    for gamma in ("1e52", "1e78", "1e300"):
        near = csv_rows(capsys, *args, "--gamma", gamma)
        assert np.array_equal(near[:, 0], limit[:, 0])
        assert np.abs(near[:, 2:] - limit[:, 2:]).max() < 1e-12, gamma


def test_spectrum_at_huge_gamma_keeps_the_endpoint_limit(capsys):
    args = ("spectrum", "--smoother", "point", "--delta0", "2", "--alpha", "0.9")
    for gamma in ("1e12", "1e14", "1e16"):
        rows = csv_rows(capsys, *args, "--gamma", gamma)
        _, ck, lambda_plus, _ = rows[-1]
        assert ck == 1.0
        assert abs(lambda_plus - 0.2) < 1e-9
    limit = csv_rows(capsys, *args, "--gamma", "inf")
    assert np.abs(rows - limit).max() < 1e-12
    assert np.all(np.isfinite(csv_rows(capsys, *args, "--gamma", "1e-40")))


EXTREME_DELTA0 = ("1", "1.5", "3", "1e16", "1.5e50", "1e60", "1e300")
EXTREME_GAMMA = ("1e-300", "1e-200", "0.05", "1e14", "1e52", "1e78", "1e300", "inf")


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--smoother", kind, "--delta0", delta0, "--gamma", gamma]
        for command in ("optimize", "sweep")
        for kind in (POINT, CELL)
        for delta0 in EXTREME_DELTA0
        for gamma in EXTREME_GAMMA
    ]
    + [["crossover", "--gamma", gamma] for gamma in EXTREME_GAMMA],
    ids="-".join,
)
def test_extreme_inputs_give_rows_or_one_error_line(capsys, argv):
    # no traceback and no numpy warning anywhere on the parameter range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and len(out.splitlines()) >= 2
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_endpoint_mu_keep_their_digits_as_delta0_nears_one(kind):
    # plus_2 has the factor 12 g (delta0 - 1) + t; written 12 d + t - 12 g
    # it cancelled at delta0 = 1: 6.8e-5 off at gamma = 1e15, 13% at 1e18,
    # and 0 from 1e19 on, even in extended precision
    gammas = [*np.geomspace(1e-300, 1e300, 61), 1e15, 1e17, 1e18, 1e19]
    worst = 0.0
    for gamma in map(float, gammas):
        for delta0 in (1.0, 1.0 + 2.0**-52, 1.0001, 1.001, 1.05, 1.5, 2.0, 10.0, 1e4, 1e8):
            mu = closed_forms._endpoint_pairs(delta0, gamma, kind)
            for value, exact in zip(mu, endpoint_mu_exact(kind, delta0, gamma)):
                assert exact != 0
                worst = max(worst, abs(Fraction(float(value)) / exact - 1))
    assert worst <= 4 * np.finfo(float).eps
