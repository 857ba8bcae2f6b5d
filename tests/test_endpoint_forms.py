"""The exact eigenvalue pairs at c_k = +-1 and the large-gamma limit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dgtwolevel import CELL, POINT, eigenvalue_pair
from dgtwolevel import closed_forms, fourier
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
