"""The exact eigenvalue pairs at c_k = +-1 and the large-gamma limit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dgtwolevel import CELL, POINT, eigenvalue_pair
from dgtwolevel import closed_forms, fourier
from dgtwolevel.cli import main


def exact_matrix(values, unit=1.0):
    """Exact sympy copy of a float matrix.

    Real entries are taken exactly (the slabs and transfer rows are
    dyadic); complex ones are Gaussian integers times ``unit`` (the grid
    factors at t = 0 and pi/2).
    """
    sympy = pytest.importorskip("sympy")
    values = np.asarray(values) / unit
    if not np.iscomplexobj(values):
        return sympy.Matrix([[sympy.Rational(v) for v in row] for row in values.tolist()])
    rounded = np.round(values.real) + 1j * np.round(values.imag)
    assert np.abs(values - rounded).max() < 1e-12
    return sympy.Matrix(
        [[int(z.real) + sympy.I * int(z.imag) for z in row] for row in rounded.tolist()]
    )


def exact_block(delta0, tau, kind, alpha, t):
    """Exact 4x4 two-grid block at node phase ``t`` in {0, pi/2}.

    Built like ``fourier.symbols_at_angle``, from its stencil slabs,
    transfer rows and grid factors; each slab is affine in ``(delta0,
    1/gamma)`` with entries in sixths of ``1/gamma``, so three float
    evaluations give it exactly.
    """
    sympy = pytest.importorskip("sympy")

    def slab(k):
        base = fourier._stencil_rows(0.0, 0.0, k)
        per_delta = fourier._stencil_rows(1.0, 0.0, k) - base
        per_six_tau = fourier._stencil_rows(0.0, 6.0, k) - base
        return (
            exact_matrix(base)
            + delta0 * exact_matrix(per_delta)
            + tau / 6 * exact_matrix(per_six_tau)
        )

    Ql, Qr, Ql0, Qr0 = fourier._grid_factors(t)
    half = sympy.sqrt(2) / 2
    Ql, Qr = half * exact_matrix(Ql, math.sqrt(0.5)), half * exact_matrix(Qr, math.sqrt(0.5))
    Ql0, Qr0 = exact_matrix(Ql0, 0.5) / 2, exact_matrix(Qr0)
    A = (Ql * slab(None) * Qr).expand()
    D = (Ql * slab(kind) * Qr).expand()
    R = (Ql0 * exact_matrix(fourier._RESTRICTION_ROWS) * Qr).expand()
    P = (Ql * exact_matrix(fourier._PROLONGATION_ROWS) * Qr0).expand()
    identity = sympy.eye(4)
    correct = identity - P * (R * A * P).inv() * R * A
    return (correct * (identity - alpha * D.inv() * A)).expand()


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_endpoint_forms_are_exact_block_eigenvalues(kind):
    # the shipped mu, evaluated in exact rationals, give the characteristic
    # polynomial lam^2 (lam - lam_1) (lam - lam_2) of the exact block
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    alpha = sympy.Rational(9, 10)
    points = [
        (sympy.Rational(1), sympy.Rational(1, 10**12)),
        (sympy.Rational(17, 10), sympy.Rational(1, 10**12)),
        (sympy.Rational(21, 20), sympy.Rational(7, 3)),
        (sympy.Rational(6), sympy.Rational(7, 3)),
        (sympy.Rational(3), sympy.Rational(100)),
    ]
    for delta0, tau in points:
        plus_1, plus_2, minus_1, minus_2 = closed_forms._endpoint_mu(delta0, tau, kind)
        for t, mus in ((0.0, (plus_1, plus_2)), (math.pi / 2, (minus_1, minus_2))):
            lams = [1 - alpha * mu for mu in mus]
            assert all(isinstance(v, sympy.Rational) and v != 0 for v in lams)
            poly = exact_block(delta0, tau, kind, alpha, t).charpoly(lam).as_expr()
            expected = lam**2 * (lam - lams[0]) * (lam - lams[1])
            assert sympy.expand(poly - expected) == 0, (kind, delta0, tau, t)


def test_endpoint_forms_reduce_to_pure_diffusion():
    for delta0 in (1.0, 1.5, 2.0, 4.0):
        d = Fraction(delta0)
        cell = closed_forms._endpoint_mu(d, Fraction(0), CELL)
        point = closed_forms._endpoint_mu(d, Fraction(0), POINT)
        assert cell == (2 / d, 4 * (d - 1) / (2 * d - 1), (2 * d - 1) / d**2, (2 * d - 1) / d)
        assert point == (2, 4 * d * (d - 1) / (2 * d - 1) ** 2, 1, 1)


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_endpoint_pairs_match_blocks(kind):
    for gamma in np.geomspace(1e-2, 1e4, 13):
        for delta0 in (1.0, 1.05, 1.7, 3.0, 6.0):
            for alpha in (0.6, 0.9, 1.2):
                x = np.array([1.0, -1.0])
                hi, lo = closed_forms._endpoint_pair(x, delta0, 1 / gamma, alpha, kind)
                for ck, pair in zip(x, zip(hi, lo)):
                    ref = closed_forms._block_pair(ck, delta0, gamma, alpha, kind)
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
    args = ("sweep", "--smoother", kind, "--delta0", "1.05:6:0.01", "--alpha", "0.6:1.2:0.1",
            "--cells", "64")
    near = csv_rows(capsys, *args, "--gamma", "1e12")
    limit = csv_rows(capsys, *args, "--gamma", "inf")
    assert near.shape == limit.shape == (496 * 7, 4)
    assert np.array_equal(near[:, [0, 2]], limit[:, [0, 2]])
    assert np.abs(near[:, 3] - limit[:, 3]).max() < 1e-9


def test_spectrum_at_huge_gamma_keeps_the_endpoint_limit(capsys):
    rows = csv_rows(
        capsys, "spectrum", "--smoother", "point", "--delta0", "2", "--gamma", "1e12",
        "--alpha", "0.9",
    )
    _, ck, lambda_plus, _ = rows[-1]
    assert ck == 1.0
    assert abs(lambda_plus - 0.2) < 1e-9
