"""Coefficient tables of the two-grid eigenvalue formulas.

The two nonzero eigenvalues of the two-grid block are ``1 - w*mu`` for
the relaxation parameter ``w``, so the tables hold no relaxation:
:func:`dgtwolevel.closed_forms.eigenvalue_pair` applies it.  The tables
give ``1 - mu`` as a ratio of polynomials in ``s = 1 - c_k``,

    1 - mu_{-+} = (k0 + k1 s + k2 s^2 +- sqrt(rad)) / (den0 + den1 s + den2 s^2),
    rad = e s^n + (1 + c_k) (a0 + a1 s + ... + a_{n-1} s^{n-1}),

with ``n = 5`` for the point smoother and ``n = 4`` for the cell
smoother.  ``2^n e`` is the radicand at ``c_k = -1``.  Each of the two
terms vanishes at one end of the interval, and ``1 + c_k`` is exact in
floating point where it is small, so no digits cancel near either end.

Every coefficient is a polynomial in ``tau = 1/gamma``: the polynomials
in ``(c_k, gamma)`` of the paper's appendix multiplied by ``tau^4``
(``k``, ``den``) or ``tau^8`` (the radicand), so pure diffusion is
``tau = 0`` and no leading orders cancel as ``gamma`` grows.  The parts
in ``delta0`` stay factored.  Both denominators share the factor
``3 s^2 + (12 delta0 - 6 + (12 - 8 delta0) tau) s + 4 tau (6 delta0 +
tau - 3)``, which is positive for ``delta0 >= 1``, ``tau >= 0`` and
``0 <= s <= 2`` except at ``s = tau = 0``: there the
formula is ``0/0``, and :mod:`dgtwolevel.closed_forms` takes
``c_k = +-1`` from exact endpoint forms instead.

The test suite checks the tables exactly against the 4x4 block at
``c_k`` = 1/2, 0 and -1/2.  Each function returns the numerator,
radicand and denominator coefficients in that order.
"""

import numpy as np


def horner(coeffs, u):
    """``coeffs[0] + coeffs[1] u + coeffs[2] u^2 + ...`` by Horner's rule.

    ``acc * u`` is a new object, so an array adds the next coefficient in
    place; each coefficient broadcasts to the shape of the product.
    """
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u
        acc += c
    return acc


def _in_tau(rows, n, gamma):
    """Each row ``(c_0, c_1, ...)`` of coefficients of ``tau^j`` as its
    polynomial in ``tau = 1/gamma``, times ``min(1, gamma)**n``.

    The factor is the same for every row at one ``gamma`` and cancels in
    the eigenvalue formulas.  The polynomial runs in ``tau`` for
    ``gamma >= 1`` (``tau = 0`` at ``gamma = inf``) and in ``gamma``, with
    the row reversed, below 1, so no power of a number above 1 is formed:
    every ``gamma > 0`` stays in range.

    ``gamma`` is a scalar or an array that broadcasts against the entries
    of the rows.  Each element takes its own branch: both polynomials run
    at ``u = min(gamma, 1/gamma) <= 1``, the same bits as ``tau`` or
    ``gamma`` of a scalar call, and ``np.where`` picks one.  A branch no
    element takes is not evaluated.  An overflow in a dropped value raises
    nothing; one in a kept value is an inf entry, as it is for a scalar
    ``gamma`` outside ``np.errstate(over="raise")``.
    """
    if not isinstance(gamma, np.ndarray):
        if gamma >= 1:
            tau = 1 / gamma
            return [horner(row, tau) for row in rows]
        return [horner((0,) * (n + 1 - len(row)) + row[::-1], gamma) for row in rows]
    in_tau = gamma >= 1
    # 1 / max(gamma, 1) is tau where gamma >= 1 and 1 elsewhere: no overflow
    u = np.minimum(gamma, 1 / np.maximum(gamma, 1.0))
    if in_tau.all():
        return [horner(row, u) for row in rows]
    flipped = [(0,) * (n + 1 - len(row)) + row[::-1] for row in rows]
    if not in_tau.any():
        return [horner(row, u) for row in flipped]
    # the dropped branch may overflow where the kept one does not
    with np.errstate(over="ignore", invalid="ignore"):
        return [np.where(in_tau, horner(a, u), horner(b, u)) for a, b in zip(rows, flipped)]


def point_coefficients(delta0: float, gamma: float) -> tuple:
    """Return (k0, k1, k2, e, a0, ..., a4, den0, den1, den2) of the point smoother."""
    d = delta0
    f1 = 2 * d - 1  # 2d - 1
    f2 = 2 * d - 3  # 2d - 3
    f3 = 4 * d - 1  # 4d - 1
    f4 = 8 * d + 3  # 8d + 3
    f5 = d - 1  # d - 1
    f6 = (16 * d + 5) * d - 3  # 16d^2 + 5d - 3
    f7 = (2 * d - 2) * d + 1  # 2d^2 - 2d + 1
    f8 = (48 * d - 18) * d - 1  # 48d^2 - 18d - 1
    f9 = (64 * d + 144) * d - 15  # 64d^2 + 144d - 15
    k = (
        (0, -6912 * d * f5, 288 * f2 * f2, 48 * (8 * d - 3), 48),
        (-3456 * d * f5, 288 * ((16 * d - 20) * d + 3), -48 * ((14 * d - 54) * d + 39), -48 * f2),
        (1728 * d * f5, -288 * f1 * (d - 2), 48 * ((d - 4) * d + 5)),
    )
    rad = (
        (0, 0, 10368 * f1 * f1, 6912 * f1 * f3, 576 * f8, 384 * f6, 8 * f9, 16 * f4, 8),
        (0, 0, 5971968 * f7 * f7, -995328 * f7 * ((4 * d - 12) * d + 1),
            41472 * ((((16 * d - 160) * d + 320) * d - 160) * d + 53),
            13824 * (((32 * d - 156) * d + 172) * d - 17), 1152 * ((80 * d - 256) * d + 173),
            768 * (8 * d - 13), 128),
        (0, 5971968 * f7 * f7, -497664 * ((((48 * d - 128) * d + 130) * d - 90) * d + 25),
            165888 * ((((36 * d - 180) * d + 193) * d - 17) * d - 11),
            -6912 * ((((64 * d - 704) * d + 2068) * d - 1860) * d + 323),
            -4608 * (((16 * d - 141) * d + 302) * d - 196), 192 * ((24 * d + 48) * d - 17),
            128 * f4, 64),
        (1492992 * f7 * f7, -497664 * ((((32 * d - 72) * d + 74) * d - 62) * d + 21),
            41472 * ((((168 * d - 664) * d + 704) * d - 244) * d + 91),
            -27648 * ((((40 * d - 248) * d + 429) * d - 151) * d - 93),
            2304 * ((((26 * d - 300) * d + 1214) * d - 1811) * d + 920),
            -768 * (((20 * d - 142) * d + 179) * d - 93), 32 * f9, 64 * f4, 32),
        (-746496 * ((((4 * d - 8) * d + 8) * d - 8) * d + 3),
            497664 * ((((4 * d - 14) * d + 16) * d - 13) * d + 8),
            -20736 * ((((24 * d - 120) * d + 164) * d + 16) * d - 89),
            13824 * ((((4 * d - 26) * d + 76) * d - 94) * d + 43),
            -1152 * ((((2 * d - 16) * d - 4) * d - 30) * d + 19), 768 * f6, 16 * f9, 32 * f4, 16),
        (-746496 * f5, -248832 * f5, 10368 * f1 * f1, 6912 * f1 * f3, 576 * f8, 384 * f6, 8 * f9,
            16 * f4, 8),
    )
    den = (
        (0, 3456 * f1 * f1, 1152 * (2 * d + 1) * f1, 384 * f3, 128),
        (1728 * f1 * f1, -1152 * f1 * (d - 3), -192 * ((8 * d - 14) * d + 1), -128 * f2),
        (864 * f1, 576 * d, 96),
    )
    return (*_in_tau(k, 4, gamma), *_in_tau(rad, 8, gamma), *_in_tau(den, 4, gamma))


def cell_coefficients(delta0: float, gamma: float) -> tuple:
    """Return (k0, k1, k2, e, a0, ..., a3, den0, den1, den2) of the cell smoother."""
    d = delta0
    d2 = d * d
    f1 = 11 * d - 21  # 11d - 21
    f2 = 2 * d - 1  # 2d - 1
    f3 = 2 * d - 3  # 2d - 3
    f4 = d - 1  # d - 1
    f5 = d - 3  # d - 3
    f6 = (10 * d + 18) * d - 9  # 10d^2 + 18d - 9
    f7 = (11 * d + 4) * d - 2  # 11d^2 + 4d - 2
    f8 = (14 * d - 29) * d + 6  # 14d^2 - 29d + 6
    f9 = (2 * d - 4) * d + 1  # 2d^2 - 4d + 1
    k = (
        (0, -2304 * d * f4, 192 * ((2 * d - 9) * d + 6), 32 * f5),
        (-1152 * d * f4, 192 * f2 * f5, -288 * f4 * f4, -32 * f3),
        (0, 192 * d, 48),
    )
    rad = (
        (331776 * f2 * f2 * d2 * f4 * f4, 110592 * f2 * d * f4 * f4 * ((4 * d + 6) * d - 3),
            9216 * f4 * f4 * ((((16 * d + 108) * d - 18) * d - 36) * d + 9),
            18432 * d * f4 * f4 * f6, 6912 * f4 * f4 * f7, 11520 * d * f4 * f4, 576 * f4 * f4),
        (0, 0, 2654208 * d2 * f9 * f9, 442368 * d * f8 * f9,
            18432 * ((((284 * d - 1156) * d + 1389) * d - 432) * d + 36), 6144 * f1 * f8,
            512 * f1 * f1),
        (0, 2654208 * d2 * f9 * f9,
            -221184 * d * (((((8 * d - 100) * d + 286) * d - 294) * d + 93) * d - 12),
            -73728 * (((((26 * d - 219) * d + 500) * d - 408) * d + 75) * d - 9),
            -3072 * ((((248 * d - 1718) * d + 3353) * d - 2208) * d + 90),
            -3072 * (((37 * d - 224) * d + 388) * d - 228), -256 * ((7 * d - 30) * d + 15)),
        (663552 * d2 * f9 * f9, 221184 * d * ((((8 * d * d - 50) * d + 58) * d - 11) * d + 3),
            18432 * ((((((16 * d + 76) * d - 132) * d - 164) * d + 223) * d + 54) * d + 9),
            36864 * (((((10 * d - 2) * d - 22) * d - 7) * d + 22) * d + 12),
            1536 * ((((99 * d - 162) * d + 41) * d - 48) * d + 102), 23040 * d * f4 * f4,
            1152 * f4 * f4),
        (331776 * d2 * ((((4 * d - 12) * d + 12) * d - 6) * d + 3),
            110592 * d * (((((8 * d - 8) * d - 20) * d + 33) * d - 18) * d + 8),
            9216 * ((((((16 * d + 76) * d - 218) * d + 108) * d + 59) * d - 54) * d + 21),
            18432 * d * f4 * f4 * f6, 6912 * f4 * f4 * f7, 11520 * d * f4 * f4, 576 * f4 * f4),
    )
    den = (
        (0, 2304 * f2 * d2, 768 * (5 * d - 2) * d, 64 * (14 * d - 3), 64),
        (1152 * f2 * d2, -768 * d * ((2 * d - 5) * d + 1), -32 * ((32 * d - 54) * d + 3),
            -64 * f3),
        (576 * d2, 384 * d, 48),
    )
    return (*_in_tau(k, 4, gamma), *_in_tau(rad, 8, gamma), *_in_tau(den, 4, gamma))
