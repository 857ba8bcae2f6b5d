"""The documented error bound of the closed-form pairs.

The reference evaluates the shipped tables at the same floating-point
inputs in exact rational coefficients and double-double arithmetic, with
the radicand summed in plain powers of ``s = 1 - c_k`` (a different
representation from the shipped one), and rounds ``k``, the radicand and
``den`` once each before forming ``mu``.  The tables themselves are
checked exactly against the 4x4 block in ``test_endpoint_forms``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dgtwolevel import CELL, POINT, eigenvalue_pair
from dgtwolevel.closed_forms import ASYMPTOTIC_CK, _endpoint_mu
from dgtwolevel.rd_coefficients import cell_coefficients, point_coefficients

BOUND = 1e-14
DELTA0 = (1.0, 1.0001, 1.05, 1.5, 1 + 1 / math.sqrt(2), 2.0, 3.7, 10.0)
TAU = (0.0, *(10.0**j for j in range(-16, 9)))
NEAR_ENDS = (1 - 1e-12, 1 - 1e-10, 1 - 1e-8, 1 - 1e-6, -1 + 1.8e-8, -1 + 1e-6, -1 + 1e-4)


# Double-double numbers are pairs (hi, lo) of float arrays with hi + lo
# exact to about 32 digits (Dekker, Numer. Math. 18, 1971).

def two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def renormalize(s, e):
    hi = s + e
    return hi, e - (hi - s)


def dd_add(a, b):
    s, e = two_sum(a[0], b[0])
    return renormalize(s, e + a[1] + b[1])


def dd_mul(a, b):
    p, e = two_prod(a[0], b[0])
    return renormalize(p, e + a[0] * b[1] + a[1] * b[0])


def dd_column(values):
    """Exact rationals, one per penalty, as a double-double column."""
    hi = np.array([[float(v)] for v in values])
    lo = np.array([[float(v - Fraction(h))] for v, h in zip(values, hi[:, 0])])
    return hi, lo


def dd_horner(columns, s):
    acc = columns[-1]
    for c in columns[-2::-1]:
        acc = dd_add(dd_mul(acc, s), c)
    return acc


def exact_tables(kind, gamma):
    """The table entries per penalty in exact rationals, with the radicand
    expanded to ``sum r_i s^i`` from ``e s^n + (2 - s) sum a_i s^i``."""
    sympy = pytest.importorskip("sympy")
    table = point_coefficients if kind == POINT else cell_coefficients
    gamma = sympy.oo if math.isinf(gamma) else sympy.Rational(gamma)
    rows = []
    for d in DELTA0:
        exact = map(sympy.Rational, table(sympy.Rational(d), gamma))
        c = [Fraction(int(v.p), int(v.q)) for v in exact]
        e, *a = c[3:-3]
        r = [2 * ai - prev for ai, prev in zip([*a, 0], [0, *a])]
        r[-1] += e
        rows.append((c[:3], r, c[-3:]))
    return [[dd_column(col) for col in zip(*part)] for part in zip(*rows)]


def reference_mu(kind, gamma, x):
    """``(mu_min, mu_max)`` for every penalty (rows) and ``c_k`` (columns)."""
    x = np.broadcast_to(x, (len(DELTA0), x.size))
    s = two_sum(np.ones_like(x), -x)
    k, r, den = (sum(dd_horner(part, s)) for part in exact_tables(kind, gamma))
    root = np.sqrt(np.maximum(r, 0.0))
    return 1 - (k + root) / den, 1 - (k - root) / den


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_pairs_within_bound_over_the_box(kind):
    inside = ASYMPTOTIC_CK[1:-1]
    x = np.concatenate((inside, NEAR_ENDS))
    delta0 = np.array(DELTA0)[:, None]
    worst = 0.0
    for tau in TAU:
        gamma = math.inf if tau == 0 else 1 / tau
        hi, lo = eigenvalue_pair(x, delta0, gamma, 1.0, kind)
        ref_lo, ref_hi = reference_mu(kind, gamma, x)
        worst = max(worst, np.abs(1 - hi - ref_lo).max(), np.abs(1 - lo - ref_hi).max())
        # c_k = +-1 from the endpoint forms, against their exact values
        hi, lo = eigenvalue_pair(np.array([1.0, -1.0]), delta0, gamma, 1.0, kind)
        tau_exact = 1 / Fraction(gamma) if tau else Fraction(0)
        for i, d in enumerate(DELTA0):
            plus_1, plus_2, minus_1, minus_2 = _endpoint_mu(Fraction(d), tau_exact, kind)
            for j, pair in enumerate(((plus_1, plus_2), (minus_1, minus_2))):
                exact = sorted(float(mu) for mu in pair)
                worst = max(worst, abs(1 - hi[i, j] - exact[0]), abs(1 - lo[i, j] - exact[1]))
    assert worst <= BOUND, worst
