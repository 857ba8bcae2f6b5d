"""Closed-form eigenvalue pairs of the two-grid operator.

For every frequency the 4x4 two-grid block has two structural zero
eigenvalues (rank-2 coarse correction) and two real nonzero ones,
``lambda_+ >= lambda_-``.  The spectrum is affine in the relaxation,
``lambda = 1 - alpha*mu``, so :func:`eigenvalue_pair` computes the two
``mu`` and applies ``alpha`` once.  One route serves every ``gamma``:
``1 - mu = (k -+ sqrt(rad)) / den`` with the tables of
:mod:`dgtwolevel.rd_coefficients`, polynomials in ``s = 1 - c_k`` whose
coefficients are polynomials in ``tau = 1/gamma``; pure diffusion is
``tau = 0``.  Radicands are clamped to zero within a relative roundoff
band below zero.

At ``c_k = +-1`` the block splits, and the ``mu`` are rational in
``delta0`` and ``tau``: no square root, no cancellation at any ``gamma``.
Those points take exact endpoint forms, also because the tables are
``0/0`` at ``s = tau = 0``.

Error bound: ``|mu - mu_exact| <= 1e-14``, with ``mu_exact`` the tables
in exact arithmetic at the same floating-point inputs (the test suite
checks the tables themselves exactly against the 4x4 block), over the
box ``delta0`` in {1, 1.0001, 1.05, 1.5, 1 + 1/sqrt(2), 2, 3.7, 10},
``tau`` in {0, 1e-16, 1e-15, ..., 1e8}, and ``c_k`` on
:data:`ASYMPTOTIC_CK` plus points up to 1e-12 from +1 and 1.8e-8 from -1
(the mesh frequency next to -1 at ``J = 65536``).  Measured worst:
8.9e-16 (point), 6.7e-16 (cell).
"""

import errno
import math
from dataclasses import dataclass

import numpy as np

from .config import POINT, ProblemConfig, check_smoother
from .rd_coefficients import cell_coefficients, horner, point_coefficients

_CLAMP = 1e-12


class ClosedFormDomainError(ValueError):
    """Parameters outside the validity range of the closed forms."""


@dataclass(frozen=True)
class EigenPair:
    """The two nonzero two-grid eigenvalues at one frequency."""

    lambda_plus: float
    lambda_minus: float


def _guarded_sqrt(rad, scale):
    """Square root with a relative clamp of the roundoff band below zero."""
    rad = np.asarray(rad, dtype=float)
    scale = np.maximum(np.asarray(scale, dtype=float), 1.0)
    bad = rad < -_CLAMP * scale
    if np.any(bad):
        worst = float((rad / scale).min())
        raise ClosedFormDomainError(
            f"radicand negative beyond roundoff (relative {worst:.3e}); "
            "parameters outside the validity range"
        )
    return np.sqrt(np.maximum(rad, 0.0))


def _mu_pair(x, delta0, gamma, kind):
    """The two ``mu`` at ``c_k = x`` from the tables in ``s = 1 - c_k``."""
    x = np.asarray(x, dtype=float)
    s = 1 - x
    table = point_coefficients if kind == POINT else cell_coefficients
    # the table entries overflow for huge delta0 (from about 1e75 for the
    # point and 1e52 for the cell smoother), and their polynomials in s a
    # little earlier: an error, not nan pairs.  From finite entries, k, den
    # and rad are finite unless an operation overflows, which raises here.
    try:
        with np.errstate(over="raise", invalid="raise"):
            c = table(delta0, gamma)
            k, den = horner(c[:3], s), horner(c[-3:], s)
            # rad = e s^n + (1 + c_k) a(s) with n = len(a), 4 or 5
            e, *a = c[3:-3]
            sn = s * s
            sn = sn * sn
            if len(a) == 5:
                sn = sn * s
            q = 1 + x
            rad = e * sn + q * horner(a, s)
        finite = np.isfinite(c).all()
    except FloatingPointError:
        finite = False
    if not finite:
        raise OverflowError(errno.ERANGE, "the coefficient tables of the closed forms overflow")
    plus, minus = x == 1.0, x == -1.0
    ends = plus | minus
    # the formula is 0/0 at s = tau = 0; the endpoint forms replace c_k = +-1
    den = np.where(ends, 1.0, den)
    # positive on the whole domain
    if den.min(initial=np.inf) <= 0:
        raise ClosedFormDomainError("non-positive eigenvalue-formula denominator")
    if rad.min(initial=0.0) < 0:
        root = _guarded_sqrt(rad, abs(e) * sn + q * horner([abs(v) for v in a], s))
    else:
        root = np.sqrt(rad)
    lo, hi = np.asarray(1 - (k + root) / den), np.asarray(1 - (k - root) / den)
    if ends.any():
        # extended precision where the platform has it, so that each mu
        # comes within about half an ulp of its exact rational value
        mus = _endpoint_mu(np.longdouble(delta0), 1 / np.longdouble(gamma), kind)
        for dst, mu, where in zip((lo, hi, lo, hi), mus, (plus, plus, minus, minus)):
            np.copyto(dst, np.float64(mu), where=where)
    return lo, hi


def _endpoint_mu(delta0, tau, kind, g=1):
    """The four ``mu`` of the pairs at ``c_k = +1, -1``.

    Returns ``(plus_1, plus_2, minus_1, minus_2)``, rational in ``delta0``
    and ``1/gamma = tau / g``: the block splits there, so no square root
    enters and no digits cancel at any ``gamma``.  Each ``mu`` is a ratio
    of two polynomials homogeneous of one degree in ``(g, tau)``, so
    ``g = 1`` gives them in ``tau = 1/gamma`` and ``(g, tau) = (gamma,
    1)`` in ``gamma``, where no term overflows for small ``gamma``.
    Plain arithmetic only, so the same expressions evaluate floats,
    arrays or exact rationals.
    """
    d, t = delta0 * g, tau
    s2, s3, s6 = 2 * d + t, 3 * d + t, 6 * d + t
    q = 8 * d * t + 24 * d * g + t * t - 12 * g * g
    u, v = t + 3 * g, 12 * d + t - 12 * g
    if kind == POINT:
        w = s6 - 3 * g
        return (
            (t + 12 * g) / (2 * u),
            3 * (4 * d + t) * v / (4 * w * w),
            3 * q / (4 * u * w),
            s3 * q / (2 * s2 * u * w),
        )
    return (
        (t + 12 * g) / s6,
        s3 * (4 * d + t) * v / (s2 * s6 * (s6 - 3 * g)),
        q / (s2 * s6),
        s3 * q / (s2 * s6 * u),
    )


def eigenvalue_pair(x, delta0, gamma, alpha, kind):
    """Vectorized ``(lambda_+, lambda_-)`` over ``x = c_k`` values.

    The two ``mu`` of ``lambda = 1 - alpha*mu`` come from one route for
    every ``gamma``; this is the one place the relaxation enters.
    ``delta0`` and ``alpha`` broadcast against ``x``: a column of ``m``
    penalties or relaxations of shape ``(m, 1)`` against ``c_k`` of shape
    ``(k,)`` or ``(m, k)`` gives ``(m, k)`` pairs, each equal to the pair
    of its own scalar call.  ``gamma`` is a single value.
    """
    check_smoother(kind)
    a, b = (1 - alpha * mu for mu in _mu_pair(x, delta0, gamma, kind))
    return np.maximum(a, b), np.minimum(a, b)


def eigs_closed_form(ck: float, config: ProblemConfig, kind: str, alpha: float) -> EigenPair:
    """Closed-form nonzero eigenvalues at a single ``c_k`` value."""
    if not -1.0 <= ck <= 1.0:
        raise ValueError(f"c_k must lie in [-1, 1], got {ck}")
    hi, lo = eigenvalue_pair(ck, config.delta0, config.gamma, alpha, kind)
    return EigenPair(float(hi), float(lo))


def rho_on_ck_values(x, delta0, gamma, alpha, kind):
    """Largest eigenvalue modulus over the given ``c_k`` values.

    Reduces over the last axis of the broadcast pairs (see
    :func:`eigenvalue_pair`): a ``float`` for scalar ``delta0`` and
    ``alpha`` with one row of ``c_k``, an ``(m,)`` array for ``m`` rows.
    """
    hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
    rho = np.maximum(np.abs(hi), np.abs(lo))
    rho = np.atleast_1d(rho).max(axis=-1)
    return float(rho) if rho.ndim == 0 else rho


def mesh_ck(cells: int) -> np.ndarray:
    """The frequency values ``c_k = cos(4 pi k / J)``, ``k = 1 .. J/2``."""
    k = np.arange(1, cells // 2 + 1)
    return np.cos(4.0 * math.pi * k / cells)


#: Uniform 1001-point grid of ``c_k`` in ``[-1, 1]``: the mesh-size-free
#: frequency set of the asymptotic radius, the optima and their checks.
ASYMPTOTIC_CK = np.linspace(-1.0, 1.0, 1001)
ASYMPTOTIC_CK.flags.writeable = False


def lfa_spectral_radius(config: ProblemConfig, kind: str, alpha: float) -> float:
    """Two-grid convergence factor from the closed-form pairs on the mesh
    frequencies of :func:`mesh_ck`."""
    return rho_on_ck_values(mesh_ck(config.cells), config.delta0, config.gamma, alpha, kind)
