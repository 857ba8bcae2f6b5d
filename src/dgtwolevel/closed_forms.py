"""Closed-form eigenvalue pairs of the two-grid operator.

For every frequency the 4x4 two-grid block has two structural zero
eigenvalues (rank-2 coarse correction) and two real nonzero ones,
``lambda_+ >= lambda_-``.  The spectrum is affine in the relaxation,
``lambda = 1 - alpha*mu``, so every route below computes the two ``mu``
and :func:`eigenvalue_pair` applies ``alpha`` once.  The ``mu`` are
ratios of polynomials in ``c_k`` with a square root: for pure diffusion
``mu = -(b +- sqrt(r)) / den`` with a quadratic/cubic radicand, for
reaction-diffusion ``1 - mu = (k -+ sqrt(r)) / den`` with the
coefficient tables of :mod:`dgtwolevel.rd_coefficients`.

Radicands are evaluated as expanded real polynomials in ``c_k`` (exact
even where the quadratic's roots form a complex pair) and clamped to
zero within a relative roundoff band around double roots.

At ``c_k = +-1`` and finite ``gamma`` the block splits, and the ``mu``
are rational in ``delta0`` and ``tau = 1/gamma``: no square root, no
cancellation at any ``gamma``.  The few reaction-diffusion points
strictly inside the interval whose radicand drowns in the rounding noise
of its coefficients are re-evaluated from the 4x4 block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import POINT, ProblemConfig, check_smoother
from .fourier import symbols_at_ck
from .rd_coefficients import cell_coefficients, point_coefficients

_CLAMP = 1e-12
# Below this fraction of the coefficient scale the expanded radicand is
# dominated by rounding noise.  The rare such points inside the interval
# (near a double root of the cell radicand) are re-evaluated from the
# 4x4 block, whose eigensolve also loses digits where the pair coalesces.
_NOISE_BAND = 1e-8


class ClosedFormDomainError(ValueError):
    """Parameters outside the validity range of the closed forms."""


@dataclass(frozen=True)
class EigenPair:
    """The two nonzero two-grid eigenvalues at one frequency."""

    lambda_plus: float
    lambda_minus: float


def poisson_point_f(delta0: float) -> tuple:
    """Roots (f_-, f_+) of the point-smoother radicand quadratic."""
    d = delta0
    num = 4 * d**4 - 8 * d**3 + 8 * d**2 - 6 * d + 1
    disc = (
        16 * d**8 - 64 * d**7 + 128 * d**6 - 160 * d**5
        + 120 * d**4 - 48 * d**3 + 16 * d**2 - 8 * d + 1
    )
    root = math.sqrt(disc)
    return (num - root) / (2 * (d - 1)), (num + root) / (2 * (d - 1))


def poisson_cell_f(delta0: float) -> tuple:
    """Roots (f_-, f_+) of the cell-smoother radicand quadratic.

    The pair is complex strictly between the two branch breakpoints
    (1.41964... and 3/2); the closed-form evaluation below never needs
    the roots individually, only their real product polynomial.
    """
    d = delta0
    disc = (2 * d - 3) * (4 * d**3 - 8 * d**2 + 4 * d - 1)
    root = 2 * math.sqrt(disc)
    num = d * (4 * d**2 - 7 * d + 2)
    return (num - root) / (d**2 - 2), (num + root) / (d**2 - 2)


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


def _powers(d):
    """``d**2, d**3, d**4`` elementwise by Python's ``pow``.

    numpy's array ``power`` can differ from the scalar ``pow`` in the last
    ulp, so a penalty gives the same pair whether it comes alone or in a
    batch.
    """
    values = np.ravel(d).tolist()
    return [np.reshape([v**p for v in values], np.shape(d)) for p in (2, 3, 4)]


def _poisson_pair(x, delta0, kind):
    d = np.asarray(delta0, dtype=float)
    d2, d3, d4 = _powers(d)
    x = np.asarray(x, dtype=float)
    if kind == POINT:
        base = -1 + 8 * d - 10 * d2 - (2 * d2 - 4 * d + 1) * x
        p2, p1, p0 = (
            1 - d,
            4 * d4 - 8 * d3 + 8 * d2 - 6 * d + 1,
            d * (4 * d3 - 8 * d2 + 8 * d - 1),
        )
        rad = (x + 1) * (p2 * x**2 + p1 * x + p0)
        scale = 2.0 * (np.abs(p2) * x**2 + np.abs(p1) * np.abs(x) + np.abs(p0))
        den = (2 * d - 1) * (4 * d - x - 1)
    else:
        base = 2 + d * (x - 4 * d - 1)
        p2, p1, p0 = (
            d2 - 2,
            -2 * d * (4 * d2 - 7 * d + 2),
            16 * d4 - 56 * d3 + 65 * d2 - 28 * d + 6,
        )
        rad = p2 * x**2 + p1 * x + p0
        scale = np.abs(p2) * x**2 + np.abs(p1) * np.abs(x) + np.abs(p0)
        den = d * (4 * d - x - 1)
    if np.any(np.abs(den) < 1e-14):
        raise ClosedFormDomainError("vanishing denominator 4*delta0 - c_k - 1")
    root = _guarded_sqrt(rad, scale)
    return (-base - root) / den, (root - base) / den


def _rd_pair(x, delta0, gamma, kind):
    x = np.asarray(x, dtype=float)
    if kind == POINT:
        c = point_coefficients(delta0, gamma)
        rad_coeffs, den_coeffs = c[3:9], c[9:12]
    else:
        c = cell_coefficients(delta0, gamma)
        rad_coeffs, den_coeffs = c[3:8], c[8:11]
    x2 = x**2
    k = c[0] + c[1] * x + c[2] * x2
    den = den_coeffs[0] + den_coeffs[1] * x + den_coeffs[2] * x2
    # Horner's rule: powers x**i of negative entries take a slow libm path
    ax = np.abs(x)
    *rest, rad = rad_coeffs
    scale = abs(rad)
    for ci in reversed(rest):
        rad = rad * x + ci
        scale = scale * ax + abs(ci)
    den_scale = sum(abs(ci) for ci in den_coeffs)
    if np.any(np.abs(den) < 1e-14 * np.maximum(1.0, den_scale)):
        raise ClosedFormDomainError("vanishing eigenvalue-formula denominator")
    root = _guarded_sqrt(rad, scale)
    lo, hi = np.asarray(1 - (k + root) / den), np.asarray(1 - (k - root) / den)
    plus, minus = x == 1.0, x == -1.0
    ends = plus | minus
    if ends.any():
        # extended precision where the platform has it, so that each mu
        # comes within about half an ulp of its exact rational value
        mus = _endpoint_mu(np.longdouble(delta0), 1 / np.longdouble(gamma), kind)
        for dst, mu, where in zip((lo, hi, lo, hi), mus, (plus, plus, minus, minus)):
            np.copyto(dst, np.float64(mu), where=where)
    shaky = (np.abs(rad) < _NOISE_BAND * np.maximum(scale, 1.0)) & ~ends
    if shaky.any():
        xs, ds = np.broadcast_arrays(x, delta0)
        for idx in map(tuple, np.argwhere(shaky)):
            lo[idx], hi[idx] = _block_pair(float(xs[idx]), float(ds[idx]), gamma, kind)
    return lo, hi


def _endpoint_mu(delta0, tau, kind):
    """The four ``mu`` of the pairs at ``c_k = +1, -1``.

    Returns ``(plus_1, plus_2, minus_1, minus_2)``, rational in ``delta0``
    and ``tau = 1/gamma``: the block splits there, so no square root
    enters and no digits cancel at any ``gamma``.  Plain arithmetic only,
    so the same expressions evaluate floats, arrays or exact rationals.
    """
    d, t = delta0, tau
    s2, s3, s6 = 2 * d + t, 3 * d + t, 6 * d + t
    q = 8 * d * t + 24 * d + t * t - 12
    if kind == POINT:
        w = s6 - 3
        return (
            (t + 12) / (2 * (t + 3)),
            3 * (4 * d + t) * (12 * d + t - 12) / (4 * w * w),
            3 * q / (4 * (t + 3) * w),
            s3 * q / (2 * s2 * (t + 3) * w),
        )
    return (
        (t + 12) / s6,
        s3 * (4 * d + t) * (12 * d + t - 12) / (s2 * s6 * (s6 - 3)),
        q / (s2 * s6),
        s3 * q / (s2 * s6 * (t + 3)),
    )


def _block_pair(ck, delta0, gamma, kind):
    """``mu = 1 - lambda`` straight from the 4x4 frequency block at alpha = 1."""
    ev = np.linalg.eigvals(symbols_at_ck(delta0, gamma, kind, 1.0, ck).Ehat)
    ev = ev[np.argsort(-np.abs(ev))][:2].real
    return 1.0 - float(ev.max()), 1.0 - float(ev.min())


def eigenvalue_pair(x, delta0, gamma, alpha, kind):
    """Vectorized ``(lambda_+, lambda_-)`` over ``x = c_k`` values.

    Each route gives the two ``mu`` of ``lambda = 1 - alpha*mu``; this is
    the one place the relaxation enters.  ``delta0`` and ``alpha``
    broadcast against ``x``: a column of ``m`` penalties or relaxations of
    shape ``(m, 1)`` against ``c_k`` of shape ``(k,)`` or ``(m, k)`` gives
    ``(m, k)`` pairs, each equal to the pair of its own scalar call.
    ``gamma`` is a single value.
    """
    check_smoother(kind)
    if math.isinf(gamma):
        mus = _poisson_pair(x, delta0, kind)
    else:
        mus = _rd_pair(x, delta0, gamma, kind)
    a, b = (1 - alpha * mu for mu in mus)
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
