"""Closed-form eigenvalue pairs of the two-grid operator.

For every frequency the 4x4 two-grid block has two structural zero
eigenvalues (rank-2 coarse correction) and two real nonzero ones,
``lambda_+ >= lambda_-``.  The pure-diffusion pairs are rational in
``c_k`` with a quadratic/cubic radicand; the reaction-diffusion pairs
use the polynomial coefficient tables of :mod:`dgtwolevel.rd_coefficients`.

Radicands are evaluated as expanded real polynomials in ``c_k`` (exact
even where the quadratic's roots form a complex pair) and clamped to
zero within a relative roundoff band around double roots.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import POINT, ProblemConfig, check_smoother
from .fourier import symbols_at_ck
from .rd_coefficients import cell_coefficients, point_coefficients

_CLAMP = 1e-12
# Below this fraction of the coefficient scale the expanded radicand is
# dominated by rounding noise (the polynomial loses one gamma order near
# c_k = 1 for large gamma); those isolated points are re-evaluated from
# the frequency block itself, which stays perfectly conditioned.
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


def _poisson_pair(x, delta0, alpha, kind):
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
    return 1 + alpha * (base + root) / den, 1 + alpha * (base - root) / den


def _rd_pair(x, delta0, gamma, alpha, kind):
    x = np.asarray(x, dtype=float)
    if kind == POINT:
        c = point_coefficients(delta0, gamma, alpha)
        num = c[0] + c[1] * x + c[2] * x**2
        rad_coeffs = c[3:9]
        den = c[9] + c[10] * x + c[11] * x**2
    else:
        c = cell_coefficients(delta0, gamma, alpha)
        num = c[0] + c[1] * x + c[2] * x**2
        rad_coeffs = c[3:8]
        den = c[8] + c[9] * x + c[10] * x**2
    # Horner's rule: powers x**i of negative entries take a slow libm path
    ax = np.abs(x)
    rad = scale = 0.0
    for ci in reversed(rad_coeffs):
        rad = rad * x + ci
        scale = scale * ax + abs(ci)
    den_scale = sum(abs(c[i]) for i in ((9, 10, 11) if kind == POINT else (8, 9, 10)))
    if np.any(np.abs(den) < 1e-14 * np.maximum(1.0, den_scale)):
        raise ClosedFormDomainError("vanishing eigenvalue-formula denominator")
    root = _guarded_sqrt(rad, scale)
    hi = (num + root) / den
    lo = (num - root) / den
    hi, lo = np.maximum(hi, lo), np.minimum(hi, lo)
    shaky = np.abs(rad) < _NOISE_BAND * np.maximum(scale, 1.0)
    if np.any(shaky):
        hi, lo = np.array(hi), np.array(lo)
        xs, ds, alphas = np.broadcast_arrays(x, delta0, alpha)
        for idx in map(tuple, np.argwhere(shaky)):
            hi[idx], lo[idx] = _block_pair(
                float(xs[idx]), float(ds[idx]), gamma, float(alphas[idx]), kind
            )
    return hi, lo


def _block_pair(ck, delta0, gamma, alpha, kind):
    """Nonzero eigenvalue pair straight from the 4x4 frequency block."""
    ev = np.linalg.eigvals(symbols_at_ck(delta0, gamma, kind, alpha, ck).Ehat)
    ev = ev[np.argsort(-np.abs(ev))][:2].real
    return float(ev.max()), float(ev.min())


def eigenvalue_pair(x, delta0, gamma, alpha, kind):
    """Vectorized ``(lambda_+, lambda_-)`` over ``x = c_k`` values.

    ``delta0`` and ``alpha`` broadcast against ``x``: a column of ``m``
    penalties or relaxations of shape ``(m, 1)`` against ``c_k`` of shape
    ``(k,)`` or ``(m, k)`` gives ``(m, k)`` pairs, each equal to the pair
    of its own scalar call.  ``gamma`` is a single value.
    """
    check_smoother(kind)
    if math.isinf(gamma):
        return _poisson_pair(x, delta0, alpha, kind)
    return _rd_pair(x, delta0, gamma, alpha, kind)


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


def lfa_spectral_radius(
    config: ProblemConfig, kind: str, alpha: float, dense: bool = False
) -> float:
    """Two-grid convergence factor from the closed-form pairs.

    Scans the mesh frequencies of :func:`mesh_ck`; with ``dense=True``
    it scans :data:`ASYMPTOTIC_CK` instead, giving the mesh-size-free
    asymptotic value.
    """
    x = ASYMPTOTIC_CK if dense else mesh_ck(config.cells)
    return rho_on_ck_values(x, config.delta0, config.gamma, alpha, kind)
