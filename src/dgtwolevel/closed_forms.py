"""Closed-form eigenvalue pairs of the two-grid operator.

For every frequency the 4x4 two-grid block has two structural zero
eigenvalues (rank-2 coarse correction) and two real nonzero ones,
``lambda_+ >= lambda_-``.  The spectrum is affine in the relaxation,
``lambda = 1 - alpha*mu``, so the two ``mu`` come first and ``alpha``
enters last.  One route serves every ``gamma``:
``1 - mu = (k -+ sqrt(rad)) / den`` with the tables of
:mod:`dgtwolevel.rd_coefficients`, polynomials in ``s = 1 - c_k`` whose
coefficients are polynomials in ``tau = 1/gamma``; pure diffusion is
``tau = 0``.  Radicands are clamped to zero within a relative roundoff
band below zero.  :func:`eigenvalue_pair` applies ``alpha`` to every
pair.  A radius over a row of ``c_k`` reads only the extremes
``(mu_min, mu_max)`` of :func:`_mu_extremes`: :func:`rho_on_ck_values`
is ``max |1 - alpha mu|`` over them, the same bits as the largest pair
modulus since ``fl(1 - fl(alpha mu))`` is monotone in ``mu``.

At ``c_k = +-1`` the block splits, and the ``mu`` are rational in
``delta0`` and ``tau``: no square root, no cancellation at any ``gamma``.
Those points take exact endpoint forms, also because the tables are
``0/0`` at ``s = tau = 0``; :func:`_mu_extremes` takes them as four
scalars.

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

from .config import POINT, ProblemConfig, check_penalty, check_reaction, check_smoother
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


def _mu_pair(s, q, delta0, gamma, kind, ends=None):
    """The two ``mu`` at ``c_k = 1 - s = q - 1`` from the tables, in the
    form the tables give them: ``(1 - mu_lo, 1 - mu_hi)``, which are
    ``(k + root) / den`` and ``(k - root) / den``.

    ``mu_lo <= mu_hi`` at every ``c_k`` but ``+-1``, where
    :func:`_endpoint_pairs` gives the ``mu``.  ``ends`` masks the
    ``c_k = +-1`` (``None``: there are none); their denominator, ``0`` at
    ``s = tau = 0``, is taken as 1, but their entries enter the overflow
    and radicand checks like every other.
    """
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
            sn *= sn
            if len(a) == 5:
                sn *= s
            rad = q * horner(a, s)
            rad += e * sn
            try:
                root = np.sqrt(rad)
            except FloatingPointError:
                # a radicand below zero: clamped or refused below, after
                # the denominator check
                root = None
        # arrays for a column of penalties or gammas, plain floats otherwise
        finite = np.isfinite(c).all() if _is_column(delta0, gamma) else all(map(math.isfinite, c))
    except FloatingPointError:
        finite = False
    if not finite:
        raise OverflowError(errno.ERANGE, "the coefficient tables of the closed forms overflow")
    if ends is not None:
        den = np.where(ends, 1.0, den)
    # positive on the whole domain
    if den.min(initial=np.inf) <= 0:
        raise ClosedFormDomainError("non-positive eigenvalue-formula denominator")
    if root is None:
        root = _guarded_sqrt(rad, abs(e) * sn + q * horner([abs(v) for v in a], s))
    lo = k + root
    lo /= den
    k -= root
    k /= den
    return lo, k


def _as_arrays(*values):
    """``values`` with each list or tuple as a float array, the rest as
    they are: the public closed forms take a sequence as the array it
    spells, and scalars keep their plain-float path at the cost of one
    ``isinstance`` each."""
    for value in values:
        if isinstance(value, (list, tuple)):
            return [np.asarray(v, dtype=float) if isinstance(v, (list, tuple)) else v for v in values]
    return values


def _is_column(delta0, gamma) -> bool:
    """Whether ``delta0`` or ``gamma`` is an array rather than a scalar."""
    return isinstance(delta0, np.ndarray) or isinstance(gamma, np.ndarray)


def _coordinates(gamma):
    """``(g, t)`` with ``t / g = 1/gamma``: ``(1, 1/gamma)`` for
    ``gamma >= 1`` and ``(gamma, 1)`` below, so that a form homogeneous in
    ``(g, t)`` forms no power of a number above 1 at any ``gamma > 0``.

    ``gamma`` is a scalar or an array; each element of an array takes its
    own pair, in arrays of its shape and dtype.  The endpoint forms and
    the regime thresholds take it; at ``t = 1`` the thresholds are the
    paper's forms in ``gamma``."""
    if isinstance(gamma, np.ndarray):
        one = np.ones_like(gamma)
        big = gamma >= 1.0
        # 1 / max(gamma, 1) is 1/gamma where it is kept: no overflow
        return np.where(big, one, gamma), np.where(big, 1.0 / np.maximum(gamma, one), one)
    return (1.0, 1.0 / gamma) if gamma >= 1.0 else (gamma, 1.0)


def _endpoint_pairs(delta0, gamma, kind):
    """The four ``mu`` of :func:`_endpoint_mu` at ``(delta0, gamma)`` as
    float64, ``(plus_1, plus_2, minus_1, minus_2)``.

    They are evaluated in extended precision where the platform has it,
    so that each comes within about half an ulp of its exact rational
    value, and in the coordinates of :func:`_coordinates`, so that no
    power of ``1/gamma`` overflows where extended precision is plain
    double.  ``delta0`` and ``gamma`` are scalars or arrays that
    broadcast; arrays give four arrays of their broadcast shape.
    """
    g, t = _coordinates(np.longdouble(gamma))
    return [np.float64(mu) for mu in _endpoint_mu(np.longdouble(delta0), t, kind, g)]


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
    # 12 g (delta0 - 1) rather than 12 d - 12 g, which cancels as delta0 -> 1
    u, v = t + 3 * g, 12 * g * (delta0 - 1) + t
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
    every ``gamma``, the relaxation enters last.  ``delta0``, ``gamma``
    and ``alpha`` broadcast against ``x``: a column of ``m`` penalties,
    gammas or relaxations of shape ``(m, 1)`` against ``c_k`` of shape
    ``(k,)`` or ``(m, k)`` gives ``(m, k)`` pairs, each equal to the pair
    of its own scalar call; so do ``m`` samples of each as four arrays of
    shape ``(m,)``; a list or tuple counts as the array it spells.  Each
    ``gamma`` takes its own branch of the tables
    (:func:`~dgtwolevel.rd_coefficients._in_tau`).  Raises ``ValueError``
    outside the domain (:func:`_check_domain`), and ``OverflowError`` if
    the tables overflow at any element.
    """
    check_smoother(kind)
    x = np.asarray(x, dtype=float)
    delta0, gamma, alpha = _as_arrays(delta0, gamma, alpha)
    _check_domain(x, delta0, gamma)
    plus, minus = x == 1.0, x == -1.0
    ends = plus | minus
    lo, hi = (np.asarray(1 - t) for t in _mu_pair(1 - x, 1 + x, delta0, gamma, kind, ends))
    if ends.any():
        for dst, mu, where in zip(
            (lo, hi, lo, hi), _endpoint_pairs(delta0, gamma, kind), (plus, plus, minus, minus)
        ):
            np.copyto(dst, mu, where=where)
    a, b = 1 - alpha * lo, 1 - alpha * hi
    return np.maximum(a, b), np.minimum(a, b)


def _extremes(values) -> tuple:
    """``(min, max)`` of an array (none of an empty one), or a scalar twice."""
    if isinstance(values, np.ndarray):
        return (values.min(), values.max()) if values.size else ()
    return values, values


def _check_domain(x, delta0, gamma) -> None:
    """``ClosedFormDomainError``, with the message of ``ProblemConfig``,
    unless every ``delta0`` is finite and at least 1, every ``gamma``
    positive or inf and every ``c_k`` of ``x`` in ``[-1, 1]``: a few
    comparisons, none over ``ASYMPTOTIC_CK``."""
    try:
        for value in _extremes(delta0):
            check_penalty(value)
        for value in _extremes(gamma):
            check_reaction(value)
    except ValueError as exc:
        raise ClosedFormDomainError(*exc.args) from None
    for value in () if x is ASYMPTOTIC_CK else _extremes(np.asarray(x)):
        if not -1.0 <= value <= 1.0:
            raise ClosedFormDomainError(f"c_k must lie in [-1, 1], got {value}")


def eigs_closed_form(ck: float, config: ProblemConfig, kind: str, alpha: float) -> EigenPair:
    """Closed-form nonzero eigenvalues at a single ``c_k`` value."""
    hi, lo = eigenvalue_pair(ck, config.delta0, config.gamma, alpha, kind)
    return EigenPair(float(hi), float(lo))


def _per_row(value):
    """A scalar as it is; a column of shape ``(m, 1)`` as ``(m,)``."""
    return value[..., 0] if isinstance(value, np.ndarray) and value.ndim else value


def _split(x):
    """A row of ``c_k`` laid out for the tables: ``(s, q, ends, plus,
    minus)``.

    ``s = 1 - c_k`` and ``q = 1 + c_k`` hold the values other than ``+-1``
    first, then ``1`` if the row holds it (``plus``), then ``-1`` if it
    does (``minus``).  ``ends`` masks those last two, or is ``None``: their
    ``mu`` come from the endpoint forms, but their table entries still
    enter the overflow and radicand checks, as every ``c_k`` does.
    """
    at_end = np.abs(x) == 1.0
    edge = x[at_end].tolist()
    plus, minus = 1.0 in edge, -1.0 in edge
    ck = np.concatenate((x[~at_end], [1.0] * plus + [-1.0] * minus))
    ends = np.arange(ck.size) >= ck.size - plus - minus if plus or minus else None
    return 1 - ck, 1 + ck, ends, plus, minus


def _mu_extremes(x, delta0, gamma, kind):
    """``(mu_min, mu_max)`` over one row ``x`` of ``c_k``: scalars for
    scalar ``delta0`` and ``gamma``, ``(m,)`` arrays where either is a
    column of shape ``(m, 1)``.

    The pairs of the tables count at the ``c_k`` other than ``+-1``, and
    the endpoint ``mu`` join the extremes as four scalars (or columns).
    Raises ``ValueError`` for an empty row and for ``c_k`` of more than
    one axis.
    """
    check_smoother(kind)
    x = np.asarray(x, dtype=float)
    if x.ndim > 1 or not x.size:
        raise ValueError(f"need one row of at least one c_k, got shape {x.shape}")
    s, q, ends, plus, minus = _ASYMPTOTIC_SPLIT if x is ASYMPTOTIC_CK else _split(np.atleast_1d(x))
    t_lo, t_hi = _mu_pair(s, q, delta0, gamma, kind, ends)
    n = s.size - plus - minus
    mu_min, mu_max = np.inf, -np.inf
    if n:
        # fl(1 - t) is monotone: the least mu is 1 - the largest t
        mu_min, mu_max = 1 - t_lo[..., :n].max(axis=-1), 1 - t_hi[..., :n].min(axis=-1)
    if plus or minus:
        p1, p2, m1, m2 = _endpoint_pairs(delta0, gamma, kind)
        edge = ((p1, p2) if plus else ()) + ((m1, m2) if minus else ())
        if _is_column(delta0, gamma):
            for mu in map(_per_row, edge):
                mu_min, mu_max = np.minimum(mu_min, mu), np.maximum(mu_max, mu)
        else:
            # plain comparisons of scalars, at a tenth of a ufunc's cost
            mu_min, mu_max = min(mu_min, *edge), max(mu_max, *edge)
    return mu_min, mu_max


def rho_on_ck_values(x, delta0, gamma, alpha, kind):
    """Largest eigenvalue modulus over one row ``x`` of ``c_k`` values.

    Equal, bit for bit, to the largest ``|lambda|`` of
    :func:`eigenvalue_pair` over the row: a ``float`` for scalar
    ``delta0``, ``gamma`` and ``alpha``, an ``(m,)`` array when any is a
    column of shape ``(m, 1)``, as an array or as the list or tuple that
    spells it.  Raises ``ValueError`` for ``c_k`` of more
    than one axis.

    It is ``max |1 - alpha mu|`` over the extremes of
    :func:`_mu_extremes`: ``fl(1 - fl(alpha mu))`` is monotone in ``mu``,
    so the largest ``|1 - alpha mu|`` sits at ``mu_min`` or ``mu_max``.
    Raises ``ValueError`` outside the domain (:func:`_check_domain`).
    """
    delta0, gamma, alpha = _as_arrays(delta0, gamma, alpha)
    _check_domain(x, delta0, gamma)
    return _rho_of_extremes(*_mu_extremes(x, delta0, gamma, kind), _per_row(alpha))


def _rho_of_extremes(mu_min, mu_max, alpha):
    """``max |1 - alpha mu|`` at the two extremes of some ``mu``: a
    ``float`` for scalars, an ``(m,)`` array for columns."""
    rho = np.maximum(abs(1 - alpha * mu_min), abs(1 - alpha * mu_max))
    return rho if isinstance(rho, np.ndarray) else float(rho)


def _endpoint_rho(delta0, gamma, alpha, kind):
    """``max |1 - alpha mu|`` over the four ``mu`` of
    :func:`_endpoint_pairs`, for scalar ``delta0`` and ``alpha``: the
    radius on ``c_k = +-1`` alone, in microseconds.

    For ``alpha >= 0`` it is never above :func:`rho_on_ck_values` at the
    same arguments over a row that holds ``+-1`` (``ASYMPTOTIC_CK``, or
    ``mesh_ck(J)`` with ``J`` divisible by 4), bit for bit: that row's
    ``mu`` extremes enclose these four, both take the same float
    expression, and ``fl(1 - fl(alpha mu))`` is monotone in ``mu``.
    """
    mu = _endpoint_pairs(delta0, gamma, kind)
    return _rho_of_extremes(min(mu), max(mu), alpha)


def mesh_ck(cells: int) -> np.ndarray:
    """The frequency values ``c_k = cos(4 pi k / J)``, ``k = 1 .. J/2``."""
    k = np.arange(1, cells // 2 + 1)
    return np.cos(4.0 * math.pi * k / cells)


#: Uniform 1001-point grid of ``c_k`` in ``[-1, 1]``: the mesh-size-free
#: frequency set of the asymptotic radius, the optima and their checks.
ASYMPTOTIC_CK = np.linspace(-1.0, 1.0, 1001)
ASYMPTOTIC_CK.flags.writeable = False
# the grid is read-only, so rho_on_ck_values splits it once, here
_ASYMPTOTIC_SPLIT = _split(ASYMPTOTIC_CK)


def lfa_spectral_radius(config: ProblemConfig, kind: str, alpha: float) -> float:
    """Two-grid convergence factor from the closed-form pairs on the mesh
    frequencies of :func:`mesh_ck`."""
    return rho_on_ck_values(mesh_ck(config.cells), config.delta0, config.gamma, alpha, kind)
