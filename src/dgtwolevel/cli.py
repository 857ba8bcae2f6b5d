"""Command-line front end emitting experiment data as CSV tables.

Subcommands: ``spectrum`` (eigenvalue pair per frequency), ``optimize``
(closed form vs. numeric optimum report), ``sweep`` (parameter grids to
CSV), ``validate`` (invariant suite) and ``crossover`` (smoother
break-even penalty).  Floats are written in shortest round-trip form and
``inf`` encodes the pure diffusion limit, so output is lossless and
byte-reproducible.
"""

import argparse
import functools
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .closed_forms import eigenvalue_pair, mesh_ck, rho_on_ck_values
from .config import BOUNDARY_MODES, DIRICHLET, SMOOTHERS, ProblemConfig, check_penalty, check_reaction
from .optimal import _alpha_formula, alpha_opt, alpha_opt_numeric, crossover_check
from .twolevel import assembled_rho, two_level_components
from .validate import run_validation

# Largest number of (row, c_k) points a sweep evaluates in one call, so
# that memory stays bounded on long sweeps over fine meshes.
_SWEEP_CHUNK = 1 << 16

# Most values one grid option may ask for; a range is counted before its
# list is built.
_MAX_GRID = 10**6

_OPTIMIZE_TOLERANCES = {
    "poisson": 1e-6,
    "rd-point": 1e-4,
    "rd-cell": 2e-3,
}


def _fmt(value) -> str:
    return repr(float(value))


def _parse_grid(text: str, parser, flag: str, allow_inf: bool = False):
    """Parse ``value``, ``v1,v2,...`` or ``lo:hi:step`` into a float list.

    Every value must be finite; ``allow_inf`` also admits ``inf`` as a
    list entry (not as a range bound).  More than ``_MAX_GRID`` values
    are a usage error.
    """

    def number(piece, inf_ok=False):
        try:
            value = float(piece)
        except ValueError:
            parser.error(f"{flag}: cannot parse {piece!r}")
        if not (math.isfinite(value) or (inf_ok and value == math.inf)):
            parser.error(f"{flag}: {piece.strip()!r} is not a finite number")
        return value

    values = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) != 3:
                parser.error(f"{flag}: range must be lo:hi:step, got {part!r}")
            lo, hi, step = (number(p) for p in pieces)
            if step <= 0.0 or hi < lo:
                parser.error(f"{flag}: bad range {part!r}")
            # the range has n + 1 values; n is inf when the step underflows
            n = (hi - lo) / step + 0.5
            if not n < _MAX_GRID - len(values):
                parser.error(f"{flag}: more than {_MAX_GRID} values in {text!r}")
            n = int(n)
            values.extend(lo + i * step for i in range(n + 1) if lo + i * step <= hi + step / 2)
        else:
            values.append(number(part, allow_inf))
        if len(values) > _MAX_GRID:
            parser.error(f"{flag}: more than {_MAX_GRID} values in {text!r}")
    if not values:
        parser.error(f"{flag}: empty grid")
    return values


@contextmanager
def _output(path: str):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            yield fh


def _add_common(sub, mesh=True, bc=True):
    """The problem options; ``mesh`` adds ``--alpha`` and ``--cells``."""
    sub.add_argument("--smoother", choices=SMOOTHERS, required=True)
    sub.add_argument("--delta0", default="2", help="value, list v1,v2 or range lo:hi:step")
    sub.add_argument("--gamma", default="inf", help="value, inf, or list")
    if mesh:
        sub.add_argument("--alpha", default="opt", help="value, 'opt', or range")
        sub.add_argument("--cells", type=int, default=64)
    if bc:
        sub.add_argument("--bc", choices=BOUNDARY_MODES, default=DIRICHLET)
    sub.add_argument("--out", default="-", help="output path or - for stdout")


def _resolve_alpha(text, parser, config, kind):
    if text.strip().lower() == "opt":
        return [_alpha_formula(kind, config.delta0, config.gamma)]
    return _parse_grid(text, parser, "--alpha")


def cmd_spectrum(args, parser) -> int:
    delta0 = _parse_grid(args.delta0, parser, "--delta0")
    gamma = _parse_grid(args.gamma, parser, "--gamma", allow_inf=True)
    if len(delta0) != 1 or len(gamma) != 1:
        parser.error("spectrum expects a single --delta0 and --gamma")
    # the frequency pairs come from the periodic analysis: no boundary enters
    config = ProblemConfig(args.cells, delta0[0], gamma[0])
    alphas = _resolve_alpha(args.alpha, parser, config, args.smoother)
    if len(alphas) != 1:
        parser.error("spectrum expects a single --alpha")
    ck = mesh_ck(config.cells)
    plus, minus = eigenvalue_pair(ck, config.delta0, config.gamma, alphas[0], args.smoother)
    bad = np.flatnonzero(~(np.isfinite(plus) & np.isfinite(minus)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"spectrum row k={i + 1}: lambda pair {_fmt(plus[i])}, {_fmt(minus[i])} is not finite"
        )
    with _output(args.out) as out:
        out.write("k,c_k,lambda_plus,lambda_minus\n")
        for k, row in enumerate(zip(ck, plus, minus), start=1):
            out.write(f"{k},{','.join(_fmt(v) for v in row)}\n")
    return 0


def cmd_optimize(args, parser) -> int:
    delta0 = _parse_grid(args.delta0, parser, "--delta0")
    gamma = _parse_grid(args.gamma, parser, "--gamma", allow_inf=True)
    if len(delta0) != 1 or len(gamma) != 1:
        parser.error("optimize expects a single --delta0 and --gamma")
    # both optima read only delta0 and gamma: the mesh is a placeholder
    config = ProblemConfig(4, delta0[0], gamma[0])
    formula = alpha_opt(config, args.smoother)
    numeric = alpha_opt_numeric(config, args.smoother)
    case = "poisson" if config.is_poisson else f"rd-{args.smoother}"
    tol = _OPTIMIZE_TOLERANCES[case]
    gap = abs(formula.alpha_opt - numeric.alpha_opt)
    agrees = gap <= tol
    with _output(args.out) as out:
        out.write(f"alpha_opt_formula={_fmt(formula.alpha_opt)}\n")
        out.write(f"alpha_opt_numeric={_fmt(numeric.alpha_opt)}\n")
        out.write(f"rho_formula={_fmt(formula.rho_predicted)}\n")
        out.write(f"rho_numeric={_fmt(numeric.rho_predicted)}\n")
        out.write(f"branch={formula.branch}\n")
        out.write(f"agreement_tolerance={_fmt(tol)}\n")
        out.write(f"agrees={'true' if agrees else 'false'}\n")
    return 0 if agrees else 1


def _first_invalid_row(args, delta0, gamma):
    """``(i, j, error)``: the error of the first invalid sweep row, at
    ``delta0[i]`` and ``gamma[j]``, or ``(len(delta0), 0, None)``.

    Rows run delta0 outer and gamma inner, and a row checks cells, delta0,
    gamma and bc in that order (``ProblemConfig``).  So the first row
    checks cells and bc for all, and each value is checked once.
    """
    try:
        ProblemConfig(args.cells, delta0[0], gamma[0], args.bc)
    except ValueError as exc:
        return 0, 0, exc
    for j, g in enumerate(gamma):
        try:
            check_reaction(g)
        except ValueError as exc:
            return 0, j, exc
    for i, d in enumerate(delta0):
        try:
            check_penalty(d)
        except ValueError as exc:
            return i, 0, exc
    return len(delta0), 0, None


def _finite_rows(table: np.ndarray) -> np.ndarray:
    """``table``, or ``ValueError`` naming its first row with a non-finite
    alpha or rho."""
    bad = ~np.isfinite(table[:, 2:]).all(axis=1)
    if bad.any():
        line = table[bad.argmax()]
        raise ValueError(
            f"sweep row delta0={_fmt(line[0])}, gamma={_fmt(line[1])}: "
            f"alpha={_fmt(line[2])}, rho={', '.join(_fmt(v) for v in line[3:])} is not finite"
        )
    return table


def cmd_sweep(args, parser) -> int:
    delta0 = _parse_grid(args.delta0, parser, "--delta0")
    gamma = _parse_grid(args.gamma, parser, "--gamma", allow_inf=True)
    kind = args.smoother
    bad_i, bad_j, error = _first_invalid_row(args, delta0, gamma)
    if error is not None and bad_i == bad_j == 0:
        raise error
    # every row takes its alpha after its checks: parsed at the first row,
    # or the closed-form optimum of each row
    opt = args.alpha.strip().lower() == "opt"
    alphas = None if opt else _parse_grid(args.alpha, parser, "--alpha")
    if error is not None:
        if opt:
            # the rows before the invalid one may overflow first
            for j, g in enumerate(gamma):
                _alpha_formula(kind, np.array(delta0[: bad_i + (j < bad_j)]), g)
        raise error

    # one array call per reaction scaling for its alpha column, then one
    # closed-form evaluation per chunk of its rows
    d0 = np.array(delta0)
    n_alpha = 1 if opt else len(alphas)
    alpha = {
        g: np.broadcast_to(_alpha_formula(kind, d0, g)[:, None] if opt else alphas, (d0.size, n_alpha))
        for g in dict.fromkeys(gamma)
    }
    ck = mesh_ck(args.cells)
    step = max(1, _SWEEP_CHUNK // ck.size)
    d_rows = np.repeat(d0, n_alpha)[:, None]
    rho = {}
    for g, a in alpha.items():
        a_rows = a.reshape(-1, 1)
        rho[g] = np.concatenate([
            rho_on_ck_values(ck, d_rows[start : start + step], g, a_rows[start : start + step], kind)
            for start in range(0, len(a_rows), step)
        ])
    # rows in output order: delta0, then gamma, then alpha
    table = np.empty((d0.size, len(gamma), n_alpha, 4))
    table[..., 0] = d0[:, None, None]
    table[..., 1] = np.array(gamma)[:, None]
    for j, g in enumerate(gamma):
        table[:, j, :, 2] = alpha[g]
        table[:, j, :, 3] = rho[g].reshape(d0.size, n_alpha)
    table = _finite_rows(table.reshape(-1, 4))
    if args.dense:
        dense = [
            assembled_rho(two_level_components(ProblemConfig(args.cells, d, g, args.bc), kind, a))
            for d, g, a, _ in table.tolist()
        ]
        table = _finite_rows(np.column_stack((table, dense)))
    with _output(args.out) as out:
        header = "delta0,gamma,alpha,rho_lfa"
        out.write(header + (",rho_dense\n" if args.dense else "\n"))
        out.write("".join(",".join(map(repr, line)) + "\n" for line in table.tolist()))
    return 0


def cmd_validate(args, parser) -> int:
    checks = run_validation(cells=args.cells)
    with _output(args.out) as out:
        for check in checks:
            out.write(check.line() + "\n")
        failed = [c for c in checks if not c.passed]
        out.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    return 1 if failed else 0


def cmd_crossover(args, parser) -> int:
    gamma = _parse_grid(args.gamma, parser, "--gamma", allow_inf=True)
    if len(gamma) != 1:
        parser.error("crossover expects a single --gamma")
    lo, hi = crossover_check(gamma[0])
    with _output(args.out) as out:
        out.write("delta0_lo,delta0_hi\n")
        out.write(f"{_fmt(lo)},{_fmt(hi)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgtwolevel",
        description="Two-level solver analysis for interior-penalty reaction-diffusion problems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("spectrum", help="eigenvalue pair per frequency as CSV")
    _add_common(sub, bc=False)
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("optimize", help="closed-form vs numeric optimum report")
    _add_common(sub, mesh=False, bc=False)
    sub.set_defaults(func=cmd_optimize)

    sub = subs.add_parser("sweep", help="parameter sweep as CSV")
    _add_common(sub)
    sub.add_argument("--dense", action="store_true", help="add assembled-matrix spectral radius")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("validate", help="run the cross-module invariant suite")
    sub.add_argument("--cells", type=int, default=64)
    sub.add_argument("--out", default="-")
    sub.set_defaults(func=cmd_validate)

    sub = subs.add_parser("crossover", help="narrow down the smoother break-even penalty")
    sub.add_argument("--gamma", default="inf")
    sub.add_argument("--out", default="-")
    sub.set_defaults(func=cmd_crossover)
    return parser


# parse_args leaves the parser as it was, so one serves every call of
# main in a process: building it takes 1-2 ms
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early; send the interpreter's final flush nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OverflowError as exc:
        print(f"error: floating-point overflow: {exc.args[-1]}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
