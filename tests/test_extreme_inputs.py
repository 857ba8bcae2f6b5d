"""Every CLI command answers or refuses in one line at extreme inputs.

The grid runs gamma from the smallest subnormal to inf and delta0 from 1
to 1e15, for both smoothers, through ``optimize``, ``spectrum``,
``crossover`` and ``sweep --dense`` on both boundaries.  Under warnings
as errors a command may exit 0, or exit 1 with exactly one ``error:``
line and nothing on stdout; ``optimize`` may also exit 1 with its report
ending ``agrees=false`` (the closed-form optimum and the numeric one
differing by more than the tolerance, a result and not a failure).  No
command raises or warns.
"""

import warnings

import pytest

from dgtwolevel.cli import main

GAMMAS = ("5e-324", "1e-300", "1e-200", "1e-155", "1e-3", "1", "1e300", "inf")
DELTAS = ("1", "1.5", "3", "1e15")
SMOOTHERS = ("point", "cell")


def _commands(gamma: str, smoother: str):
    for delta0 in DELTAS:
        problem = ["--smoother", smoother, "--delta0", delta0, "--gamma", gamma]
        yield ["optimize", *problem]
        yield ["spectrum", *problem, "--cells", "6"]
        for bc in ("periodic", "dirichlet"):
            for cells in ("4", "6", "64"):
                yield ["sweep", *problem, "--bc", bc, "--cells", cells, "--dense"]


def _outcome(capsys, argv) -> str | None:
    """``None`` for an accepted outcome, else what went wrong."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape is a failure
            capsys.readouterr()
            return f"raised {type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if code == 0 and err == "":
        return None
    if code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1:
        return None
    if code == 1 and argv[0] == "optimize" and err == "" and out.endswith("agrees=false\n"):
        return None
    return f"exit {code}, stdout {out[-200:]!r}, stderr {err[-300:]!r}"


@pytest.mark.parametrize("smoother", SMOOTHERS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_every_command_answers_or_refuses_in_one_line(capsys, gamma, smoother):
    failures = []
    for argv in _commands(gamma, smoother):
        problem = _outcome(capsys, argv)
        if problem is not None:
            failures.append(f"{' '.join(argv)}: {problem}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_crossover_answers_or_refuses_in_one_line(capsys, gamma):
    assert _outcome(capsys, ["crossover", "--gamma", gamma]) is None
