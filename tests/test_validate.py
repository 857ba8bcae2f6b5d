import math

import pytest

import dgtwolevel.closed_forms
from dgtwolevel import run_validation
from dgtwolevel.rd_coefficients import cell_coefficients, point_coefficients


#: The checks that evaluate closed-form pairs, and so read the tables:
#: pure diffusion is the same tables at tau = 0.
TABLE_CHECKS = {
    "appendix_vs_blocks", "equioscillation", "poisson_degeneration", "quarter_frequency_touch",
}


def by_name(checks, name):
    return next(c for c in checks if c.name == name)


def shift_table(monkeypatch, table, index, amount):
    """Shift entry ``index`` (1-based) of a coefficient table by ``amount``
    relative, where the closed forms read it."""
    original = {"point_coefficients": point_coefficients, "cell_coefficients": cell_coefficients}[table]

    def shifted(delta0, gamma):
        coeffs = list(original(delta0, gamma))
        coeffs[index - 1] += amount * max(1.0, abs(coeffs[index - 1]))
        return tuple(coeffs)

    monkeypatch.setattr(dgtwolevel.closed_forms, table, shifted)


def test_suite_passes_clean():
    checks = run_validation(cells=16)
    assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]
    names = {c.name for c in checks}
    assert {"block_diagonalization", "appendix_vs_blocks", "equioscillation",
            "branch_continuity", "poisson_degeneration"} <= names


def test_perturbed_coefficient_is_caught(monkeypatch):
    # mutation test: shifting one reaction-diffusion table entry must trip
    # the table-vs-blocks comparison and nothing else
    shift_table(monkeypatch, "point_coefficients", 3, 1e-3)
    checks = run_validation(cells=16)
    bad = by_name(checks, "appendix_vs_blocks")
    assert not bad.passed
    assert bad.observed > 1e-8
    assert by_name(checks, "block_diagonalization").passed


@pytest.mark.parametrize(
    "table, index, amount, infinite",
    [
        pytest.param("point_coefficients", 2, 1e-3, set(), id="point-numerator"),
        pytest.param(
            "point_coefficients", 5, -1e-3,
            {"equioscillation", "poisson_degeneration", "quarter_frequency_touch"},
            id="point-radicand",
        ),
        pytest.param("point_coefficients", 10, 1e-3, set(), id="point-denominator"),
        pytest.param("cell_coefficients", 2, -1e-3, set(), id="cell-numerator"),
        pytest.param(
            "cell_coefficients", 5, -1e-3, {"equioscillation", "poisson_degeneration"},
            id="cell-radicand",
        ),
        pytest.param("cell_coefficients", 9, -1e-3, set(), id="cell-denominator"),
    ],
)
def test_table_slip_is_a_fail_line(monkeypatch, table, index, amount, infinite):
    # a radicand driven below zero is an out-of-range closed form: the
    # check fails with observed inf instead of aborting the suite
    shift_table(monkeypatch, table, index, amount)
    checks = run_validation(cells=16)
    failed = {c.name for c in checks if not c.passed}
    assert "appendix_vs_blocks" in failed
    assert failed <= TABLE_CHECKS
    assert {c.name for c in checks if math.isinf(c.observed)} == infinite
    for name in infinite:
        check = by_name(checks, name)
        assert check.line().startswith(f"FAIL {check.module}.{name}: observed inf,")


def test_check_line_format():
    checks = run_validation(cells=16)
    line = checks[0].line()
    assert line.startswith("PASS ") and "observed" in line and "expected" in line
